// MRR weight bank: calibration, signed weighting, crosstalk, linearity.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "photonics/weight_bank.hpp"

namespace {

using namespace pcnna;
namespace u = units;

phot::WeightBankConfig default_cfg() { return phot::WeightBankConfig{}; }

phot::WeightBankConfig ideal_cfg() {
  phot::WeightBankConfig cfg;
  cfg.model_crosstalk = false;
  cfg.ring.q_factor = 2.0e6;
  cfg.ring.max_drop = 1.0 - 1e-9;
  cfg.ring.insertion_loss_db = 0.0;
  cfg.ring.tuning_bits = 44;
  cfg.ring.max_detuning = 1.55 * u::nm;
  return cfg;
}

TEST(WeightBank, RangeIsNearlySymmetricUnitInterval) {
  Rng rng(1);
  phot::WeightBank bank(phot::WdmGrid(4), default_cfg(), rng);
  EXPECT_GT(bank.max_weight(), 0.9);
  EXPECT_LE(bank.max_weight(), 1.0);
  EXPECT_LT(bank.min_weight(), -0.9);
  EXPECT_GE(bank.min_weight(), -1.0);
}

TEST(WeightBank, FreshBankParksAtZeroWeight) {
  Rng rng(2);
  phot::WeightBank bank(phot::WdmGrid(4), default_cfg(), rng);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(0.0, bank.effective_weight(i), 0.01);
}

TEST(WeightBank, CalibrationHitsTargetsWithCrosstalk) {
  Rng rng(3);
  phot::WeightBank bank(phot::WdmGrid(8), default_cfg(), rng);
  const std::vector<double> targets = {0.5,  -0.5, 0.9,  -0.9,
                                       0.05, 0.25, -0.75, 0.0};
  const auto achieved = bank.calibrate(targets);
  for (std::size_t i = 0; i < targets.size(); ++i)
    EXPECT_NEAR(targets[i], achieved[i], 5e-3) << "ring " << i;
}

TEST(WeightBank, IdealCalibrationIsNearExact) {
  Rng rng(4);
  phot::WeightBank bank(phot::WdmGrid(8), ideal_cfg(), rng);
  const std::vector<double> targets = {0.3, -0.6, 0.99, -0.99, 0.0, 0.111, -0.2, 0.77};
  const auto achieved = bank.calibrate(targets);
  for (std::size_t i = 0; i < targets.size(); ++i)
    EXPECT_NEAR(targets[i], achieved[i], 1e-7) << "ring " << i;
}

TEST(WeightBank, OutOfRangeTargetsClampToRange) {
  Rng rng(5);
  phot::WeightBank bank(phot::WdmGrid(2), default_cfg(), rng);
  const auto achieved = bank.calibrate(std::vector<double>{1.0, -1.0});
  EXPECT_NEAR(bank.max_weight(), achieved[0], 5e-3);
  EXPECT_LT(achieved[1], -0.9);
  // |w| > 1 is a caller bug, not a clamp.
  EXPECT_THROW(bank.calibrate(std::vector<double>{1.5, 0.0}), Error);
}

TEST(WeightBank, WrongWeightCountThrows) {
  Rng rng(6);
  phot::WeightBank bank(phot::WdmGrid(4), default_cfg(), rng);
  EXPECT_THROW(bank.calibrate(std::vector<double>{0.1, 0.2}), Error);
}

TEST(WeightBank, DetectComputesWeightedSum) {
  Rng rng(7);
  phot::WeightBank bank(phot::WdmGrid(6), default_cfg(), rng);
  const std::vector<double> weights = {0.5, -0.5, 0.25, -0.25, 0.8, 0.0};
  const auto achieved = bank.calibrate(weights);

  phot::WdmSignal in(6);
  const std::vector<double> powers = {1e-3, 2e-3, 0.5e-3, 1e-3, 0.1e-3, 3e-3};
  double expected = 0.0;
  for (std::size_t i = 0; i < 6; ++i) {
    in[i] = powers[i];
    expected += powers[i] * achieved[i];
  }
  const double resp = default_cfg().photodiode.responsivity;
  EXPECT_NEAR(resp * expected, bank.detect(in, 0.0, rng), 1e-12);
}

TEST(WeightBank, PropagateIsLinearInInputs) {
  Rng rng(8);
  phot::WeightBank bank(phot::WdmGrid(5), default_cfg(), rng);
  bank.calibrate(std::vector<double>{0.4, -0.3, 0.9, -0.9, 0.1});

  // channel_splits must reproduce propagate for arbitrary bundles.
  const auto splits = bank.channel_splits();
  phot::WdmSignal in(5);
  for (std::size_t i = 0; i < 5; ++i) in[i] = 0.3e-3 * static_cast<double>(i + 1);
  double drop = 0.0, thru = 0.0;
  bank.propagate(in, drop, thru);
  double drop2 = 0.0, thru2 = 0.0;
  for (std::size_t i = 0; i < 5; ++i) {
    drop2 += in[i] * splits[i].drop;
    thru2 += in[i] * splits[i].thru;
  }
  EXPECT_NEAR(drop, drop2, 1e-15);
  EXPECT_NEAR(thru, thru2, 1e-15);
}

// The engine programs each bank with tune() and one channel_splits_into()
// sweep, reading the achieved weights back as drop - thru. Both identities
// that makes legal are pinned bitwise, with crosstalk modeled and not.
TEST(WeightBank, TuneThenSplitsReproducesCalibrateBitwise) {
  const std::vector<double> targets = {0.5,  -0.5, 0.9,  -0.9,
                                       0.05, 0.25, -0.75, 0.0};
  for (bool crosstalk : {true, false}) {
    phot::WeightBankConfig cfg = default_cfg();
    cfg.model_crosstalk = crosstalk;
    cfg.ring.fab_sigma = 0.05 * u::nm;
    Rng rng_a(15), rng_b(15);
    phot::WeightBank calibrated(phot::WdmGrid(8), cfg, rng_a);
    phot::WeightBank tuned(phot::WdmGrid(8), cfg, rng_b);

    const std::vector<double> achieved = calibrated.calibrate(targets);
    tuned.tune(targets);
    std::vector<phot::WeightBank::ChannelSplit> splits(8);
    tuned.channel_splits_into(splits);
    for (std::size_t i = 0; i < targets.size(); ++i)
      EXPECT_EQ(achieved[i], splits[i].drop - splits[i].thru)
          << "crosstalk=" << crosstalk << " ring " << i;
    EXPECT_EQ(calibrated.total_heater_power(), tuned.total_heater_power())
        << "crosstalk=" << crosstalk;
  }
}

TEST(WeightBank, EffectiveWeightIsOneHotPropagateBitwise) {
  for (bool crosstalk : {true, false}) {
    phot::WeightBankConfig cfg = default_cfg();
    cfg.model_crosstalk = crosstalk;
    cfg.ring.fab_sigma = 0.05 * u::nm;
    Rng rng(16);
    phot::WeightBank bank(phot::WdmGrid(6), cfg, rng);
    bank.calibrate(std::vector<double>{0.4, -0.3, 0.9, -0.9, 0.1, -0.6});

    const auto splits = bank.channel_splits();
    for (std::size_t ch = 0; ch < 6; ++ch) {
      phot::WdmSignal one_hot(6);
      one_hot[ch] = 1.0;
      double drop = 0.0, thru = 0.0;
      bank.propagate(one_hot, drop, thru);
      EXPECT_EQ(drop - thru, bank.effective_weight(ch))
          << "crosstalk=" << crosstalk << " channel " << ch;
      EXPECT_EQ(drop, splits[ch].drop) << "channel " << ch;
      EXPECT_EQ(thru, splits[ch].thru) << "channel " << ch;
    }
  }
}

TEST(WeightBank, CrosstalkShiftsOpenLoopWeights) {
  // With iterative calibration disabled (open loop), the crosstalk model
  // leaves a measurable weight error that the isolated model does not.
  Rng rng1(9), rng2(9);
  phot::WeightBankConfig xcfg = default_cfg();
  xcfg.model_crosstalk = true;
  xcfg.calibration_iterations = 0;
  phot::WeightBankConfig ncfg = default_cfg();
  ncfg.model_crosstalk = false;

  phot::WeightBank xbank(phot::WdmGrid(2), xcfg, rng1);
  phot::WeightBank nbank(phot::WdmGrid(2), ncfg, rng2);
  // Ring 1 fully on resonance; probe channel 0's weight in both models.
  xbank.calibrate(std::vector<double>{0.0, 1.0});
  nbank.calibrate(std::vector<double>{0.0, 1.0});
  const double w_x = xbank.effective_weight(0);
  const double w_n = nbank.effective_weight(0);
  // Open-loop crosstalk pulls channel 0 away from zero by more than the
  // isolated model's quantization-level residue.
  EXPECT_GT(std::abs(w_x), std::abs(w_n) + 1e-4);
}

TEST(WeightBank, CalibrationIterationsCancelCrosstalk) {
  Rng rng_open(21), rng_closed(21);
  phot::WeightBankConfig open_cfg = default_cfg();
  open_cfg.calibration_iterations = 0;
  phot::WeightBank open_bank(phot::WdmGrid(8), open_cfg, rng_open);
  phot::WeightBank closed_bank(phot::WdmGrid(8), default_cfg(), rng_closed);

  const std::vector<double> targets = {0.9, -0.9, 0.9, -0.9,
                                       0.9, -0.9, 0.9, -0.9};
  const auto open_w = open_bank.calibrate(targets);
  const auto closed_w = closed_bank.calibrate(targets);
  double open_err = 0.0, closed_err = 0.0;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    open_err += std::abs(open_w[i] - targets[i]);
    closed_err += std::abs(closed_w[i] - targets[i]);
  }
  EXPECT_LT(closed_err, open_err);
}

TEST(WeightBank, CalibrationCompensatesFabricationDisorder) {
  phot::WeightBankConfig cfg = default_cfg();
  cfg.ring.fab_sigma = 0.05 * u::nm;
  Rng rng(10);
  phot::WeightBank bank(phot::WdmGrid(6), cfg, rng);
  const std::vector<double> targets = {0.5, -0.5, 0.2, -0.2, 0.8, -0.8};
  const auto achieved = bank.calibrate(targets);
  for (std::size_t i = 0; i < targets.size(); ++i)
    EXPECT_NEAR(targets[i], achieved[i], 0.02) << "ring " << i;
}

TEST(WeightBank, HeaterPowerIsFiniteAndPositiveAfterCalibration) {
  Rng rng(11);
  phot::WeightBank bank(phot::WdmGrid(4), default_cfg(), rng);
  bank.calibrate(std::vector<double>{0.5, -0.5, 0.9, -0.9});
  EXPECT_GT(bank.total_heater_power(), 0.0);
  EXPECT_LT(bank.total_heater_power(), 4.0 * 10.0 * u::mW);
}

TEST(WeightBank, AreaScalesWithRingCount) {
  Rng rng(12);
  phot::WeightBank bank(phot::WdmGrid(16), default_cfg(), rng);
  EXPECT_NEAR(16.0 * 625.0 * u::um2, bank.total_area(), 1e-15);
}

TEST(WeightBank, ChannelCountMismatchThrows) {
  Rng rng(13);
  phot::WeightBank bank(phot::WdmGrid(4), default_cfg(), rng);
  phot::WdmSignal wrong(3);
  double d = 0.0, t = 0.0;
  EXPECT_THROW(bank.propagate(wrong, d, t), Error);
}

TEST(WeightBank, DetectNoiseIsBounded) {
  Rng rng(14);
  phot::WeightBank bank(phot::WdmGrid(4), default_cfg(), rng);
  const auto achieved = bank.calibrate(std::vector<double>{0.5, 0.5, 0.5, 0.5});
  phot::WdmSignal in(4);
  for (std::size_t i = 0; i < 4; ++i) in[i] = 1e-3;
  double ideal = 0.0;
  for (std::size_t i = 0; i < 4; ++i) ideal += in[i] * achieved[i];
  ideal *= default_cfg().photodiode.responsivity;
  // 5 GHz detection bandwidth noise should stay within ~1% of a ~2 mA-scale
  // signal over many draws.
  for (int i = 0; i < 100; ++i) {
    const double sample = bank.detect(in, 5.0 * u::GHz, rng);
    EXPECT_NEAR(ideal, sample, 0.01 * std::abs(ideal));
  }
}

} // namespace
