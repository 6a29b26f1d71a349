// PR 3 hot-path rewrite: A/B bit-identity against the frozen reference
// engine, scratch-buffer reuse, determinism under intra-image parallelism,
// and the chip stream every bank is fabricated from.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/engine_reference.hpp"
#include "core/optical_conv_engine.hpp"
#include "core/scheduler.hpp"
#include "nn/conv_params.hpp"
#include "nn/conv_ref.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "nn/tensor.hpp"
#include "photonics/weight_bank.hpp"
#include "photonics/wdm.hpp"
#include "runtime/batch_runner.hpp"

namespace {

using namespace pcnna;
using core::EngineStats;
using core::OpticalConvEngine;
using core::PcnnaConfig;
using core::ReferenceConvEngine;
using core::RingAllocation;

const nn::ConvLayerParams kLayerA{"hotA", 8, 3, 1, 1, 3, 5};
const nn::ConvLayerParams kLayerB{"hotB", 12, 5, 2, 2, 2, 4};

struct LayerData {
  nn::Tensor input, weights, bias;
};

LayerData make_data(const nn::ConvLayerParams& layer, std::uint64_t seed = 42,
                    bool signed_input = false) {
  Rng rng(seed);
  LayerData d;
  d.input = nn::make_input(layer, rng);
  if (signed_input) {
    for (std::size_t i = 0; i < d.input.size(); ++i)
      d.input[i] = rng.uniform(-1.0, 1.0);
  }
  d.weights = nn::make_conv_weights(layer, rng);
  d.bias = nn::make_conv_bias(layer, rng);
  return d;
}

void expect_stats_equal(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.locations, b.locations);
  EXPECT_EQ(a.optical_passes, b.optical_passes);
  EXPECT_EQ(a.dac_conversions, b.dac_conversions);
  EXPECT_EQ(a.adc_conversions, b.adc_conversions);
  EXPECT_EQ(a.weight_dac_conversions, b.weight_dac_conversions);
  EXPECT_EQ(a.recalibrations, b.recalibrations);
  EXPECT_EQ(a.banks_built, b.banks_built);
  EXPECT_EQ(a.rings_used, b.rings_used);
  EXPECT_EQ(a.wavelengths_used, b.wavelengths_used);
  EXPECT_EQ(a.stuck_rings, b.stuck_rings);
  EXPECT_EQ(a.mean_calibration_error, b.mean_calibration_error);
  EXPECT_EQ(a.max_calibration_error, b.max_calibration_error);
  EXPECT_EQ(a.total_heater_power, b.total_heater_power);
  EXPECT_EQ(a.total_ring_area, b.total_ring_area);
}

/// Run the frozen reference and the rewritten engine on the same layer with
/// engine_threads in {1, 2, 3, 4, 7}; every variant must be bit-identical.
/// Each engine runs the layer under the config seed, then under another
/// key, so both read the keyed noise streams, not only the default ones.
void expect_ab_identity(PcnnaConfig cfg, const nn::ConvLayerParams& layer,
                        bool signed_input = false) {
  const LayerData d = make_data(layer, 42, signed_input);
  const std::uint64_t keys[2] = {cfg.seed, derive_seed(cfg.seed, 77)};
  ReferenceConvEngine reference(cfg);
  EngineStats ref_stats[2];
  nn::Tensor expected[2];
  for (int call = 0; call < 2; ++call) {
    reference.reseed_rng(keys[call]);
    expected[call] = reference.conv2d(d.input, d.weights, d.bias, layer.s,
                                      layer.p, &ref_stats[call]);
  }

  for (std::size_t threads : {1u, 2u, 3u, 4u, 7u}) {
    PcnnaConfig tcfg = cfg;
    tcfg.engine_threads = threads;
    OpticalConvEngine engine(tcfg);
    for (int call = 0; call < 2; ++call) {
      engine.reseed_rng(keys[call]);
      EngineStats stats;
      const nn::Tensor got =
          engine.conv2d(d.input, d.weights, d.bias, layer.s, layer.p, &stats);
      EXPECT_TRUE(expected[call] == got)
          << "threads=" << threads << " call=" << call
          << " max|diff|=" << nn::max_abs_diff(expected[call], got);
      expect_stats_equal(ref_stats[call], stats);
    }
  }
}

TEST(EngineAbIdentity, IdealConfig) {
  expect_ab_identity(PcnnaConfig::ideal(), kLayerA);
}

TEST(EngineAbIdentity, PaperDefaultsNoiseAndQuantization) {
  expect_ab_identity(PcnnaConfig::paper_defaults(), kLayerA);
}

TEST(EngineAbIdentity, SecondLayerShape) {
  expect_ab_identity(PcnnaConfig::paper_defaults(), kLayerB);
}

TEST(EngineAbIdentity, QuantizationOnly) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.enable_noise = false;
  expect_ab_identity(cfg, kLayerA);
}

TEST(EngineAbIdentity, NoiseOnly) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.enable_quantization = false;
  expect_ab_identity(cfg, kLayerA);
}

TEST(EngineAbIdentity, StuckRingFaults) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.stuck_ring_rate = 0.1;
  expect_ab_identity(cfg, kLayerA);
}

TEST(EngineAbIdentity, PerChannelAllocation) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.allocation = RingAllocation::kPerChannel;
  expect_ab_identity(cfg, kLayerA);
}

TEST(EngineAbIdentity, PerChannelIdeal) {
  PcnnaConfig cfg = PcnnaConfig::ideal();
  cfg.allocation = RingAllocation::kPerChannel;
  expect_ab_identity(cfg, kLayerA);
}

// Per-channel passes wider than the WDM budget: kLayerB's 5x5 kernels take
// 25 rings per pass against small_core()'s 24 wavelengths, so each of its
// 2 channel passes runs 2 groups.
TEST(EngineAbIdentity, PerChannelPassSplitsIntoGroups) {
  expect_ab_identity(PcnnaConfig::small_core(), kLayerB);
}

// One input channel is one per-channel pass, and its 2 groups are still
// digitized one by one and summed electronically, where a full-kernel
// layer of the same shape would wire-sum them into one ADC sample.
TEST(EngineAbIdentity, PerChannelSingleChannel) {
  expect_ab_identity(PcnnaConfig::small_core(),
                     nn::ConvLayerParams{"mono", 12, 5, 2, 2, 1, 4});
}

TEST(EngineAbIdentity, DualRailSignedInputs) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.dual_rail_inputs = true;
  expect_ab_identity(cfg, kLayerA, /*signed_input=*/true);
}

TEST(EngineAbIdentity, WideReceptiveFieldSplitsIntoGroups) {
  // nc * m * m = 128 > max_wavelengths forces multiple group slices.
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.max_wavelengths = 48;
  const nn::ConvLayerParams wide{"wide", 6, 4, 1, 1, 8, 3};
  expect_ab_identity(cfg, wide);
}

// Many banks, with disorder: 3 groups x 40 kernels = 120 banks per
// full-kernel layer, so bank programming runs several fabricate-then-tune
// batches at every thread count, with fabrication draws and stuck faults
// interleaved between banks. The per-channel allocation retunes its 40
// persistent banks across the pool once per input channel.
TEST(EngineAbIdentity, ManyBanksWithDisorderAndFaults) {
  const nn::ConvLayerParams many{"many", 7, 5, 0, 1, 6, 40};
  for (RingAllocation allocation :
       {RingAllocation::kFullKernel, RingAllocation::kPerChannel}) {
    PcnnaConfig cfg = PcnnaConfig::paper_defaults();
    cfg.max_wavelengths = 64;
    cfg.bank.ring.fab_sigma = 0.05e-9;
    cfg.stuck_ring_rate = 0.05;
    cfg.allocation = allocation;
    expect_ab_identity(cfg, many);
  }
}

// Shot noise with zero dark current makes the photodiode draw count
// data-dependent. Each pixel draws from its own stream, so the sweep still
// runs on the pool and matches the reference at every thread count.
TEST(EngineAbIdentity, ShotOnlyZeroDarkRunsOnThePool) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.bank.photodiode.enable_thermal_noise = false;
  cfg.bank.photodiode.dark_current = 0.0;
  expect_ab_identity(cfg, kLayerA);
}

// Thermal noise into an infinite load with shot noise off: every branch
// sigma is exactly zero, so the photodiodes draw nothing and each pixel
// draws only its laser RIN normals. noise_draws must not count branch
// draws that never happen.
TEST(EngineAbIdentity, ZeroPhotodiodeSigmaDrawsNoBranchNoise) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.bank.photodiode.enable_shot_noise = false;
  cfg.bank.photodiode.load_resistance =
      std::numeric_limits<double>::infinity();
  expect_ab_identity(cfg, kLayerA);

  const LayerData d = make_data(kLayerA);
  for (std::size_t threads : {1u, 4u}) {
    cfg.engine_threads = threads;
    OpticalConvEngine engine(cfg);
    EngineStats stats;
    engine.conv2d(d.input, d.weights, d.bias, kLayerA.s, kLayerA.p, &stats);
    EXPECT_EQ(stats.locations * kLayerA.kernel_size(), stats.noise_draws)
        << "threads=" << threads;
  }
}

// --- scratch-buffer reuse -------------------------------------------------
// One engine instance serving different layers (and the same layer twice)
// must produce outputs bit-identical to a fresh engine per call. Every call
// draws its noise under the same key, so the only thing that could differ
// is stale scratch state.
TEST(EngineScratchReuse, AcrossLayersAndRepeatsBitIdentical) {
  for (std::size_t threads : {1u, 4u}) {
    PcnnaConfig cfg = PcnnaConfig::paper_defaults();
    cfg.engine_threads = threads;

    const LayerData a = make_data(kLayerA);
    const LayerData b = make_data(kLayerB, 7);

    OpticalConvEngine shared(cfg);
    const nn::Tensor out_a1 =
        shared.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);
    const nn::Tensor out_b =
        shared.conv2d(b.input, b.weights, b.bias, kLayerB.s, kLayerB.p);
    const nn::Tensor out_a2 =
        shared.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);

    OpticalConvEngine fresh_a(cfg);
    const nn::Tensor want_a =
        fresh_a.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);
    OpticalConvEngine fresh_b(cfg);
    const nn::Tensor want_b =
        fresh_b.conv2d(b.input, b.weights, b.bias, kLayerB.s, kLayerB.p);

    EXPECT_TRUE(want_a == out_a1) << "threads=" << threads;
    EXPECT_TRUE(want_b == out_b) << "threads=" << threads;
    EXPECT_TRUE(want_a == out_a2)
        << "threads=" << threads << " (same layer twice through one engine)";
  }
}

TEST(EngineScratchReuse, PerChannelAllocationAcrossLayers) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.allocation = RingAllocation::kPerChannel;
  cfg.engine_threads = 4;

  const LayerData a = make_data(kLayerA);
  const LayerData b = make_data(kLayerB, 7);

  OpticalConvEngine shared(cfg);
  const nn::Tensor out_a =
      shared.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);
  const nn::Tensor out_b =
      shared.conv2d(b.input, b.weights, b.bias, kLayerB.s, kLayerB.p);

  OpticalConvEngine fresh_a(cfg), fresh_b(cfg);
  EXPECT_TRUE(out_a ==
              fresh_a.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p));
  EXPECT_TRUE(out_b ==
              fresh_b.conv2d(b.input, b.weights, b.bias, kLayerB.s, kLayerB.p));
}

// A threaded noisy conv must give the sequential one's bits under both
// ring allocations, and a second call under the same key must repeat them:
// nothing a call draws carries over to the next.
TEST(EngineScratchReuse, NoiseUnperturbedByThreads) {
  const LayerData a = make_data(kLayerA);
  for (RingAllocation allocation :
       {RingAllocation::kFullKernel, RingAllocation::kPerChannel}) {
    SCOPED_TRACE(core::ring_allocation_name(allocation));
    PcnnaConfig seq = PcnnaConfig::paper_defaults();
    seq.allocation = allocation;
    PcnnaConfig par = seq;
    par.engine_threads = 4;
    OpticalConvEngine sequential(seq);
    OpticalConvEngine threaded(par);

    const nn::Tensor s1 =
        sequential.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);
    const nn::Tensor t1 =
        threaded.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);
    const nn::Tensor s2 =
        sequential.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);
    const nn::Tensor t2 =
        threaded.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);

    EXPECT_TRUE(s1 == t1);
    EXPECT_TRUE(s1 == s2); // same key, same noise
    EXPECT_TRUE(t1 == t2);
  }
}

// BatchRunnerOptions::engine_threads threads intra-image parallelism
// through the serving fleet; served outputs must stay bit-identical to the
// single-threaded fleet.
TEST(EngineScratchReuse, BatchRunnerEngineThreadsBitIdentical) {
  const nn::Network net = nn::tiny_cnn();
  Rng rng(19);
  const nn::NetWeights weights = nn::make_network_weights(net, rng);
  std::vector<nn::Tensor> inputs;
  for (std::size_t i = 0; i < 3; ++i)
    inputs.push_back(nn::make_network_input(net, rng));

  runtime::BatchRunnerOptions base;
  base.num_pcus = 2;
  base.seed = 3;
  runtime::BatchRunner plain(PcnnaConfig::paper_defaults(), net, weights,
                             base);
  const auto expected = plain.run(inputs);

  runtime::BatchRunnerOptions threaded = base;
  threaded.engine_threads = 2;
  runtime::BatchRunner fleet(PcnnaConfig::paper_defaults(), net, weights,
                             threaded);
  const auto got = fleet.run(inputs);

  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_TRUE(expected[i].output == got[i].output) << "request " << i;
}

// --- the chip stream ---------------------------------------------------------
// Every bank is a fixed position on a chip fabricated from the config seed:
// ring r of position b draws its resonance offset and its stuck flag from
// b's own streams, so both are pure functions of (seed, b, r).

PcnnaConfig faulty_chip() {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.bank.ring.fab_sigma = 0.05e-9;
  cfg.stuck_ring_rate = 0.3;
  return cfg;
}

// Ring r draws the r-th normal of its position's disorder stream (its stuck
// stream is pinned by EngineRngContract.InjectStuckFaultsDrawOrderPinned).
TEST(ChipStream, RingDrawsArePinnedToItsPositionsStreams) {
  const PcnnaConfig cfg = faulty_chip();
  const std::size_t channels = 9;
  for (std::uint64_t position : {0ull, 7ull, 1000ull}) {
    const phot::WdmGrid grid(channels);
    Rng sizing;
    phot::WeightBank bank(grid, cfg.bank, sizing);
    core::fabricate_bank(cfg, position, grid, bank);

    Rng replica = core::bank_fab(cfg.seed, position).disorder;
    for (std::size_t r = 0; r < channels; ++r) {
      const double offset = replica.normal(0.0, cfg.bank.ring.fab_sigma);
      EXPECT_EQ(grid.wavelength(r) - 4.0 * cfg.bank.ring.fab_sigma + offset,
                bank.ring(r).natural_resonance())
          << "position " << position << " ring " << r;
    }
  }
}

// A ring is the same ring at every bank width, whatever was fabricated
// before it and whatever the bank held: refabricating resets it. Another
// seed or another position is another ring.
TEST(ChipStream, RingIsTheSameAtEveryWidthAndBuildOrder) {
  const PcnnaConfig cfg = faulty_chip();
  const auto build = [&](std::uint64_t seed, std::uint64_t position,
                         std::size_t width, phot::WeightBank& bank) {
    PcnnaConfig c = cfg;
    c.seed = seed;
    core::fabricate_bank(c, position, phot::WdmGrid(width), bank);
  };
  Rng sizing;
  phot::WeightBank wide(phot::WdmGrid(24), cfg.bank, sizing);
  phot::WeightBank reused(phot::WdmGrid(24), cfg.bank, sizing);
  for (std::uint64_t position : {0ull, 3ull, 41ull}) {
    build(cfg.seed, position, 24, wide);
    for (std::size_t width : {1u, 5u, 9u, 24u}) {
      // Dirty the reused bank with another position and a tuning first.
      build(cfg.seed, position + 1, 24, reused);
      reused.tune(std::vector<double>(24, 0.5));
      build(cfg.seed, position, width, reused);
      ASSERT_EQ(width, reused.channels());
      for (std::size_t r = 0; r < width; ++r) {
        EXPECT_EQ(wide.ring(r).natural_resonance(),
                  reused.ring(r).natural_resonance())
            << "position " << position << " width " << width << " ring " << r;
        EXPECT_EQ(wide.ring(r).stuck(), reused.ring(r).stuck())
            << "position " << position << " width " << width << " ring " << r;
      }
    }
  }
  phot::WeightBank other(phot::WdmGrid(24), cfg.bank, sizing);
  build(cfg.seed, 0, 24, wide);
  build(cfg.seed + 1, 0, 24, other);
  EXPECT_NE(wide.ring(0).natural_resonance(), other.ring(0).natural_resonance());
  build(cfg.seed, 1, 24, other);
  EXPECT_NE(wide.ring(0).natural_resonance(), other.ring(0).natural_resonance());
}

// The usable-range probe is the chip's probe bank: built from its disorder
// stream alone (never stuck, even when every layer ring is), and the same
// value however many layers ran before it.
TEST(ChipStream, ProbeBankIsPristineAndFixedBySeed) {
  PcnnaConfig cfg = faulty_chip();
  cfg.stuck_ring_rate = 1.0;
  const std::size_t channels = 7;
  Rng disorder = core::bank_fab(cfg.seed, core::kProbeBank).disorder;
  const double manual = core::measured_usable_range(cfg, channels, disorder);
  const double probed = core::measured_usable_range(cfg, channels);
  EXPECT_GT(probed, 0.0);
  EXPECT_EQ(manual, probed);

  PcnnaConfig reseeded = cfg;
  reseeded.seed = cfg.seed + 1;
  EXPECT_NE(probed, core::measured_usable_range(reseeded, channels));

  const LayerData d = make_data(kLayerA);
  OpticalConvEngine engine(cfg);
  engine.conv2d(d.input, d.weights, d.bias, kLayerA.s, kLayerA.p);
  EXPECT_EQ(probed, core::measured_usable_range(cfg, channels));
}

// Inside the engine, bank g * K + k of every layer is that chip position,
// under both allocations: its stuck rings are the ones fabricate_bank
// freezes there, the program statistics are the same at every thread count
// and request seed, and with noise off a layer draws no noise.
TEST(ChipStream, EngineBanksAreTheSameAcrossLayersThreadsAndRequestSeeds) {
  const nn::ConvLayerParams layers[] = {
      kLayerA, kLayerB, {"wide", 7, 5, 0, 1, 6, 6}};
  for (RingAllocation allocation :
       {RingAllocation::kFullKernel, RingAllocation::kPerChannel}) {
    PcnnaConfig cfg = faulty_chip();
    cfg.stuck_ring_rate = 0.05;
    cfg.max_wavelengths = 24;
    cfg.allocation = allocation;
    for (const nn::ConvLayerParams& layer : layers) {
      SCOPED_TRACE(::testing::Message()
                   << layer.name << " " << core::ring_allocation_name(allocation));
      const core::LayerPlan plan = core::Scheduler(cfg).plan(layer);
      std::size_t expected_stuck = 0;
      Rng sizing;
      phot::WeightBank bank(phot::WdmGrid(plan.group_size), cfg.bank, sizing);
      for (std::size_t b = 0; b < plan.groups.size() * layer.K; ++b)
        expected_stuck += core::fabricate_bank(
            cfg, b, phot::WdmGrid(plan.groups[b / layer.K].size()), bank);

      const LayerData d = make_data(layer);
      PcnnaConfig quiet = cfg;
      quiet.enable_noise = false;
      OpticalConvEngine silent(quiet);
      EngineStats first;
      silent.conv2d(d.input, d.weights, d.bias, layer.s, layer.p, &first);
      EXPECT_EQ(0u, first.noise_draws);
      EXPECT_EQ(expected_stuck, first.stuck_rings);
      EXPECT_EQ(plan.groups.size() * layer.K, first.banks_built);

      nn::Tensor seed_one;
      for (std::size_t threads : {1u, 4u}) {
        for (std::uint64_t seed : {1ull, 99ull}) {
          PcnnaConfig noisy = cfg;
          noisy.engine_threads = threads;
          OpticalConvEngine engine(noisy);
          engine.reseed_rng(seed);
          EngineStats st;
          const nn::Tensor out =
              engine.conv2d(d.input, d.weights, d.bias, layer.s, layer.p, &st);
          EXPECT_EQ(first.stuck_rings, st.stuck_rings);
          EXPECT_EQ(first.banks_built, st.banks_built);
          EXPECT_EQ(first.total_heater_power, st.total_heater_power);
          EXPECT_EQ(first.total_ring_area, st.total_ring_area);
          EXPECT_EQ(first.mean_calibration_error, st.mean_calibration_error);
          EXPECT_EQ(first.max_calibration_error, st.max_calibration_error);
          if (seed == 1) {
            if (seed_one.empty()) seed_one = out;
            EXPECT_TRUE(seed_one == out) << "threads=" << threads;
          } else {
            EXPECT_FALSE(seed_one == out) << "noise follows the request seed";
          }
        }
      }
    }
  }
}

// --- pinned RNG draw-order contracts ---------------------------------------
// Stuck-fault injection (fabricate_bank's second stage): exactly one uniform
// per ring from the position's stuck stream, ascending ring index,
// regardless of outcome. A manual replica of that stream must reproduce the
// stuck pattern and the count.
TEST(EngineRngContract, InjectStuckFaultsDrawOrderPinned) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.stuck_ring_rate = 0.4;
  const std::size_t channels = 9;
  const phot::WdmGrid grid(channels);

  std::size_t total_stuck = 0;
  for (std::uint64_t position : {0ull, 7ull, 1000ull}) {
    Rng sizing;
    phot::WeightBank bank(grid, cfg.bank, sizing);
    const std::size_t stuck = core::fabricate_bank(cfg, position, grid, bank);

    Rng replica = core::bank_fab(cfg.seed, position).stuck;
    std::size_t expected_stuck = 0;
    for (std::size_t r = 0; r < channels; ++r) {
      const bool want = replica.uniform() < cfg.stuck_ring_rate;
      if (want) ++expected_stuck;
      EXPECT_EQ(want, bank.ring(r).stuck())
          << "position " << position << " ring " << r;
    }
    EXPECT_EQ(expected_stuck, stuck);
    EXPECT_EQ(expected_stuck, bank.stuck_rings());
    total_stuck += stuck;
  }
  EXPECT_GT(total_stuck, 0u);
}

// At a zero rate injection freezes nothing: every ring is exactly the one
// the position's disorder stream built.
TEST(EngineRngContract, InjectStuckFaultsZeroRateDrawsNothing) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.bank.ring.fab_sigma = 0.05e-9;
  cfg.stuck_ring_rate = 0.0;
  const phot::WdmGrid grid(4);
  Rng sizing;
  phot::WeightBank bank(grid, cfg.bank, sizing);
  EXPECT_EQ(0u, core::fabricate_bank(cfg, 0, grid, bank));
  EXPECT_EQ(0u, bank.stuck_rings());

  Rng disorder = core::bank_fab(cfg.seed, 0).disorder;
  const phot::WeightBank pristine(grid, cfg.bank, disorder);
  for (std::size_t r = 0; r < grid.channels(); ++r) {
    EXPECT_FALSE(bank.ring(r).stuck()) << "ring " << r;
    EXPECT_EQ(pristine.ring(r).natural_resonance(),
              bank.ring(r).natural_resonance())
        << "ring " << r;
  }
}

// measured_usable_range: consumes exactly the fabrication draws of one
// bank construction (one normal per ring when fab_sigma > 0); the probe
// calibrations draw nothing.
TEST(EngineRngContract, MeasuredUsableRangeDrawOrderPinned) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.bank.ring.fab_sigma = 0.05e-9; // enable fabrication disorder draws
  const std::size_t channels = 7;

  Rng draw(21);
  Rng replica = draw;
  const double usable = core::measured_usable_range(cfg, channels, draw);
  EXPECT_GT(usable, 0.0);

  // Replica: construct the same bank (fab draws only), no calibration.
  phot::WeightBank bank(phot::WdmGrid(channels), cfg.bank, replica);
  EXPECT_EQ(replica.next_u64(), draw.next_u64());
}

TEST(EngineRngContract, MeasuredUsableRangeZeroFabSigmaDrawsNothing) {
  PcnnaConfig cfg = PcnnaConfig::ideal(); // fab_sigma = 0
  ASSERT_EQ(0.0, cfg.bank.ring.fab_sigma);
  Rng draw(33);
  Rng replica = draw;
  core::measured_usable_range(cfg, 5, draw);
  EXPECT_EQ(replica.next_u64(), draw.next_u64());
}

} // namespace
