// PR 3 hot-path rewrite: A/B bit-identity against the frozen reference
// engine, scratch-buffer reuse, determinism under intra-image parallelism,
// and the pinned RNG draw-order contracts.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/engine_reference.hpp"
#include "core/optical_conv_engine.hpp"
#include "nn/conv_params.hpp"
#include "nn/conv_ref.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "nn/tensor.hpp"
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
/// Each engine runs the layer twice without a reseed, so the second call
/// also pins the RNG state the first one left behind. kLayerA draws 37
/// normals per noisy pixel, so the uneven tile splits start mid Box–Muller
/// pair.
void expect_ab_identity(PcnnaConfig cfg, const nn::ConvLayerParams& layer,
                        bool signed_input = false) {
  const LayerData d = make_data(layer, 42, signed_input);
  ReferenceConvEngine reference(cfg);
  EngineStats ref_stats[2];
  nn::Tensor expected[2];
  for (int call = 0; call < 2; ++call)
    expected[call] = reference.conv2d(d.input, d.weights, d.bias, layer.s,
                                      layer.p, &ref_stats[call]);

  for (std::size_t threads : {1u, 2u, 3u, 4u, 7u}) {
    PcnnaConfig tcfg = cfg;
    tcfg.engine_threads = threads;
    OpticalConvEngine engine(tcfg);
    for (int call = 0; call < 2; ++call) {
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
// data-dependent; the engine must fall back to the sequential noisy path
// and still match the reference for any requested thread count.
TEST(EngineAbIdentity, ShotOnlyZeroDarkFallsBackSequential) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.bank.photodiode.enable_thermal_noise = false;
  cfg.bank.photodiode.dark_current = 0.0;
  expect_ab_identity(cfg, kLayerA);
}

// Thermal noise into an infinite load with shot noise off: every branch
// sigma is exactly zero, so the photodiodes draw nothing and each pixel
// draws only its laser RIN normals. The threaded sweep must skip ahead by
// that count, not by one draw per branch, and noise_draws must not count
// branch draws that never happen.
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
// must produce outputs bit-identical to a fresh engine per call. The RNG is
// reset between calls (the serving runtime's per-request reseed pattern) so
// the only thing that could differ is stale scratch state.
TEST(EngineScratchReuse, AcrossLayersAndRepeatsBitIdentical) {
  for (std::size_t threads : {1u, 4u}) {
    PcnnaConfig cfg = PcnnaConfig::paper_defaults();
    cfg.engine_threads = threads;

    const LayerData a = make_data(kLayerA);
    const LayerData b = make_data(kLayerB, 7);

    OpticalConvEngine shared(cfg);
    const nn::Tensor out_a1 =
        shared.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);
    shared.reset_rng();
    const nn::Tensor out_b =
        shared.conv2d(b.input, b.weights, b.bias, kLayerB.s, kLayerB.p);
    shared.reset_rng();
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
  shared.reset_rng();
  const nn::Tensor out_b =
      shared.conv2d(b.input, b.weights, b.bias, kLayerB.s, kLayerB.p);

  OpticalConvEngine fresh_a(cfg), fresh_b(cfg);
  EXPECT_TRUE(out_a ==
              fresh_a.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p));
  EXPECT_TRUE(out_b ==
              fresh_b.conv2d(b.input, b.weights, b.bias, kLayerB.s, kLayerB.p));
}

void expect_rng_state_equal(const Rng::State& a, const Rng::State& b) {
  for (std::size_t w = 0; w < 4; ++w) EXPECT_EQ(a.s[w], b.s[w]) << "word " << w;
  EXPECT_EQ(a.have_cached_normal, b.have_cached_normal);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cached_normal),
            std::bit_cast<std::uint64_t>(b.cached_normal));
}

// After a threaded noisy conv, the engine RNG must sit at exactly the same
// state as after a sequential one: the tiles split one stream and the
// engine continues from the last tile's final state. Checked on the state
// itself and by running a second conv afterwards, for both ring
// allocations, starting from the config seed and from a state that holds a
// cached Box–Muller normal (so every tile boundary shifts by one draw).
TEST(EngineScratchReuse, RngStateUnperturbedByThreads) {
  const LayerData a = make_data(kLayerA);
  Rng half_pair(99);
  half_pair.normal();
  const Rng::State cached = half_pair.state();
  ASSERT_TRUE(cached.have_cached_normal);

  for (RingAllocation allocation :
       {RingAllocation::kFullKernel, RingAllocation::kPerChannel}) {
    for (bool start_cached : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "per_channel="
                   << (allocation == RingAllocation::kPerChannel)
                   << " start_cached=" << start_cached);
      PcnnaConfig seq = PcnnaConfig::paper_defaults();
      seq.allocation = allocation;
      PcnnaConfig par = seq;
      par.engine_threads = 4;
      OpticalConvEngine sequential(seq);
      OpticalConvEngine threaded(par);
      if (start_cached) {
        sequential.set_rng_state(cached);
        threaded.set_rng_state(cached);
      }

      const nn::Tensor s1 =
          sequential.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);
      const nn::Tensor t1 =
          threaded.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);
      expect_rng_state_equal(sequential.rng_state(), threaded.rng_state());
      const nn::Tensor s2 =
          sequential.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);
      const nn::Tensor t2 =
          threaded.conv2d(a.input, a.weights, a.bias, kLayerA.s, kLayerA.p);
      expect_rng_state_equal(sequential.rng_state(), threaded.rng_state());

      EXPECT_TRUE(s1 == t1);
      EXPECT_TRUE(s2 == t2); // second conv continues from identical RNG state
      EXPECT_FALSE(s1 == s2); // noise: consecutive runs differ without reseed
    }
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

// --- pinned RNG draw-order contracts ---------------------------------------
// inject_stuck_faults: exactly one uniform per ring, ascending ring index,
// regardless of outcome. A manual replica driven by a second RNG at the
// same seed must reproduce the stuck pattern and leave its generator at the
// identical state.
TEST(EngineRngContract, InjectStuckFaultsDrawOrderPinned) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.stuck_ring_rate = 0.4;
  const std::size_t channels = 9;

  Rng bank_rng(5);
  phot::WeightBank bank(phot::WdmGrid(channels), cfg.bank, bank_rng);

  Rng draw(11);
  Rng replica = draw; // value copy: identical stream
  EngineStats st;
  core::inject_stuck_faults(cfg, bank, draw, st);

  std::size_t expected_stuck = 0;
  for (std::size_t i = 0; i < channels; ++i) {
    const bool stuck = replica.uniform() < cfg.stuck_ring_rate;
    if (stuck) ++expected_stuck;
    EXPECT_EQ(stuck, bank.ring(i).stuck()) << "ring " << i;
  }
  EXPECT_EQ(expected_stuck, st.stuck_rings);
  EXPECT_EQ(expected_stuck, bank.stuck_rings());
  // Both generators consumed exactly `channels` uniforms.
  EXPECT_EQ(replica.next_u64(), draw.next_u64());
}

TEST(EngineRngContract, InjectStuckFaultsZeroRateDrawsNothing) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.stuck_ring_rate = 0.0;
  Rng bank_rng(5);
  phot::WeightBank bank(phot::WdmGrid(4), cfg.bank, bank_rng);
  Rng draw(11);
  Rng replica = draw;
  EngineStats st;
  core::inject_stuck_faults(cfg, bank, draw, st);
  EXPECT_EQ(0u, st.stuck_rings);
  EXPECT_EQ(replica.next_u64(), draw.next_u64());
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
