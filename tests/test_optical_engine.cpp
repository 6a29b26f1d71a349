// Functional optical convolution engine vs the golden CPU reference.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "core/optical_conv_engine.hpp"
#include "nn/conv_ref.hpp"
#include "nn/synth.hpp"

namespace {

using namespace pcnna;
using core::EngineStats;
using core::OpticalConvEngine;
using core::PcnnaConfig;
using core::RingAllocation;
using nn::Shape4;
using nn::Tensor;

struct LayerData {
  Tensor input, weights, bias;
  nn::ConvLayerParams params;
};

LayerData make_layer(nn::ConvLayerParams params, std::uint64_t seed = 7) {
  Rng rng(seed);
  LayerData d;
  d.params = params;
  d.input = nn::make_input(params, rng);
  d.weights = nn::make_conv_weights(params, rng);
  d.bias = nn::make_conv_bias(params, rng);
  return d;
}

TEST(Engine, IdealConfigMatchesGoldenToMachinePrecision) {
  OpticalConvEngine engine(PcnnaConfig::ideal());
  const auto d = make_layer({"t", 8, 3, 1, 1, 2, 4});
  const Tensor out = engine.conv2d(d.input, d.weights, d.bias, 1, 1);
  const Tensor ref = nn::conv2d_direct(d.input, d.weights, d.bias, 1, 1);
  EXPECT_LT(nn::max_abs_diff(out, ref), 1e-7);
}

TEST(Engine, IdealConfigHandlesStrideAndPadding) {
  OpticalConvEngine engine(PcnnaConfig::ideal());
  const auto d = make_layer({"t", 9, 5, 2, 2, 3, 2});
  const Tensor out = engine.conv2d(d.input, d.weights, d.bias, 2, 2);
  const Tensor ref = nn::conv2d_direct(d.input, d.weights, d.bias, 2, 2);
  EXPECT_EQ(ref.shape(), out.shape());
  EXPECT_LT(nn::max_abs_diff(out, ref), 1e-7);
}

TEST(Engine, WdmSegmentationPreservesResult) {
  // Force multiple bank passes per location: Nkernel = 2*3*3 = 18 > 5.
  PcnnaConfig cfg = PcnnaConfig::ideal();
  cfg.max_wavelengths = 5;
  OpticalConvEngine engine(cfg);
  const auto d = make_layer({"t", 8, 3, 1, 1, 2, 3});
  EngineStats stats;
  const Tensor out = engine.conv2d(d.input, d.weights, d.bias, 1, 1, &stats);
  const Tensor ref = nn::conv2d_direct(d.input, d.weights, d.bias, 1, 1);
  EXPECT_LT(nn::max_abs_diff(out, ref), 1e-7);
  EXPECT_EQ(5u, stats.wavelengths_used);
  // ceil(18/5) = 4 passes per location, 64 locations.
  EXPECT_EQ(4u * 64u, stats.optical_passes);
}

TEST(Engine, PerChannelAllocationMatchesGoldenUnderIdealConfig) {
  PcnnaConfig cfg = PcnnaConfig::ideal();
  cfg.allocation = core::RingAllocation::kPerChannel;
  OpticalConvEngine engine(cfg);
  const auto d = make_layer({"t", 6, 3, 1, 1, 3, 2});
  EngineStats stats;
  const Tensor out = engine.conv2d(d.input, d.weights, d.bias, 1, 1, &stats);
  const Tensor ref = nn::conv2d_direct(d.input, d.weights, d.bias, 1, 1);
  EXPECT_LT(nn::max_abs_diff(out, ref), 1e-6);
  EXPECT_EQ(3u, stats.recalibrations);
  EXPECT_EQ(2u * 9u, stats.rings_used); // K * m * m
}

TEST(Engine, PaperDefaultsStayWithinAnalogErrorBudget) {
  OpticalConvEngine engine(PcnnaConfig::paper_defaults());
  const auto d = make_layer({"t", 8, 3, 1, 1, 2, 4});
  const Tensor out = engine.conv2d(d.input, d.weights, d.bias, 1, 1);
  const Tensor ref = nn::conv2d_direct(d.input, d.weights, d.bias, 1, 1);
  // 8-bit ADC + 5 GHz detection noise: relative to the output swing the
  // error stays in the few-percent band.
  const double swing = ref.abs_max();
  EXPECT_LT(nn::max_abs_diff(out, ref), 0.15 * swing);
  EXPECT_GT(nn::max_abs_diff(out, ref), 0.0); // noise actually applied
}

TEST(Engine, NoiseFreeQuantizedConfigErrorBoundedByAdc) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.enable_noise = false;
  OpticalConvEngine engine(cfg);
  const auto d = make_layer({"t", 8, 3, 1, 1, 2, 4});
  EngineStats stats;
  const Tensor out = engine.conv2d(d.input, d.weights, d.bias, 1, 1, &stats);
  const Tensor ref = nn::conv2d_direct(d.input, d.weights, d.bias, 1, 1);
  // Deterministic: dominated by ADC LSB (fs = headroom*sqrt(18)) plus
  // calibration residuals.
  const double n_kernel = 18.0;
  const double adc_fs = cfg.adc_headroom * std::sqrt(n_kernel);
  const double adc_lsb = 2.0 * adc_fs / 255.0;
  const double scale = d.weights.abs_max() * d.input.abs_max();
  EXPECT_LT(nn::max_abs_diff(out, ref),
            (adc_lsb + 0.05) * scale * 3.0);
}

TEST(Engine, DeterministicForSameSeed) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.seed = 99;
  const auto d = make_layer({"t", 8, 3, 1, 1, 2, 4});
  OpticalConvEngine a(cfg), b(cfg);
  const Tensor out_a = a.conv2d(d.input, d.weights, d.bias, 1, 1);
  const Tensor out_b = b.conv2d(d.input, d.weights, d.bias, 1, 1);
  EXPECT_EQ(out_a, out_b);
}

TEST(Engine, ResetRngReproducesRun) {
  OpticalConvEngine engine(PcnnaConfig::paper_defaults());
  const auto d = make_layer({"t", 8, 3, 1, 1, 2, 4});
  const Tensor first = engine.conv2d(d.input, d.weights, d.bias, 1, 1);
  engine.reset_rng();
  const Tensor second = engine.conv2d(d.input, d.weights, d.bias, 1, 1);
  EXPECT_EQ(first, second);
}

TEST(Engine, RejectsNegativeInputs) {
  OpticalConvEngine engine(PcnnaConfig::ideal());
  auto d = make_layer({"t", 8, 3, 1, 1, 2, 4});
  d.input[0] = -0.5;
  EXPECT_THROW(engine.conv2d(d.input, d.weights, d.bias, 1, 1), Error);
}

TEST(Engine, RejectsNonSquareInput) {
  OpticalConvEngine engine(PcnnaConfig::ideal());
  Tensor input(Shape4{1, 1, 4, 5});
  Tensor weights(Shape4{1, 1, 3, 3});
  EXPECT_THROW(engine.conv2d(input, weights, {}, 1, 0), Error);
}

// Under this config a nonzero layer draws at every step: the usable-range
// probe and bank fabrication (disorder), fault injection, and the sweep
// (noise). A call that leaves its generator unchanged skipped them all.
PcnnaConfig drawing_config(RingAllocation allocation) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.bank.ring.fab_sigma = 0.05e-9;
  cfg.stuck_ring_rate = 0.05;
  cfg.allocation = allocation;
  return cfg;
}

void expect_rng_unchanged(const Rng::State& before,
                          const OpticalConvEngine& engine) {
  const Rng::State after = engine.rng_state();
  for (std::size_t w = 0; w < 4; ++w)
    EXPECT_EQ(before.s[w], after.s[w]) << "word " << w;
  EXPECT_EQ(before.have_cached_normal, after.have_cached_normal);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(before.cached_normal),
            std::bit_cast<std::uint64_t>(after.cached_normal));
}

// A layer with all-zero weights or inputs outputs its bias alone and draws
// nothing, under either allocation.
TEST(Engine, ZeroWeightsYieldBiasOnly) {
  for (RingAllocation allocation :
       {RingAllocation::kFullKernel, RingAllocation::kPerChannel}) {
    OpticalConvEngine engine(drawing_config(allocation));
    auto d = make_layer({"t", 6, 3, 0, 1, 1, 2});
    d.weights.fill(0.0);
    const Rng::State before = engine.rng_state();
    const Tensor out = engine.conv2d(d.input, d.weights, d.bias, 1, 0);
    expect_rng_unchanged(before, engine);
    for (std::size_t k = 0; k < 2; ++k)
      for (std::size_t i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(d.bias.at(0, k, 0, 0), out[k * 16 + i])
            << core::ring_allocation_name(allocation);
  }
}

TEST(Engine, ZeroInputsYieldBiasOnly) {
  for (RingAllocation allocation :
       {RingAllocation::kFullKernel, RingAllocation::kPerChannel}) {
    OpticalConvEngine engine(drawing_config(allocation));
    auto d = make_layer({"t", 6, 3, 0, 1, 1, 2});
    d.input.fill(0.0);
    const Rng::State before = engine.rng_state();
    const Tensor out = engine.conv2d(d.input, d.weights, d.bias, 1, 0);
    expect_rng_unchanged(before, engine);
    for (std::size_t k = 0; k < 2; ++k)
      for (std::size_t i = 0; i < 16; ++i)
        EXPECT_DOUBLE_EQ(d.bias.at(0, k, 0, 0), out[k * 16 + i])
            << core::ring_allocation_name(allocation);
  }
}

// A bias that is not [1, K, 1, 1] is rejected before the engine reads it,
// under either allocation and on the all-zero-input shortcut, and the
// error names both shapes.
TEST(Engine, RejectsMisshapenBias) {
  const auto d = make_layer({"t", 8, 3, 1, 1, 3, 5});
  const Tensor bias(Shape4{1, 2, 1, 1});
  Tensor zero_input = d.input;
  zero_input.fill(0.0);
  for (RingAllocation allocation :
       {RingAllocation::kFullKernel, RingAllocation::kPerChannel}) {
    OpticalConvEngine engine(drawing_config(allocation));
    EXPECT_THROW(engine.conv2d(d.input, d.weights, bias, 1, 1), Error);
    EXPECT_THROW(engine.conv2d(zero_input, d.weights, bias, 1, 1), Error);
  }
  try {
    OpticalConvEngine(PcnnaConfig::ideal())
        .conv2d(d.input, d.weights, bias, 1, 1);
    FAIL() << "misshapen bias accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(std::string::npos, what.find("[1, 2, 1, 1]")) << what;
    EXPECT_NE(std::string::npos, what.find("[1, 5, 1, 1]")) << what;
  }
}

TEST(Engine, StatsMatchThePlan) {
  PcnnaConfig cfg = PcnnaConfig::ideal();
  cfg.max_wavelengths = 6;
  OpticalConvEngine engine(cfg);
  const auto d = make_layer({"t", 8, 3, 1, 1, 2, 4});
  EngineStats stats;
  engine.conv2d(d.input, d.weights, d.bias, 1, 1, &stats);
  EXPECT_EQ(64u, stats.locations);
  EXPECT_EQ(4u * 18u, stats.rings_used); // K * Nkernel
  EXPECT_EQ(d.params.weight_count(), stats.weight_dac_conversions);
  EXPECT_EQ(64u * 4u, stats.adc_conversions); // locations * K
  EXPECT_EQ(4u * 3u, stats.banks_built);      // K banks x ceil(18/6) groups
  EXPECT_GT(stats.total_ring_area, 0.0);
  EXPECT_LT(stats.mean_calibration_error, 1e-6);
}

TEST(Engine, CrosstalkOnStillTracksGolden) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.enable_noise = false;
  cfg.enable_quantization = false;
  cfg.bank.model_crosstalk = true;
  OpticalConvEngine engine(cfg);
  const auto d = make_layer({"t", 8, 3, 1, 1, 2, 4});
  const Tensor out = engine.conv2d(d.input, d.weights, d.bias, 1, 1);
  const Tensor ref = nn::conv2d_direct(d.input, d.weights, d.bias, 1, 1);
  const double swing = ref.abs_max();
  EXPECT_LT(nn::max_abs_diff(out, ref), 0.05 * swing);
}

TEST(Engine, FabricationDisorderIsCalibratedOut) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.enable_noise = false;
  cfg.enable_quantization = false;
  cfg.bank.ring.fab_sigma = 0.05e-9;
  OpticalConvEngine engine(cfg);
  const auto d = make_layer({"t", 8, 3, 1, 1, 2, 4});
  const Tensor out = engine.conv2d(d.input, d.weights, d.bias, 1, 1);
  const Tensor ref = nn::conv2d_direct(d.input, d.weights, d.bias, 1, 1);
  const double swing = ref.abs_max();
  EXPECT_LT(nn::max_abs_diff(out, ref), 0.06 * swing);
}

} // namespace
