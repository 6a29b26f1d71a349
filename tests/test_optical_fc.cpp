// Photonic fully-connected layers (broadcast-and-weight's original use).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "core/optical_conv_engine.hpp"
#include "nn/conv_ref.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"

namespace {

using namespace pcnna;
using core::EngineStats;
using core::OpticalConvEngine;
using core::PcnnaConfig;
using nn::Shape4;
using nn::Tensor;

struct FcData {
  Tensor input, weights, bias;
};

FcData make_fc(std::size_t in, std::size_t out, std::uint64_t seed = 21) {
  Rng rng(seed);
  FcData d;
  d.input = Tensor(Shape4{1, in, 1, 1});
  nn::fill_uniform(d.input, rng, 0.0, 1.0);
  d.weights = Tensor(Shape4{out, in, 1, 1});
  nn::fill_gaussian(d.weights, rng, 0.0, std::sqrt(2.0 / static_cast<double>(in)));
  d.bias = Tensor(Shape4{1, out, 1, 1});
  nn::fill_uniform(d.bias, rng, -0.05, 0.05);
  return d;
}

TEST(OpticalFc, IdealMatchesGolden) {
  OpticalConvEngine engine(PcnnaConfig::ideal());
  const FcData d = make_fc(37, 11);
  const Tensor out = engine.fully_connected(d.input, d.weights, d.bias);
  const Tensor ref = nn::fully_connected(d.input, d.weights, d.bias);
  EXPECT_LT(nn::max_abs_diff(out, ref), 1e-6);
}

TEST(OpticalFc, WdmSegmentationOverWideInputs) {
  PcnnaConfig cfg = PcnnaConfig::ideal();
  cfg.max_wavelengths = 16;
  OpticalConvEngine engine(cfg);
  const FcData d = make_fc(100, 8); // 7 passes of <=16 channels
  EngineStats stats;
  const Tensor out = engine.fully_connected(d.input, d.weights, d.bias, &stats);
  const Tensor ref = nn::fully_connected(d.input, d.weights, d.bias);
  EXPECT_LT(nn::max_abs_diff(out, ref), 1e-6);
  EXPECT_EQ(7u, stats.optical_passes);
  EXPECT_EQ(16u, stats.wavelengths_used);
  EXPECT_EQ(8u, stats.adc_conversions);
  EXPECT_EQ(100u * 8u, stats.weight_dac_conversions);
}

TEST(OpticalFc, PaperDefaultsBoundedError) {
  OpticalConvEngine engine(PcnnaConfig::paper_defaults());
  const FcData d = make_fc(64, 16);
  const Tensor out = engine.fully_connected(d.input, d.weights, d.bias);
  const Tensor ref = nn::fully_connected(d.input, d.weights, d.bias);
  EXPECT_LT(nn::max_abs_diff(out, ref), 0.2 * ref.abs_max());
}

TEST(OpticalFc, RejectsNegativeInputsAndBadShapes) {
  OpticalConvEngine engine(PcnnaConfig::ideal());
  FcData d = make_fc(8, 4);
  d.input[0] = -0.1;
  EXPECT_THROW(engine.fully_connected(d.input, d.weights, d.bias), Error);
  const FcData ok = make_fc(8, 4);
  Tensor bad_w(Shape4{4, 9, 1, 1});
  EXPECT_THROW(engine.fully_connected(ok.input, bad_w, {}), Error);
}

// All-zero weights yield the bias and draw nothing, although a nonzero
// layer under this config draws for the usable-range probe, every bank's
// fabrication and every slice's laser and photodiode noise.
TEST(OpticalFc, ZeroWeightsYieldBias) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.bank.ring.fab_sigma = 0.05e-9;
  OpticalConvEngine engine(cfg);
  FcData d = make_fc(8, 4);
  d.weights.fill(0.0);
  const Rng::State before = engine.rng_state();
  const Tensor out = engine.fully_connected(d.input, d.weights, d.bias);
  const Rng::State after = engine.rng_state();
  for (std::size_t w = 0; w < 4; ++w)
    EXPECT_EQ(before.s[w], after.s[w]) << "word " << w;
  EXPECT_EQ(before.have_cached_normal, after.have_cached_normal);
  for (std::size_t o = 0; o < 4; ++o) EXPECT_DOUBLE_EQ(d.bias[o], out[o]);
}

TEST(OpticalFc, AcceleratorOffloadsFcWhenEnabled) {
  PcnnaConfig cfg = PcnnaConfig::ideal();
  cfg.accelerate_fc = true;
  core::Accelerator acc(cfg);
  Rng rng(31);
  const nn::Network net = nn::tiny_cnn();
  const auto weights = nn::make_network_weights(net, rng);
  const auto input = nn::make_network_input(net, rng);
  const auto report = acc.run(net, weights, input);
  ASSERT_EQ(1u, report.fc_layers.size()); // tiny_cnn has one FC
  EXPECT_LT(report.fc_layers[0].max_abs_err_vs_reference, 1e-6);
  EXPECT_LT(report.output_max_abs_err, 1e-6);
  EXPECT_GT(report.fc_layers[0].timing.full_system_time, 0.0);
  EXPECT_GT(report.fc_layers[0].energy.total(), 0.0);
}

TEST(OpticalFc, AcceleratorKeepsFcOnCpuByDefault) {
  core::Accelerator acc(PcnnaConfig::ideal());
  Rng rng(32);
  const nn::Network net = nn::tiny_cnn();
  const auto weights = nn::make_network_weights(net, rng);
  const auto input = nn::make_network_input(net, rng);
  const auto report = acc.run(net, weights, input);
  EXPECT_TRUE(report.fc_layers.empty());
}

TEST(OpticalFc, LenetEndToEndFullyPhotonic) {
  // Every MAC of the network — conv and FC — through the optical core.
  PcnnaConfig cfg = PcnnaConfig::ideal();
  cfg.accelerate_fc = true;
  core::Accelerator acc(cfg);
  Rng rng(33);
  const nn::Network net = nn::lenet5();
  const auto weights = nn::make_network_weights(net, rng);
  const auto input = nn::make_network_input(net, rng);
  const auto report = acc.run(net, weights, input);
  ASSERT_EQ(2u, report.fc_layers.size());
  EXPECT_TRUE(report.argmax_match);
  EXPECT_LT(report.output_max_abs_err, 1e-6);
}

} // namespace
