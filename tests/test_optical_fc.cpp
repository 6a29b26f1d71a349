// Photonic fully-connected layers (broadcast-and-weight's original use).
// The engine runs an FC layer as the 1x1 conv it is priced as: conv2d on
// its input as a [1, in, 1, 1] map with weights [out, in, 1, 1].
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "core/optical_conv_engine.hpp"
#include "nn/conv_ref.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/batch_runner.hpp"

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
  const Tensor out = engine.conv2d(d.input, d.weights, d.bias, 1, 0);
  const Tensor ref = nn::fully_connected(d.input, d.weights, d.bias);
  EXPECT_LT(nn::max_abs_diff(out, ref), 1e-6);
}

TEST(OpticalFc, WdmSegmentationOverWideInputs) {
  PcnnaConfig cfg = PcnnaConfig::ideal();
  cfg.max_wavelengths = 16;
  OpticalConvEngine engine(cfg);
  const FcData d = make_fc(100, 8); // 7 passes of <=16 channels
  EngineStats stats;
  const Tensor out = engine.conv2d(d.input, d.weights, d.bias, 1, 0, &stats);
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
  const Tensor out = engine.conv2d(d.input, d.weights, d.bias, 1, 0);
  const Tensor ref = nn::fully_connected(d.input, d.weights, d.bias);
  EXPECT_LT(nn::max_abs_diff(out, ref), 0.2 * ref.abs_max());
}

TEST(OpticalFc, RejectsNegativeInputsAndBadShapes) {
  OpticalConvEngine engine(PcnnaConfig::ideal());
  FcData d = make_fc(8, 4);
  d.input[0] = -0.1;
  EXPECT_THROW(engine.conv2d(d.input, d.weights, d.bias, 1, 0), Error);
  const FcData ok = make_fc(8, 4);
  Tensor bad_w(Shape4{4, 9, 1, 1});
  EXPECT_THROW(engine.conv2d(ok.input, bad_w, {}, 1, 0), Error);
}

// All-zero weights yield the bias and build no bank, although a nonzero
// layer under this config probes the usable range, fabricates every bank
// and draws every slice's laser and photodiode noise.
TEST(OpticalFc, ZeroWeightsYieldBias) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.bank.ring.fab_sigma = 0.05e-9;
  OpticalConvEngine engine(cfg);
  FcData d = make_fc(8, 4);
  d.weights.fill(0.0);
  EngineStats stats;
  const Tensor out = engine.conv2d(d.input, d.weights, d.bias, 1, 0, &stats);
  EXPECT_EQ(0u, stats.banks_built);
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

// A noisy offloaded FC layer draws like any conv call and counts its draws:
// one laser RIN draw per input and one photodiode draw per branch, output
// and 96-channel group, in + 2 * out * G.
TEST(OpticalFc, NoisyFcCountsItsDraws) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.accelerate_fc = true;
  core::Accelerator acc(cfg);
  Rng rng(35);
  const nn::Network net = nn::lenet5();
  const auto weights = nn::make_network_weights(net, rng);
  const auto input = nn::make_network_input(net, rng);
  const auto report = acc.run(net, weights, input, /*simulate_values=*/true,
                              /*compare_reference=*/false);
  ASSERT_EQ(2u, report.fc_layers.size());
  EXPECT_EQ(120u + 2u * 84u * 2u, report.fc_layers[0].engine.noise_draws);
  EXPECT_EQ(84u + 2u * 10u * 1u, report.fc_layers[1].engine.noise_draws);
}

// Under the per-channel allocation an FC layer runs as TimingModel prices
// it, in passes of one ring per output: its EngineStats match its plan.
TEST(OpticalFc, PerChannelFcStatsMatchItsPlan) {
  PcnnaConfig cfg = PcnnaConfig::small_core();
  cfg.accelerate_fc = true;
  core::Accelerator acc(cfg);
  Rng rng(36);
  const nn::Network net = nn::lenet5();
  const auto weights = nn::make_network_weights(net, rng);
  const auto input = nn::make_network_input(net, rng);
  const auto report = acc.run(net, weights, input, /*simulate_values=*/true,
                              /*compare_reference=*/false);
  ASSERT_EQ(2u, report.fc_layers.size());
  const core::Scheduler scheduler(cfg);
  std::size_t fc = 0;
  for (std::size_t i = 0; i < net.ops().size(); ++i) {
    if (net.ops()[i].kind != nn::OpKind::kFullyConnected) continue;
    SCOPED_TRACE(::testing::Message() << "op " << i);
    const core::LayerPlan plan =
        scheduler.plan(*core::offloaded_layer(cfg, net, i));
    const EngineStats& stats = report.fc_layers[fc++].engine;
    EXPECT_EQ(plan.recalibrations, stats.recalibrations);
    EXPECT_EQ(plan.rings_total, stats.rings_used);
    EXPECT_EQ(plan.adc_conversions, stats.adc_conversions);
  }
  // 120 -> 84: one pass per input, one ring per output.
  const EngineStats& first = report.fc_layers[0].engine;
  EXPECT_EQ(120u, first.recalibrations);
  EXPECT_EQ(84u, first.rings_used);
  EXPECT_EQ(120u * 84u, first.adc_conversions);
}

// Serving prices exactly the layers the Accelerator offloads: under
// accelerate_fc the FC layers too. The serving constants used to collect
// conv ops only, so on this LeNet-5 fleet run_open_loop reported 4.3462 mJ
// and simulate_open_loop 3.5379 mJ for the same arrivals, and a request
// cost 44.75 us serial in the admission loop but 66.70 us in
// Accelerator::run.
TEST(OpticalFc, ServingPricesTheOffloadedLayers) {
  for (const bool accelerate_fc : {false, true}) {
    SCOPED_TRACE(accelerate_fc ? "accelerate_fc" : "conv only");
    PcnnaConfig cfg = PcnnaConfig::paper_defaults();
    cfg.accelerate_fc = accelerate_fc;
    Rng rng(34);
    const nn::Network net = nn::lenet5();
    const nn::NetWeights weights = nn::make_network_weights(net, rng);
    std::vector<Tensor> inputs;
    for (int i = 0; i < 4; ++i)
      inputs.push_back(nn::make_network_input(net, rng));
    runtime::BatchRunnerOptions options;
    options.num_pcus = 2;
    options.simulate_values = false;
    runtime::BatchRunner runner(cfg, net, weights, options);
    const runtime::ArrivalSchedule arrivals =
        runtime::uniform_arrivals(inputs.size(), 2.0e4);

    runtime::OpenLoopReport served;
    runner.run_open_loop(inputs, arrivals, &served);
    const runtime::OpenLoopReport simulated =
        runner.simulate_open_loop(arrivals);
    EXPECT_EQ(served.total_energy, simulated.total_energy);

    core::Accelerator acc(cfg, options.fidelity);
    const core::NetworkRunReport run =
        acc.run(net, weights, inputs[0], /*simulate_values=*/false,
                /*compare_reference=*/false);
    EXPECT_EQ(accelerate_fc ? 2u : 0u, run.fc_layers.size());
    EXPECT_EQ(run.total_full_system_time,
              runner.pool().pcu(0).request_time_serial());
  }
}

} // namespace
