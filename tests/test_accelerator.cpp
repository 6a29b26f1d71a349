// Full-system accelerator: network runs, fidelity metrics, reports.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "core/throughput.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/batch_runner.hpp"

namespace {

using namespace pcnna;
using core::Accelerator;
using core::PcnnaConfig;
using core::TimingFidelity;

struct NetData {
  nn::Network net;
  nn::NetWeights weights;
  nn::Tensor input;
};

NetData make_tiny(std::uint64_t seed = 11) {
  Rng rng(seed);
  NetData d{nn::tiny_cnn(), {}, {}};
  d.weights = nn::make_network_weights(d.net, rng);
  d.input = nn::make_network_input(d.net, rng);
  return d;
}

TEST(Accelerator, IdealRunMatchesReferenceEndToEnd) {
  Accelerator acc(PcnnaConfig::ideal());
  const NetData d = make_tiny();
  const auto report = acc.run(d.net, d.weights, d.input);
  EXPECT_LT(report.output_max_abs_err, 1e-7);
  EXPECT_TRUE(report.argmax_match);
  ASSERT_EQ(2u, report.conv_layers.size());
  for (const auto& layer : report.conv_layers) {
    EXPECT_LT(layer.max_abs_err_vs_reference, 1e-7) << layer.layer_name;
  }
}

TEST(Accelerator, PaperDefaultsKeepClassificationUsable) {
  Accelerator acc(PcnnaConfig::paper_defaults());
  const NetData d = make_tiny();
  const auto report = acc.run(d.net, d.weights, d.input);
  // Analog noise is bounded; the output distribution stays close.
  EXPECT_LT(report.output_rmse, 0.15);
  EXPECT_GT(report.output_rmse, 0.0);
}

TEST(Accelerator, TimingAndEnergyFilledPerConvLayer) {
  Accelerator acc(PcnnaConfig::paper_defaults());
  const NetData d = make_tiny();
  const auto report = acc.run(d.net, d.weights, d.input);
  for (const auto& layer : report.conv_layers) {
    EXPECT_GT(layer.timing.optical_core_time, 0.0) << layer.layer_name;
    EXPECT_GE(layer.timing.full_system_time, layer.timing.optical_core_time);
    EXPECT_GT(layer.energy.total(), 0.0);
    EXPECT_GT(layer.engine.locations, 0u);
  }
  EXPECT_GT(report.total_full_system_time, 0.0);
  EXPECT_GT(report.total_energy, 0.0);
}

TEST(Accelerator, SimulateValuesFalseSkipsEngineButKeepsTiming) {
  Accelerator acc(PcnnaConfig::paper_defaults());
  const NetData d = make_tiny();
  const auto report = acc.run(d.net, d.weights, d.input,
                              /*simulate_values=*/false);
  // Values equal the reference exactly; timing still modeled.
  EXPECT_DOUBLE_EQ(0.0, report.output_max_abs_err);
  EXPECT_TRUE(report.argmax_match);
  for (const auto& layer : report.conv_layers) {
    EXPECT_GT(layer.timing.full_system_time, 0.0);
    EXPECT_EQ(0u, layer.engine.locations); // engine untouched
  }
}

// A single conv layer is a one-op network: run() with the golden reference
// fills its report's timing, energy and fidelity metrics.
TEST(Accelerator, RunConvSingleLayerReport) {
  Accelerator acc(PcnnaConfig::ideal());
  Rng rng(13);
  nn::ConvLayerParams params{"solo", 8, 3, 1, 1, 2, 4};
  nn::Network net("solo", nn::Shape4{1, 2, 8, 8});
  net.add_conv(params);
  const auto input = nn::make_input(params, rng);
  nn::NetWeights weights;
  weights.weight.push_back(nn::make_conv_weights(params, rng));
  weights.bias.push_back(nn::make_conv_bias(params, rng));
  const auto report = acc.run(net, weights, input);
  ASSERT_EQ(1u, report.conv_layers.size());
  const core::LayerRunReport& layer = report.conv_layers[0];
  EXPECT_EQ(64u, report.output.size() / 4);
  EXPECT_LT(layer.max_abs_err_vs_reference, 1e-7);
  EXPECT_GT(layer.timing.full_system_time, 0.0);
  EXPECT_GT(layer.energy.total(), 0.0);
}

TEST(Accelerator, FidelityChoiceChangesTotals) {
  const NetData d = make_tiny();
  Accelerator paper(PcnnaConfig::paper_defaults(), TimingFidelity::kPaper);
  Accelerator full(PcnnaConfig::paper_defaults(), TimingFidelity::kFull);
  const auto rp = paper.run(d.net, d.weights, d.input, false, false);
  const auto rf = full.run(d.net, d.weights, d.input, false, false);
  EXPECT_GT(rf.total_full_system_time, rp.total_full_system_time);
}

TEST(Accelerator, MismatchedInputThrows) {
  Accelerator acc(PcnnaConfig::ideal());
  const NetData d = make_tiny();
  nn::Tensor bad(nn::Shape4{1, 2, 9, 9});
  EXPECT_THROW(acc.run(d.net, d.weights, bad), Error);
}

// Batch aggregates moved off the deprecated Accelerator::run_batch onto
// runtime::BatchRunner / FleetReport (ROADMAP deprecation plan step 1):
// request_time_serial is the old time_per_image, makespan_sequential the
// old total_time.
TEST(Accelerator, FleetReportBatchScalesLinearly) {
  const NetData d = make_tiny();
  runtime::BatchRunnerOptions options;
  options.num_pcus = 1;
  options.fidelity = TimingFidelity::kPaper;
  options.simulate_values = false;
  options.double_buffer = false;
  runtime::BatchRunner runner(PcnnaConfig::paper_defaults(), d.net, d.weights,
                              options);

  runtime::FleetReport one, many;
  runner.run({d.input}, &one);
  runner.run(std::vector<nn::Tensor>(6, d.input), &many);
  EXPECT_DOUBLE_EQ(one.request_time_serial, many.request_time_serial);
  EXPECT_NEAR(6.0 * one.makespan_sequential, many.makespan_sequential,
              1e-12 * many.makespan_sequential);
  EXPECT_DOUBLE_EQ(one.energy_per_request, many.energy_per_request);
  EXPECT_GT(one.request_time_serial, 0.0);
  // The old run_batch's images_per_second, folded into the fleet report.
  EXPECT_DOUBLE_EQ(1.0 / one.request_time_serial, one.sequential_rps);
  EXPECT_DOUBLE_EQ(one.sequential_rps, many.sequential_rps);
}

// Deliberate behavior change from the deprecated run_batch (which threw on
// zero images): for a serving fleet an empty batch is a valid degenerate
// case — no requests, no results, a zero-request report.
TEST(Accelerator, FleetReportEmptyBatchIsValid) {
  const NetData d = make_tiny();
  runtime::BatchRunnerOptions options;
  options.num_pcus = 1;
  options.simulate_values = false;
  runtime::BatchRunner runner(PcnnaConfig::paper_defaults(), d.net, d.weights,
                              options);
  runtime::FleetReport report;
  const auto results = runner.run({}, &report);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(0u, report.requests);
  EXPECT_DOUBLE_EQ(0.0, report.makespan);
}

TEST(Accelerator, FleetReportMatchesSingleCorePipelineInterval) {
  // Cross-check with ThroughputModel: one core's pipeline interval equals
  // the sequential per-image conv time reported by the fleet.
  const NetData d = make_tiny();
  runtime::BatchRunnerOptions options;
  options.num_pcus = 1;
  options.fidelity = TimingFidelity::kPaper;
  options.simulate_values = false;
  options.double_buffer = false;
  runtime::BatchRunner runner(PcnnaConfig::paper_defaults(), d.net, d.weights,
                              options);
  runtime::FleetReport report;
  runner.run({d.input}, &report);

  const core::ThroughputModel throughput(PcnnaConfig::paper_defaults());
  const auto pipeline = throughput.pipeline(d.net.conv_layers(), 1);
  EXPECT_NEAR(pipeline.interval, report.request_time_serial,
              1e-12 * pipeline.interval);
}

TEST(Accelerator, ReferenceOutputPopulatedOnlyWhenComparing) {
  Accelerator acc(PcnnaConfig::ideal());
  const NetData d = make_tiny();
  const auto with_ref = acc.run(d.net, d.weights, d.input, true, true);
  EXPECT_FALSE(with_ref.reference_output.empty());
  const auto without_ref = acc.run(d.net, d.weights, d.input, true, false);
  EXPECT_TRUE(without_ref.reference_output.empty());

  // Per-layer metrics, conv and FC alike, come only from a comparing run();
  // skipping the golden layers leaves the output bits alone.
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.accelerate_fc = true;
  Accelerator noisy(cfg);
  noisy.reseed_engine(5);
  const auto compared = noisy.run(d.net, d.weights, d.input, true, true);
  noisy.reseed_engine(5);
  const auto plain = noisy.run(d.net, d.weights, d.input, true, false);
  noisy.reseed_engine(5);
  const auto range =
      noisy.run_range(d.net, d.weights, d.input, 0, d.net.ops().size());
  EXPECT_TRUE(compared.output == plain.output);
  EXPECT_TRUE(compared.output == range.output);

  const auto layers = [](const core::NetworkRunReport& report) {
    std::vector<const core::LayerRunReport*> all;
    for (const auto& layer : report.conv_layers) all.push_back(&layer);
    for (const auto& layer : report.fc_layers) all.push_back(&layer);
    return all;
  };
  ASSERT_EQ(2u, compared.conv_layers.size());
  ASSERT_EQ(1u, compared.fc_layers.size()); // tiny_cnn has one FC
  for (const core::LayerRunReport* layer : layers(compared)) {
    EXPECT_GT(layer->rmse_vs_reference, 0.0) << layer->layer_name;
    EXPECT_GT(layer->max_abs_err_vs_reference, 0.0) << layer->layer_name;
  }
  for (const core::NetworkRunReport* report : {&plain, &range}) {
    ASSERT_EQ(3u, layers(*report).size());
    for (const core::LayerRunReport* layer : layers(*report)) {
      EXPECT_EQ(0.0, layer->rmse_vs_reference) << layer->layer_name;
      EXPECT_EQ(0.0, layer->max_abs_err_vs_reference) << layer->layer_name;
    }
  }
}

} // namespace
