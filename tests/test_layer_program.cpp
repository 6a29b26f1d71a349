// Layer programs: an offloaded layer's banks are programmed once per (chip,
// weights) and read in place after. Every call that reads a kept program
// must give the bits of a call that programs afresh: outputs and every
// EngineStats field, at every thread count, through the Accelerator and
// through each serving path.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "core/optical_conv_engine.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/pcu.hpp"

namespace {

using namespace pcnna;
using core::EngineStats;
using core::LayerProgram;
using core::PcnnaConfig;

PcnnaConfig faulty_chip() {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.bank.ring.fab_sigma = 0.05e-9;
  cfg.stuck_ring_rate = 0.05;
  return cfg;
}

void expect_stats_equal(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.locations, b.locations);
  EXPECT_EQ(a.optical_passes, b.optical_passes);
  EXPECT_EQ(a.dac_conversions, b.dac_conversions);
  EXPECT_EQ(a.adc_conversions, b.adc_conversions);
  EXPECT_EQ(a.patches_streamed, b.patches_streamed);
  EXPECT_EQ(a.noise_draws, b.noise_draws);
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

void expect_reports_equal(const core::NetworkRunReport& a,
                          const core::NetworkRunReport& b) {
  EXPECT_TRUE(a.output == b.output);
  ASSERT_EQ(a.conv_layers.size(), b.conv_layers.size());
  for (std::size_t i = 0; i < a.conv_layers.size(); ++i)
    expect_stats_equal(a.conv_layers[i].engine, b.conv_layers[i].engine);
  ASSERT_EQ(a.fc_layers.size(), b.fc_layers.size());
  for (std::size_t i = 0; i < a.fc_layers.size(); ++i)
    expect_stats_equal(a.fc_layers[i].engine, b.fc_layers[i].engine);
}

struct Workload {
  nn::Network net;
  nn::NetWeights weights;
  std::vector<nn::Tensor> inputs;
};

Workload make_workload(nn::Network net, std::size_t requests) {
  Workload w{std::move(net), {}, {}};
  Rng rng(17);
  w.weights = nn::make_network_weights(w.net, rng);
  for (std::size_t r = 0; r < requests; ++r)
    w.inputs.push_back(nn::make_network_input(w.net, rng));
  return w;
}

/// The uncached replay of request r: a fresh reseed, whole network.
core::NetworkRunReport replay(core::Accelerator& acc, const Workload& w,
                              std::size_t r, std::uint64_t seed) {
  acc.reseed_engine(seed);
  return acc.run_range(w.net, w.weights, w.inputs[r], 0, w.net.ops().size());
}

// run_range with kept programs against run_range without, request by
// request, and a split of the last request into two ranges under one
// reseed. Programs filled at one thread count serve another.
TEST(LayerProgram, CachedRunRangeMatchesUncached) {
  PcnnaConfig fc = faulty_chip();
  fc.accelerate_fc = true;
  const std::vector<std::pair<std::string, PcnnaConfig>> configs = {
      {"paper_defaults", PcnnaConfig::paper_defaults()},
      {"faulty", faulty_chip()},
      {"small_core", PcnnaConfig::small_core()},
      {"faulty+fc", fc}};
  const Workload w = make_workload(nn::tiny_cnn(), 3);
  const std::size_t ops = w.net.ops().size();
  for (const auto& [name, config] : configs) {
    std::vector<LayerProgram> programs(ops);
    for (std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(::testing::Message() << name << " threads=" << threads);
      PcnnaConfig cfg = config;
      cfg.engine_threads = threads;
      core::Accelerator cached(cfg), plain(cfg);
      for (std::size_t r = 0; r < w.inputs.size(); ++r) {
        const std::uint64_t seed = runtime::derive_request_seed(4, r);
        const core::NetworkRunReport want = replay(plain, w, r, seed);
        cached.reseed_engine(seed);
        const core::NetworkRunReport got =
            cached.run_range(w.net, w.weights, w.inputs[r], 0, ops, true,
                             programs);
        expect_reports_equal(want, got);
      }
      for (std::size_t op = 0; op < ops; ++op)
        EXPECT_EQ(core::offloaded_layer(cfg, w.net, op).has_value(),
                  programs[op].filled)
            << "op " << op;

      const std::size_t r = w.inputs.size() - 1;
      const std::uint64_t seed = runtime::derive_request_seed(4, r);
      const core::NetworkRunReport want = replay(plain, w, r, seed);
      cached.reseed_engine(seed);
      const core::NetworkRunReport head =
          cached.run_range(w.net, w.weights, w.inputs[r], 0, 3, true,
                           programs);
      const core::NetworkRunReport tail =
          cached.run_range(w.net, w.weights, head.output, 3, ops, true,
                           programs);
      EXPECT_TRUE(want.output == tail.output);
    }
  }
}

// LeNet-5's c5 has 600 banks, so its program fills across the pool with
// many banks per worker.
TEST(LayerProgram, LeNetProgramsMatchUncachedOnAFaultyChip) {
  const Workload w = make_workload(nn::lenet5(), 2);
  PcnnaConfig cfg = faulty_chip();
  cfg.engine_threads = 4;
  core::Accelerator cached(cfg), plain(cfg);
  std::vector<LayerProgram> programs(w.net.ops().size());
  for (std::size_t r = 0; r < w.inputs.size(); ++r) {
    const std::uint64_t seed = runtime::derive_request_seed(6, r);
    const core::NetworkRunReport want = replay(plain, w, r, seed);
    cached.reseed_engine(seed);
    expect_reports_equal(want,
                         cached.run_range(w.net, w.weights, w.inputs[r], 0,
                                          w.net.ops().size(), true, programs));
  }
}

// Every serving path reads its PCU's programs: serve_all through run() on
// a two-PCU fleet (called twice, so the second call reads what the first
// filled), Pcu::serve, and a two-stage serve_stage pipeline across two
// PCUs, split at every op. Each output must be the uncached replay's.
TEST(LayerProgram, ServingPathsMatchTheUncachedReplay) {
  const Workload w = make_workload(nn::tiny_cnn(), 4);
  const std::size_t ops = w.net.ops().size();
  for (std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    PcnnaConfig cfg = faulty_chip();
    cfg.engine_threads = threads;
    core::Accelerator plain(cfg);

    runtime::BatchRunnerOptions options;
    options.num_pcus = 2;
    options.simulate_values = true;
    options.seed = 8;
    runtime::BatchRunner runner(cfg, w.net, w.weights, options);
    for (int call = 0; call < 2; ++call) {
      const std::vector<runtime::RequestResult> results = runner.run(w.inputs);
      ASSERT_EQ(w.inputs.size(), results.size());
      for (std::size_t r = 0; r < results.size(); ++r)
        EXPECT_TRUE(replay(plain, w, r,
                           runtime::derive_request_seed(options.seed, r))
                        .output == results[r].output)
            << "call " << call << " request " << r;
    }

    runtime::Pcu front(0, cfg, core::TimingFidelity::kPaper, w.net, w.weights);
    runtime::Pcu back(1, cfg, core::TimingFidelity::kPaper, w.net, w.weights);
    for (std::size_t r = 0; r < w.inputs.size(); ++r) {
      runtime::InferenceRequest request;
      request.id = r;
      request.seed = runtime::derive_request_seed(12, r);
      request.input = w.inputs[r];
      const core::NetworkRunReport want = replay(plain, w, r, request.seed);
      EXPECT_TRUE(want.output == front.serve(request, true).output)
          << "request " << r;
      for (std::size_t split = 0; split <= ops; ++split) {
        const runtime::StageHandoff head = front.serve_stage(
            0, 0, split, request.input, request.seed, 0.0, true);
        const runtime::StageHandoff tail = back.serve_stage(
            0, split, ops, head.activation, request.seed, head.energy, true);
        EXPECT_TRUE(want.output == tail.activation)
            << "request " << r << " split " << split;
      }
    }
  }
}

// A dual-rail layer runs its two rails on one program: the positive rail
// fills it and the negative one reads it.
TEST(LayerProgram, DualRailRailsShareOneProgram) {
  PcnnaConfig cfg = faulty_chip();
  cfg.dual_rail_inputs = true;
  const nn::ConvLayerParams layer{"signed", 8, 3, 1, 1, 3, 5};
  Rng rng(3);
  nn::Tensor input = nn::make_input(layer, rng);
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = rng.uniform(-1.0, 1.0);
  const nn::Tensor weights = nn::make_conv_weights(layer, rng);
  const nn::Tensor bias = nn::make_conv_bias(layer, rng);

  core::OpticalConvEngine plain(cfg), cached(cfg);
  LayerProgram program;
  for (int call = 0; call < 2; ++call) {
    EngineStats want_stats, got_stats;
    const nn::Tensor want =
        plain.conv2d(input, weights, bias, 1, 1, &want_stats);
    const nn::Tensor got =
        cached.conv2d(input, weights, bias, 1, 1, &got_stats, &program);
    EXPECT_TRUE(program.filled);
    EXPECT_TRUE(want == got) << "call " << call;
    expect_stats_equal(want_stats, got_stats);
  }
}

// An all-zero input outputs the bias and fills nothing; the next input
// fills the program. A program that does not fit the layer is rejected.
TEST(LayerProgram, FilledOnlyByANonzeroInputAndOnlyForItsLayer) {
  const PcnnaConfig cfg = faulty_chip();
  const nn::ConvLayerParams layer{"t", 6, 3, 0, 1, 2, 4};
  Rng rng(5);
  nn::Tensor input = nn::make_input(layer, rng);
  const nn::Tensor weights = nn::make_conv_weights(layer, rng);
  const nn::Tensor bias = nn::make_conv_bias(layer, rng);
  nn::Tensor zero = input;
  zero.fill(0.0);

  core::OpticalConvEngine plain(cfg), cached(cfg);
  LayerProgram program;
  cached.conv2d(zero, weights, bias, 1, 0, nullptr, &program);
  EXPECT_FALSE(program.filled);
  EngineStats want_stats, got_stats;
  const nn::Tensor want = plain.conv2d(input, weights, bias, 1, 0, &want_stats);
  const nn::Tensor got =
      cached.conv2d(input, weights, bias, 1, 0, &got_stats, &program);
  EXPECT_TRUE(program.filled);
  EXPECT_TRUE(want == got);
  expect_stats_equal(want_stats, got_stats);

  const nn::ConvLayerParams other{"u", 6, 3, 0, 1, 2, 7};
  const nn::Tensor other_weights = nn::make_conv_weights(other, rng);
  EXPECT_THROW(cached.conv2d(input, other_weights, {}, 1, 0, nullptr, &program),
               Error);
}

} // namespace
