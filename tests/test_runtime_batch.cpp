// Batch-parallel runtime: bit-identity with the sequential path, work
// conservation under dynamic sharding, schedule determinism, and the
// double-buffered recalibration overlap model.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/batch_runner.hpp"

namespace {

using namespace pcnna;
using core::PcnnaConfig;
using core::TimingFidelity;
using runtime::BatchRunner;
using runtime::BatchRunnerOptions;
using runtime::FleetReport;
using runtime::RequestResult;

struct Served {
  nn::Network net;
  nn::NetWeights weights;
  std::vector<nn::Tensor> inputs;
};

Served make_served(std::size_t batch, std::uint64_t seed = 11) {
  Rng rng(seed);
  Served s{nn::tiny_cnn(), {}, {}};
  s.weights = nn::make_network_weights(s.net, rng);
  s.inputs.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i)
    s.inputs.push_back(nn::make_network_input(s.net, rng));
  return s;
}

BatchRunnerOptions options(std::size_t pcus, bool simulate_values = true) {
  BatchRunnerOptions o;
  o.num_pcus = pcus;
  o.simulate_values = simulate_values;
  o.seed = 99;
  return o;
}

// The headline contract: a noisy batch sharded across several PCUs is
// bit-identical to serving each request alone on a single PCU, because every
// request carries its own engine seed.
TEST(BatchRunner, BatchedOutputsBitIdenticalToSequential) {
  const Served s = make_served(6);
  const PcnnaConfig config = PcnnaConfig::paper_defaults(); // noise ON

  BatchRunner fleet(config, s.net, s.weights, options(/*pcus=*/3));
  const std::vector<RequestResult> batched = fleet.run(s.inputs);

  BatchRunner single(config, s.net, s.weights, options(/*pcus=*/1));
  ASSERT_EQ(s.inputs.size(), batched.size());
  for (std::size_t id = 0; id < s.inputs.size(); ++id) {
    const RequestResult alone = single.run_one(s.inputs[id], id);
    EXPECT_EQ(alone.output, batched[id].output)
        << "request " << id << " differs between batched and sequential";
  }
}

// Order independence on one physical PCU: serving a request after a pile of
// other work gives the same bits as serving it first.
TEST(BatchRunner, ServeHistoryDoesNotLeakIntoResults) {
  const Served s = make_served(4);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();

  BatchRunner runner(config, s.net, s.weights, options(/*pcus=*/1));
  const RequestResult fresh = runner.run_one(s.inputs[2], 2);
  runner.run(s.inputs); // arbitrary interleaved history
  const RequestResult reserved = runner.run_one(s.inputs[2], 2);
  EXPECT_EQ(fresh.output, reserved.output);
}

TEST(BatchRunner, ShardingConservesWork) {
  const Served s = make_served(17); // prime: uneven split across 4 PCUs
  BatchRunner fleet(PcnnaConfig::paper_defaults(), s.net, s.weights,
                    options(/*pcus=*/4));
  FleetReport report;
  const std::vector<RequestResult> results = fleet.run(s.inputs, &report);

  // Every request served exactly once, returned in id order.
  ASSERT_EQ(17u, results.size());
  for (std::size_t id = 0; id < results.size(); ++id) {
    EXPECT_EQ(id, results[id].id);
    EXPECT_GT(results[id].output.size(), 0u);
  }

  // Physical sharding: per-PCU wall counters sum to the batch.
  std::size_t wall_total = 0;
  for (std::size_t p = 0; p < fleet.pool().size(); ++p)
    wall_total += fleet.pool().pcu(p).stats().requests_served;
  EXPECT_EQ(17u, wall_total);

  // Virtual sharding: deterministic least-loaded schedule = 17 over 4.
  ASSERT_EQ(4u, report.per_pcu.size());
  std::size_t virtual_total = 0;
  for (const runtime::PcuBreakdown& b : report.per_pcu)
    virtual_total += b.requests;
  EXPECT_EQ(17u, virtual_total);
  EXPECT_EQ(5u, report.per_pcu[0].requests);
  EXPECT_EQ(4u, report.per_pcu[3].requests);
}

TEST(BatchRunner, DeterministicUnderFixedSeed) {
  const Served s = make_served(8);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();

  FleetReport r1, r2;
  BatchRunner a(config, s.net, s.weights, options(/*pcus=*/3));
  BatchRunner b(config, s.net, s.weights, options(/*pcus=*/3));
  const auto out1 = a.run(s.inputs, &r1);
  const auto out2 = b.run(s.inputs, &r2);

  for (std::size_t id = 0; id < out1.size(); ++id)
    EXPECT_EQ(out1[id].output, out2[id].output);
  EXPECT_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.throughput_rps, r2.throughput_rps);
  EXPECT_EQ(r1.total_energy, r2.total_energy);
  ASSERT_EQ(r1.per_pcu.size(), r2.per_pcu.size());
  for (std::size_t p = 0; p < r1.per_pcu.size(); ++p)
    EXPECT_EQ(r1.per_pcu[p].requests, r2.per_pcu[p].requests);

  // A different base seed changes the noise draw (noise is on), so at least
  // one output must differ.
  BatchRunnerOptions other = options(3);
  other.seed = 1234567;
  BatchRunner c(config, s.net, s.weights, other);
  const auto out3 = c.run(s.inputs);
  bool any_diff = false;
  for (std::size_t id = 0; id < out1.size(); ++id)
    any_diff = any_diff || !(out1[id].output == out3[id].output);
  EXPECT_TRUE(any_diff);
}

// Double buffering hides weight-bank recalibration behind optical compute:
// the steady-state interval is shorter than the serial request time at kFull
// fidelity, and exactly equal under kPaper (which models no recal cost).
TEST(BatchRunner, OverlapShortensStdyStateIntervalAtFullFidelity) {
  const Served s = make_served(2);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();

  BatchRunnerOptions full = options(/*pcus=*/1, /*simulate_values=*/false);
  full.fidelity = TimingFidelity::kFull;
  BatchRunner runner(config, s.net, s.weights, full);
  FleetReport report;
  runner.run(s.inputs, &report);
  EXPECT_LT(report.request_interval, report.request_time_serial);
  EXPECT_GT(report.overlap_speedup, 1.0);

  BatchRunnerOptions paper = full;
  paper.fidelity = TimingFidelity::kPaper;
  BatchRunner paper_runner(config, s.net, s.weights, paper);
  FleetReport paper_report;
  paper_runner.run(s.inputs, &paper_report);
  EXPECT_DOUBLE_EQ(paper_report.request_time_serial,
                   paper_report.request_interval);
  EXPECT_DOUBLE_EQ(1.0, paper_report.overlap_speedup);
}

TEST(BatchRunner, FleetThroughputScalesNearLinearly) {
  const Served s = make_served(64);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();

  for (std::size_t pcus : {2u, 4u, 8u}) {
    BatchRunnerOptions o = options(pcus, /*simulate_values=*/false);
    BatchRunner fleet(config, s.net, s.weights, o);
    FleetReport report;
    fleet.run(s.inputs, &report);
    EXPECT_GE(report.speedup_vs_sequential,
              0.8 * static_cast<double>(pcus))
        << "fleet of " << pcus << " PCUs below 0.8N scaling";
    // Double buffering may fail to help but must never report a slowdown.
    EXPECT_LE(report.request_interval, report.request_time_serial);
    EXPECT_GE(report.overlap_speedup, 1.0);
    // Overlap gains can push the fleet past "ideal" N x serial scaling, but
    // never past N x the per-request overlap speedup.
    EXPECT_LE(report.speedup_vs_sequential,
              static_cast<double>(pcus) * report.overlap_speedup + 1e-9);
  }
}

TEST(BatchRunner, MakespanMatchesClosedForm) {
  const Served s = make_served(10);
  BatchRunnerOptions o = options(/*pcus=*/4, /*simulate_values=*/false);
  BatchRunner fleet(PcnnaConfig::paper_defaults(), s.net, s.weights, o);
  FleetReport report;
  fleet.run(s.inputs, &report);

  // 10 requests over 4 PCUs -> busiest virtual PCU serves ceil(10/4) = 3.
  const double warmup = report.max_latency - 3.0 * report.request_interval;
  EXPECT_NEAR(report.makespan, warmup + 3.0 * report.request_interval,
              1e-12 + 1e-9 * report.makespan);
  EXPECT_NEAR(report.throughput_rps, 10.0 / report.makespan,
              1e-6 * report.throughput_rps);
  EXPECT_GE(report.mean_latency, report.request_interval);
  EXPECT_LE(report.mean_latency, report.max_latency);
}

TEST(BatchRunner, ReportPrintsThroughCommonReport) {
  const Served s = make_served(4);
  BatchRunnerOptions o = options(/*pcus=*/2, /*simulate_values=*/false);
  BatchRunner fleet(PcnnaConfig::paper_defaults(), s.net, s.weights, o);
  FleetReport report;
  fleet.run(s.inputs, &report);

  std::ostringstream os;
  BatchRunner::print_report(report, os, "unit test fleet");
  const std::string text = os.str();
  EXPECT_NE(std::string::npos, text.find("unit test fleet"));
  EXPECT_NE(std::string::npos, text.find("throughput"));
  EXPECT_NE(std::string::npos, text.find("per-PCU schedule"));
  EXPECT_NE(std::string::npos, text.find("dispatch policy"));
}

TEST(BatchRunner, EnergyAggregatesAcrossFleet) {
  const Served s = make_served(6);
  BatchRunnerOptions o = options(/*pcus=*/3, /*simulate_values=*/false);
  BatchRunner fleet(PcnnaConfig::paper_defaults(), s.net, s.weights, o);
  FleetReport report;
  fleet.run(s.inputs, &report);
  EXPECT_GT(report.total_energy, 0.0);
  EXPECT_NEAR(report.total_energy, 6.0 * report.energy_per_request,
              1e-9 * report.total_energy);
}

} // namespace
