// Open-loop serving: the closed batch as a degenerate arrival process,
// bit-identity of outputs under any arrival schedule, deterministic
// reports, and the queueing behavior of the admission loop across load.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/batch_runner.hpp"

namespace {

using namespace pcnna;
using core::PcnnaConfig;
using core::TimingFidelity;
using runtime::ArrivalSchedule;
using runtime::BatchRunner;
using runtime::BatchRunnerOptions;
using runtime::FleetReport;
using runtime::OpenLoopReport;
using runtime::RequestResult;

struct Served {
  nn::Network net;
  nn::NetWeights weights;
  std::vector<nn::Tensor> inputs;
};

Served make_served(std::size_t batch, std::uint64_t seed = 21) {
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

// The regression the tentpole promises: a zero-inter-arrival open-loop run
// is the closed batch — same outputs bit for bit, same virtual schedule.
TEST(OpenLoop, ClosedBatchIsDegenerateArrivalProcess) {
  const Served s = make_served(9);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();

  BatchRunner closed(config, s.net, s.weights, options(/*pcus=*/3));
  FleetReport fleet;
  const std::vector<RequestResult> closed_out = closed.run(s.inputs, &fleet);

  BatchRunner open(config, s.net, s.weights, options(/*pcus=*/3));
  OpenLoopReport report;
  const std::vector<RequestResult> open_out = open.run_open_loop(
      s.inputs, runtime::closed_batch_arrivals(s.inputs.size()), &report);

  ASSERT_EQ(closed_out.size(), open_out.size());
  for (std::size_t id = 0; id < closed_out.size(); ++id)
    EXPECT_EQ(closed_out[id].output, open_out[id].output)
        << "request " << id << " differs between closed and open-loop runs";

  // Same admission loop -> bitwise-identical schedule numbers.
  EXPECT_EQ(fleet.makespan, report.makespan);
  EXPECT_EQ(fleet.max_latency, report.latency.max);
  EXPECT_DOUBLE_EQ(fleet.mean_latency, report.latency.mean);
  ASSERT_EQ(fleet.per_pcu.size(), report.per_pcu.size());
  for (std::size_t p = 0; p < fleet.per_pcu.size(); ++p)
    EXPECT_EQ(fleet.per_pcu[p].requests, report.per_pcu[p].requests);
  EXPECT_TRUE(std::isinf(report.offered_rps));
  EXPECT_EQ(0.0, report.queue_wait.min)
      << "the first request on each PCU starts at its arrival";
}

// Arrival times shape the schedule only: under any arrival process the
// outputs stay bit-identical to serving each request alone.
TEST(OpenLoop, OutputsBitIdenticalToSequentialUnderPoissonArrivals) {
  const Served s = make_served(6);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();

  BatchRunner fleet(config, s.net, s.weights, options(/*pcus=*/2));
  const ArrivalSchedule arrivals =
      runtime::poisson_arrivals(s.inputs.size(), 1000.0, 5);
  const std::vector<RequestResult> open_out =
      fleet.run_open_loop(s.inputs, arrivals);

  BatchRunner single(config, s.net, s.weights, options(/*pcus=*/1));
  for (std::size_t id = 0; id < s.inputs.size(); ++id) {
    const RequestResult alone = single.run_one(s.inputs[id], id);
    EXPECT_EQ(alone.output, open_out[id].output)
        << "request " << id << " differs from the sequential reference";
  }
}

TEST(OpenLoop, SimulatedReportIsDeterministic) {
  const Served s = make_served(0);
  BatchRunner runner(PcnnaConfig::paper_defaults(), s.net, s.weights,
                     options(/*pcus=*/4, /*simulate_values=*/false));

  const ArrivalSchedule arrivals = runtime::poisson_arrivals(
      2000, 0.5 * runner.simulate_open_loop({}).fleet_capacity_rps, 11);
  const OpenLoopReport a = runner.simulate_open_loop(arrivals);
  const OpenLoopReport b = runner.simulate_open_loop(arrivals);

  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.latency.p50, b.latency.p50);
  EXPECT_EQ(a.latency.p99, b.latency.p99);
  EXPECT_EQ(a.latency.p999, b.latency.p999);
  EXPECT_EQ(a.queue_wait.mean, b.queue_wait.mean);
  EXPECT_EQ(a.mean_queue_depth, b.mean_queue_depth);
  EXPECT_EQ(a.achieved_rps, b.achieved_rps);
  ASSERT_EQ(a.per_pcu.size(), b.per_pcu.size());
  for (std::size_t p = 0; p < a.per_pcu.size(); ++p) {
    EXPECT_EQ(a.per_pcu[p].utilization, b.per_pcu[p].utilization);
    EXPECT_EQ(a.per_pcu[p].requests, b.per_pcu[p].requests);
  }
}

// Sparse arrivals: every request lands on an idle fleet, so it pays the
// cold pipeline fill (warmup + interval) and never queues.
TEST(OpenLoop, SparseArrivalsNeverQueueAndPayWarmup) {
  const Served s = make_served(0);
  BatchRunner runner(PcnnaConfig::paper_defaults(), s.net, s.weights,
                     options(/*pcus=*/2, /*simulate_values=*/false));

  const double capacity = runner.simulate_open_loop({}).fleet_capacity_rps;
  const OpenLoopReport r = runner.simulate_open_loop(
      runtime::uniform_arrivals(50, 0.01 * capacity));

  EXPECT_EQ(0.0, r.queue_wait.max) << "an idle fleet must not queue";
  EXPECT_EQ(0.0, r.mean_queue_depth);
  // Cold service on every request: the latency distribution is a point
  // mass at warmup + interval (up to roundoff against large arrival
  // timestamps).
  EXPECT_NEAR(r.latency.min, r.latency.max, 1e-9 * r.latency.max);
  EXPECT_GT(r.latency.min, 0.0);
  // Far below saturation the fleet keeps up with the offered load.
  EXPECT_NEAR(r.offered_rps, r.achieved_rps, 0.05 * r.offered_rps);
}

// The hockey stick: tail latency is flat under light load and explodes
// past saturation, where throughput pins at fleet capacity.
TEST(OpenLoop, TailLatencyGrowsWithLoadAndThroughputSaturates) {
  const Served s = make_served(0);
  BatchRunner runner(PcnnaConfig::paper_defaults(), s.net, s.weights,
                     options(/*pcus=*/4, /*simulate_values=*/false));
  const double capacity = runner.simulate_open_loop({}).fleet_capacity_rps;

  constexpr std::size_t kRequests = 4000;
  const OpenLoopReport light = runner.simulate_open_loop(
      runtime::poisson_arrivals(kRequests, 0.3 * capacity, 3));
  const OpenLoopReport heavy = runner.simulate_open_loop(
      runtime::poisson_arrivals(kRequests, 0.9 * capacity, 3));
  const OpenLoopReport overload = runner.simulate_open_loop(
      runtime::poisson_arrivals(kRequests, 1.5 * capacity, 3));

  EXPECT_LT(light.latency.p99, heavy.latency.p99);
  EXPECT_LT(heavy.latency.p99, overload.latency.p99);
  EXPECT_LT(light.mean_queue_depth, overload.mean_queue_depth);

  // Below saturation the fleet tracks the offered load...
  EXPECT_NEAR(light.offered_rps, light.achieved_rps,
              0.1 * light.offered_rps);
  // ...past saturation it pins at capacity (within the warmup overhead
  // idle gaps occasionally re-charge).
  EXPECT_LT(overload.achieved_rps, 1.01 * capacity);
  EXPECT_GT(overload.achieved_rps, 0.85 * capacity);

  // Utilization: bounded by 1, and saturated PCUs are busier.
  for (const runtime::PcuBreakdown& b : overload.per_pcu) {
    EXPECT_GT(b.utilization, 0.9);
    EXPECT_LE(b.utilization, 1.0 + 1e-12);
  }
  for (std::size_t p = 0; p < light.per_pcu.size(); ++p)
    EXPECT_LT(light.per_pcu[p].utilization, overload.per_pcu[p].utilization);
}

TEST(OpenLoop, RejectsMismatchedOrInvalidSchedules) {
  const Served s = make_served(3);
  BatchRunner runner(PcnnaConfig::paper_defaults(), s.net, s.weights,
                     options(/*pcus=*/1));
  EXPECT_THROW(runner.run_open_loop(s.inputs, {0.0, 1.0}), Error);
  EXPECT_THROW(runner.run_open_loop(s.inputs, {0.0, 2.0, 1.0}), Error);
  EXPECT_THROW(runner.simulate_open_loop({0.0, -1.0, 2.0}), Error);
}

TEST(OpenLoop, ReportPrintsThroughCommonReport) {
  const Served s = make_served(0);
  BatchRunner runner(PcnnaConfig::paper_defaults(), s.net, s.weights,
                     options(/*pcus=*/2, /*simulate_values=*/false));
  const double capacity = runner.simulate_open_loop({}).fleet_capacity_rps;
  const OpenLoopReport report = runner.simulate_open_loop(
      runtime::poisson_arrivals(200, 0.7 * capacity, 17));

  std::ostringstream os;
  BatchRunner::print_report(report, os, "unit test open loop");
  const std::string text = os.str();
  EXPECT_NE(std::string::npos, text.find("unit test open loop"));
  EXPECT_NE(std::string::npos, text.find("latency p99.9"));
  EXPECT_NE(std::string::npos, text.find("mean queue depth"));
  EXPECT_NE(std::string::npos, text.find("per-PCU schedule"));
}

} // namespace
