// Property tests for the telemetry observation-not-perturbation contract.
//
// Pinned here:
//  * attaching a Telemetry to the admission loop changes NOTHING: for
//    every dispatch policy x fault schedule x engine_threads setting, the
//    schedule, shed decisions, fault report, and autoscaler stats of a
//    telemetry-on run are bitwise identical to the telemetry-off run;
//  * functional serving with telemetry on produces bit-identical outputs
//    and an unchanged OpenLoopReport;
//  * telemetry itself is deterministic: two telemetry-on runs over the
//    same inputs serialize byte-identical Chrome traces and Prometheus
//    snapshots.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/arrival.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/pcu_pool.hpp"
#include "runtime/telemetry.hpp"

namespace {

using namespace pcnna;
using core::PcnnaConfig;
using core::TimingFidelity;
using runtime::AdmissionOptions;
using runtime::AdmissionResult;
using runtime::ArrivalSchedule;
using runtime::BatchRunner;
using runtime::BatchRunnerOptions;
using runtime::DispatchPolicy;
using runtime::InferenceRequest;
using runtime::OpenLoopReport;
using runtime::PcuPool;
using runtime::PriorityClass;
using runtime::RequestQueue;
using runtime::RequestResult;
using runtime::ScheduledService;
using runtime::Telemetry;

/// `n` identical paper-default PCU specs.
std::vector<runtime::PcuSpec> paper_fleet(std::size_t n) {
  runtime::PcuSpec spec;
  spec.config = PcnnaConfig::paper_defaults();
  return std::vector<runtime::PcuSpec>(n, spec);
}

struct TwoModels {
  nn::Network net;
  nn::NetWeights weights_a;
  nn::NetWeights weights_b;
};

TwoModels make_two_models(std::uint64_t seed = 31) {
  Rng rng(seed);
  TwoModels t{nn::tiny_cnn(), {}, {}};
  t.weights_a = nn::make_network_weights(t.net, rng);
  t.weights_b = nn::make_network_weights(t.net, rng);
  return t;
}

AdmissionResult admit(PcuPool& pool, std::vector<InferenceRequest> requests,
                      const AdmissionOptions& admission) {
  RequestQueue queue;
  for (InferenceRequest& r : requests) queue.push(std::move(r));
  queue.close();
  return pool.simulate_admission(queue, admission);
}

/// Bitwise equality over every ScheduledService field — doubles compared
/// exactly: "telemetry changed nothing" means identical bits, not "close".
void expect_bit_identical(const AdmissionResult& a, const AdmissionResult& b) {
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    const ScheduledService& x = a.schedule[i];
    const ScheduledService& y = b.schedule[i];
    EXPECT_EQ(x.id, y.id) << "entry " << i;
    EXPECT_EQ(x.pcu, y.pcu) << "entry " << i;
    EXPECT_EQ(x.arrival, y.arrival) << "entry " << i;
    EXPECT_EQ(x.start, y.start) << "entry " << i;
    EXPECT_EQ(x.completion, y.completion) << "entry " << i;
    EXPECT_EQ(x.warmup, y.warmup) << "entry " << i;
    EXPECT_EQ(x.swap, y.swap) << "entry " << i;
    EXPECT_EQ(x.swapped, y.swapped) << "entry " << i;
    EXPECT_EQ(x.attempts, y.attempts) << "entry " << i;
    ASSERT_EQ(x.stages.size(), y.stages.size()) << "entry " << i;
    for (std::size_t j = 0; j < x.stages.size(); ++j) {
      EXPECT_EQ(x.stages[j].pcu, y.stages[j].pcu) << i << "/" << j;
      EXPECT_EQ(x.stages[j].start, y.stages[j].start) << i << "/" << j;
      EXPECT_EQ(x.stages[j].completion, y.stages[j].completion)
          << i << "/" << j;
      EXPECT_EQ(x.stages[j].pin, y.stages[j].pin) << i << "/" << j;
      EXPECT_EQ(x.stages[j].handoff, y.stages[j].handoff) << i << "/" << j;
    }
  }
  ASSERT_EQ(a.shed.shed, b.shed.shed);
  ASSERT_EQ(a.shed.decisions.size(), b.shed.decisions.size());
  for (std::size_t i = 0; i < a.shed.decisions.size(); ++i) {
    EXPECT_EQ(a.shed.decisions[i].id, b.shed.decisions[i].id);
    EXPECT_EQ(a.shed.decisions[i].decision_time,
              b.shed.decisions[i].decision_time);
  }
  EXPECT_EQ(a.fault.injections, b.fault.injections);
  EXPECT_EQ(a.fault.retries, b.fault.retries);
  EXPECT_EQ(a.fault.lost_requests, b.fault.lost_requests);
  ASSERT_EQ(a.fault.attempts.size(), b.fault.attempts.size());
  for (std::size_t i = 0; i < a.fault.attempts.size(); ++i) {
    EXPECT_EQ(a.fault.attempts[i].id, b.fault.attempts[i].id);
    EXPECT_EQ(a.fault.attempts[i].start, b.fault.attempts[i].start);
    EXPECT_EQ(a.fault.attempts[i].end, b.fault.attempts[i].end);
  }
  EXPECT_EQ(a.autoscaler.scale_ups, b.autoscaler.scale_ups);
  EXPECT_EQ(a.autoscaler.scale_downs, b.autoscaler.scale_downs);
  EXPECT_EQ(a.autoscaler.mean_active, b.autoscaler.mean_active);
  EXPECT_EQ(a.pipeline.pipelined_requests, b.pipeline.pipelined_requests);
  EXPECT_EQ(a.pipeline.pin_time, b.pipeline.pin_time);
  EXPECT_EQ(a.pipeline.handoff_time, b.pipeline.handoff_time);
}

/// Overloaded two-model SLO stream with mixed classes and finite deadlines.
std::vector<InferenceRequest> seeded_stream(const PcuPool& pool,
                                            std::size_t count,
                                            std::uint64_t seed) {
  const double interval = pool.pcu(0).request_interval_overlapped(0);
  const double warmup = pool.pcu(0).warmup_time(0);
  const ArrivalSchedule arrivals =
      runtime::poisson_arrivals(count, 6.0 / interval, seed);
  Rng rng(seed * 7919 + 1);
  std::vector<InferenceRequest> requests;
  for (std::size_t id = 0; id < count; ++id) {
    InferenceRequest r;
    r.id = id;
    r.arrival_time = arrivals[id];
    r.model_id = static_cast<std::uint32_t>(rng.next_u64() % 2);
    const std::uint64_t cls = rng.next_u64() % 3;
    r.priority = cls == 0 ? PriorityClass::kInteractive
                          : (cls == 1 ? PriorityClass::kStandard
                                      : PriorityClass::kBestEffort);
    r.tenant = static_cast<std::uint32_t>(cls);
    r.deadline = arrivals[id] + warmup +
                 (2.0 + static_cast<double>(rng.next_u64() % 8)) * interval;
    requests.push_back(r);
  }
  return requests;
}

// --- The contract: telemetry on == telemetry off, bit for bit ---

TEST(TelemetryPurity, OnVsOffBitIdenticalForEveryPolicyAndFaultSchedule) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(4), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);
  pool.build_pipeline(/*model=*/1, {0, 1});
  const double interval = pool.pcu(0).request_interval_overlapped(0);
  constexpr std::size_t kCount = 250;

  runtime::FaultModel hazard;
  hazard.mtbf = 50.0 * interval;
  hazard.horizon = 200.0 * interval;
  hazard.mean_time_to_repair = 15.0 * interval;

  for (const DispatchPolicy policy : runtime::kAllDispatchPolicies) {
    for (const int fault_mode : {0, 1, 2}) {
      AdmissionOptions off;
      off.policy = policy;
      off.shed_expired = true;
      if (fault_mode > 0) {
        off.faults.schedule = runtime::poisson_faults(4, hazard, 113);
        off.faults.health_aware = fault_mode == 2;
        off.faults.detection_latency = 0.5 * interval;
        off.faults.retry.backoff_base = 0.25 * interval;
        off.faults.repair_time = 2.0 * interval;
      }
      AdmissionOptions on = off;
      Telemetry telemetry;
      on.telemetry = &telemetry;

      SCOPED_TRACE(std::string(runtime::dispatch_policy_name(policy)) +
                   " faults " + std::to_string(fault_mode));
      const AdmissionResult a =
          admit(pool, seeded_stream(pool, kCount, 7), off);
      const AdmissionResult b =
          admit(pool, seeded_stream(pool, kCount, 7), on);
      ASSERT_GT(a.schedule.size(), 0u);
      expect_bit_identical(a, b);
      // ... and telemetry actually observed the run it rode along on.
      EXPECT_FALSE(telemetry.spans().empty());
    }
  }
}

TEST(TelemetryPurity, OnVsOffBitIdenticalAcrossEngineThreads) {
  const TwoModels t = make_two_models();
  const auto build = [&](std::size_t threads) {
    runtime::PcuSpec spec;
    spec.config = PcnnaConfig::paper_defaults();
    spec.config.engine_threads = threads;
    return PcuPool(std::vector<runtime::PcuSpec>(3, spec),
                   TimingFidelity::kFull, t.net, t.weights_a);
  };
  PcuPool one = build(1);
  PcuPool many = build(8);
  one.register_model(t.net, t.weights_b);
  many.register_model(t.net, t.weights_b);

  AdmissionOptions o;
  o.policy = DispatchPolicy::kModelAffinity;
  o.shed_expired = true;
  Telemetry telemetry_one;
  Telemetry telemetry_many;
  AdmissionOptions o_one = o;
  o_one.telemetry = &telemetry_one;
  AdmissionOptions o_many = o;
  o_many.telemetry = &telemetry_many;

  const AdmissionResult a = admit(one, seeded_stream(one, 300, 11), o_one);
  const AdmissionResult b = admit(many, seeded_stream(many, 300, 11), o_many);
  expect_bit_identical(a, b);

  // The telemetry artifacts themselves are host-independent too.
  std::ostringstream trace_one, trace_many, prom_one, prom_many;
  telemetry_one.write_chrome_trace(trace_one);
  telemetry_many.write_chrome_trace(trace_many);
  telemetry_one.write_prometheus(prom_one);
  telemetry_many.write_prometheus(prom_many);
  EXPECT_EQ(trace_one.str(), trace_many.str());
  EXPECT_EQ(prom_one.str(), prom_many.str());
}

// --- Determinism of the artifacts: same run, same bytes ---

TEST(TelemetryPurity, TwoTelemetryRunsSerializeIdenticalArtifacts) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(3), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);

  const auto run = [&]() {
    Telemetry telemetry;
    AdmissionOptions o;
    o.policy = DispatchPolicy::kEdf;
    o.shed_expired = true;
    o.telemetry = &telemetry;
    admit(pool, seeded_stream(pool, 300, 23), o);
    std::ostringstream trace, prom;
    telemetry.write_chrome_trace(trace);
    telemetry.write_prometheus(prom);
    return std::make_pair(trace.str(), prom.str());
  };
  const auto [trace_a, prom_a] = run();
  const auto [trace_b, prom_b] = run();
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(prom_a, prom_b);
}

// --- Functional serving: outputs and report unchanged under telemetry ---

TEST(TelemetryPurity, FunctionalOutputsAndReportUnchanged) {
  const TwoModels t = make_two_models();
  constexpr std::size_t kBatch = 24;

  const auto serve = [&](Telemetry* telemetry, OpenLoopReport* report) {
    BatchRunnerOptions options;
    options.num_pcus = 2;
    options.dispatch = DispatchPolicy::kEdf;
    options.shed_expired = true;
    options.telemetry = telemetry;
    BatchRunner runner(PcnnaConfig::paper_defaults(), t.net, t.weights_a,
                       options);
    const double interval =
        runner.pool().pcu(0).request_interval_overlapped(0);

    std::vector<nn::Tensor> inputs;
    Rng rng(5);
    for (std::size_t i = 0; i < kBatch; ++i)
      inputs.push_back(nn::make_network_input(t.net, rng));
    const ArrivalSchedule arrivals =
        runtime::poisson_arrivals(kBatch, 3.0 / interval, 77);
    runtime::SloSchedule slos(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      slos[i].tenant = static_cast<std::uint32_t>(i % 2);
      slos[i].deadline =
          arrivals[i] + runner.pool().pcu(0).warmup_time(0) + 8.0 * interval;
    }
    return runner.run_open_loop(inputs, arrivals, report, slos);
  };

  OpenLoopReport report_off, report_on;
  Telemetry telemetry;
  const std::vector<RequestResult> off = serve(nullptr, &report_off);
  const std::vector<RequestResult> on = serve(&telemetry, &report_on);

  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].id, on[i].id);
    EXPECT_EQ(off[i].shed, on[i].shed);
    EXPECT_EQ(off[i].output, on[i].output) << "request " << i;
  }
  EXPECT_EQ(report_off.makespan, report_on.makespan);
  EXPECT_EQ(report_off.latency.p99, report_on.latency.p99);
  EXPECT_EQ(report_off.total_energy, report_on.total_energy);
  EXPECT_EQ(report_off.shed_requests, report_on.shed_requests);
  ASSERT_EQ(report_off.per_pcu.size(), report_on.per_pcu.size());
  for (std::size_t p = 0; p < report_off.per_pcu.size(); ++p) {
    EXPECT_EQ(report_off.per_pcu[p].busy_time, report_on.per_pcu[p].busy_time);
    EXPECT_EQ(report_off.per_pcu[p].requests, report_on.per_pcu[p].requests);
  }

  // Telemetry recorded the engine-phase counters of the functional run.
  std::ostringstream prom;
  telemetry.write_prometheus(prom);
  const std::string text = prom.str();
  EXPECT_NE(std::string::npos, text.find("pcnna_engine_bank_passes_total"));
  EXPECT_EQ(std::string::npos, text.find("pcnna_engine_bank_passes_total 0\n"))
      << "functional serving must record non-zero engine work";
}

} // namespace
