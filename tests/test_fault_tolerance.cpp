// Fault-tolerant serving: the deterministic fault generator and trace
// format, health-aware dispatch, retry with backoff (bit-identical
// re-execution), quarantine/repair, and the fault-blind baseline that
// motivates all of it.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/fault_plan.hpp"

namespace {

using namespace pcnna;
using core::PcnnaConfig;
using runtime::ArrivalSchedule;
using runtime::BatchRunner;
using runtime::BatchRunnerOptions;
using runtime::FaultEvent;
using runtime::FaultKind;
using runtime::FaultModel;
using runtime::FaultSchedule;
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

BatchRunnerOptions options(std::size_t pcus, bool simulate_values = false) {
  BatchRunnerOptions o;
  o.num_pcus = pcus;
  o.simulate_values = simulate_values;
  o.seed = 99;
  return o;
}

FaultModel crashy_model(double horizon) {
  FaultModel m;
  m.mtbf = horizon / 4.0;
  m.horizon = horizon;
  m.mean_time_to_repair = horizon / 16.0;
  return m;
}

// --- The generator: deterministic, seed-sensitive, resize-stable. ---

TEST(PoissonFaults, DeterministicInArgumentsAlone) {
  const FaultModel m = crashy_model(100.0);
  const FaultSchedule a = runtime::poisson_faults(4, m, 7);
  const FaultSchedule b = runtime::poisson_faults(4, m, 7);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  runtime::validate_fault_schedule(a);

  const FaultSchedule c = runtime::poisson_faults(4, m, 8);
  EXPECT_NE(a, c);
}

// Per-PCU streams are keyed by (seed, pcu), so growing the fleet never
// rewrites the timeline of the PCUs that were already there.
TEST(PoissonFaults, PerPcuStreamsSurviveFleetResize) {
  const FaultModel m = crashy_model(200.0);
  const FaultSchedule small = runtime::poisson_faults(2, m, 7);
  const FaultSchedule big = runtime::poisson_faults(4, m, 7);

  FaultSchedule big_first_two;
  for (const FaultEvent& e : big)
    if (e.pcu < 2) big_first_two.push_back(e);
  EXPECT_EQ(small, big_first_two);
}

TEST(PoissonFaults, EveryCrashGetsAPairedRecover) {
  FaultModel m = crashy_model(300.0);
  m.transient_weight = 0.0;
  m.degrade_weight = 0.0;
  const FaultSchedule faults = runtime::poisson_faults(3, m, 11);
  ASSERT_FALSE(faults.empty());
  std::size_t crashes = 0;
  std::size_t recovers = 0;
  for (const FaultEvent& e : faults) {
    if (e.kind == FaultKind::kCrash) ++crashes;
    if (e.kind == FaultKind::kRecover) ++recovers;
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_EQ(crashes, recovers);
}

TEST(PoissonFaults, DegenerateAndInvalidModels) {
  EXPECT_TRUE(runtime::poisson_faults(0, crashy_model(100.0), 1).empty());
  EXPECT_TRUE(runtime::poisson_faults(4, FaultModel{}, 1).empty()); // inf mtbf
  FaultModel no_horizon = crashy_model(100.0);
  no_horizon.horizon = 0.0;
  EXPECT_TRUE(runtime::poisson_faults(4, no_horizon, 1).empty());

  FaultModel bad_weights = crashy_model(100.0);
  bad_weights.transient_weight = -1.0;
  EXPECT_THROW(runtime::poisson_faults(4, bad_weights, 1), Error);

  FaultModel no_repair = crashy_model(100.0);
  no_repair.mean_time_to_repair = 0.0;
  EXPECT_THROW(runtime::poisson_faults(4, no_repair, 1), Error);

  FaultModel bad_severity = crashy_model(100.0);
  bad_severity.degrade_severity = 0.5;
  EXPECT_THROW(runtime::poisson_faults(4, bad_severity, 1), Error);
}

// --- The trace format: round trip and line-numbered rejection. ---

TEST(FaultTrace, RoundTripsThroughTheTraceFormat) {
  const FaultSchedule original =
      runtime::poisson_faults(3, crashy_model(150.0), 5);
  ASSERT_FALSE(original.empty());
  std::ostringstream out;
  runtime::write_fault_trace(out, original);
  std::istringstream in(out.str());
  EXPECT_EQ(original, runtime::parse_fault_trace(in));
}

TEST(FaultTrace, SkipsCommentsAndDefaultsSeverity) {
  std::istringstream in(
      "# a header comment\n"
      "\n"
      "0.5 0 transient\n"
      "  1.5 1 degrade 2.25  \n"
      "2.5 0 crash\r\n"
      "3.5 0 recover\n");
  const FaultSchedule faults = runtime::parse_fault_trace(in);
  ASSERT_EQ(4u, faults.size());
  EXPECT_EQ(FaultKind::kTransient, faults[0].kind);
  EXPECT_DOUBLE_EQ(1.0, faults[0].severity);
  EXPECT_EQ(FaultKind::kDegrade, faults[1].kind);
  EXPECT_DOUBLE_EQ(2.25, faults[1].severity);
  EXPECT_EQ(1u, faults[1].pcu);
  EXPECT_EQ(FaultKind::kCrash, faults[2].kind);
  EXPECT_EQ(FaultKind::kRecover, faults[3].kind);
}

// Errors must name the offending 1-based *line*, comments included — a
// post-hoc index would drift away from what the user sees in the editor.
TEST(FaultTrace, ErrorsNameTheOffendingLine) {
  const auto line_named_error = [](const std::string& text,
                                   const std::string& needle) {
    std::istringstream in(text);
    try {
      runtime::parse_fault_trace(in);
      return std::string("no error thrown");
    } catch (const Error& e) {
      return std::string(e.what()).find(needle) != std::string::npos
                 ? std::string()
                 : std::string(e.what());
    }
  };
  EXPECT_EQ("", line_named_error("# header\n0.5 0 transient\nbogus\n",
                                 "line 3"));
  EXPECT_EQ("", line_named_error("0.5 0 meltdown\n", "line 1"));
  EXPECT_EQ("", line_named_error("0.5 0 transient\n0.25 0 crash\n",
                                 "line 2"));
  EXPECT_EQ("", line_named_error("0.5 0 degrade 0.25\n", "severity"));
  EXPECT_EQ("", line_named_error("0.5 0 transient extra junk\n", "line 1"));
  // A negative PCU index is rejected here, not wrapped to 2^64 - 1 and
  // reported only when the schedule meets a pool.
  EXPECT_EQ("", line_named_error("1.0 -1 crash\n", "line 1"));
  // Only a degrade carries a severity: write_fault_trace would drop this
  // one, so a re-parse would silently read 1.
  EXPECT_EQ("", line_named_error("# header\n1.0 0 crash 2.5\n", "line 2"));
}

TEST(FaultTrace, ValidateRejectsBadSchedules) {
  EXPECT_THROW(
      runtime::validate_fault_schedule({{std::nan(""), 0,
                                         FaultKind::kCrash, 1.0}}),
      Error);
  EXPECT_THROW(runtime::validate_fault_schedule(
                   {{1.0, 0, FaultKind::kCrash, 1.0},
                    {0.5, 0, FaultKind::kRecover, 1.0}}),
               Error);
  EXPECT_THROW(runtime::validate_fault_schedule(
                   {{1.0, 0, FaultKind::kDegrade, 0.5}}),
               Error);
  EXPECT_THROW(runtime::validate_fault_schedule(
                   {{1.0, 0, FaultKind::kCrash, 2.5}}),
               Error);
  runtime::validate_fault_schedule({}); // empty is fine
}

// --- Crash, retry, and bit-identical re-execution. ---

TEST(FaultTolerance, CrashVictimRetriesAndServesBitIdentically) {
  const Served s = make_served(6);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();

  BatchRunner reference(config, s.net, s.weights, options(1, true));
  const double interval =
      reference.pool().pcu(0).request_interval_overlapped();
  const double warmup = reference.pool().pcu(0).warmup_time();

  BatchRunnerOptions copts = options(1, true);
  copts.faults.schedule = {
      {warmup + 1.5 * interval, 0, FaultKind::kCrash, 1.0},
      {warmup + 3.5 * interval, 0, FaultKind::kRecover, 1.0},
  };
  BatchRunner crashy(config, s.net, s.weights, copts);

  OpenLoopReport report;
  const std::vector<RequestResult> results = crashy.run_open_loop(
      s.inputs, ArrivalSchedule(s.inputs.size(), 0.0), &report);

  EXPECT_GE(report.fault.crash_losses, 1u);
  EXPECT_GE(report.fault.retries, 1u);
  EXPECT_GE(report.fault.recovered_requests, 1u);
  EXPECT_EQ(0u, report.failed_requests);
  EXPECT_EQ(s.inputs.size(), report.served_requests);
  EXPECT_EQ(report.requests,
            report.served_requests + report.shed_requests +
                report.failed_requests);
  // The retried request re-executes from the same per-request seed, so
  // every output — including the crash victim's — matches the sequential
  // reference bit for bit.
  ASSERT_EQ(s.inputs.size(), results.size());
  for (std::size_t id = 0; id < results.size(); ++id) {
    EXPECT_FALSE(results[id].failed);
    EXPECT_EQ(reference.run_one(s.inputs[id], id).output, results[id].output)
        << "request " << id;
  }
  // The recovered request's sojourn is the retry-latency tail.
  EXPECT_GT(report.retry_latency.max, 0.0);
}

TEST(FaultTolerance, FleetDeathFailsRemainingRequests) {
  const Served s = make_served(6);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();

  BatchRunner probe(config, s.net, s.weights, options(1));
  const double interval = probe.pool().pcu(0).request_interval_overlapped();
  const double warmup = probe.pool().pcu(0).warmup_time();

  // The lone PCU dies mid-run and never recovers: requests completed
  // before the crash are served, everything else is permanently lost.
  BatchRunnerOptions dead = options(1, true);
  dead.faults.schedule = {
      {warmup + 2.5 * interval, 0, FaultKind::kCrash, 1.0},
  };
  BatchRunner runner(config, s.net, s.weights, dead);

  OpenLoopReport report;
  const std::vector<RequestResult> results = runner.run_open_loop(
      s.inputs, ArrivalSchedule(s.inputs.size(), 0.0), &report);

  EXPECT_GT(report.failed_requests, 0u);
  EXPECT_GT(report.served_requests, 0u);
  EXPECT_EQ(s.inputs.size(),
            report.served_requests + report.failed_requests);
  EXPECT_EQ(report.failed_requests, report.fault.losses.size());
  EXPECT_EQ(report.failed_requests, report.fault.lost_requests);
  std::size_t failed = 0;
  for (const RequestResult& r : results) {
    if (!r.failed) continue;
    ++failed;
    EXPECT_TRUE(r.output.empty());
  }
  EXPECT_EQ(report.failed_requests, failed);
}

TEST(FaultTolerance, RetryBudgetExhaustionLosesTheRequest) {
  const Served s = make_served(4);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();

  BatchRunner probe(config, s.net, s.weights, options(1));
  const double interval = probe.pool().pcu(0).request_interval_overlapped();
  const double warmup = probe.pool().pcu(0).warmup_time();

  // Zero retry budget: the crash victim is lost on its first destroyed
  // attempt even though the PCU comes right back.
  BatchRunnerOptions no_budget = options(1);
  no_budget.faults.retry.max_retries = 0;
  no_budget.faults.schedule = {
      {warmup + 1.5 * interval, 0, FaultKind::kCrash, 1.0},
      {warmup + 2.0 * interval, 0, FaultKind::kRecover, 1.0},
  };
  BatchRunner runner(config, s.net, s.weights, no_budget);
  const OpenLoopReport report = runner.simulate_open_loop(
      ArrivalSchedule(s.inputs.size(), 0.0));

  EXPECT_EQ(1u, report.failed_requests);
  EXPECT_EQ(0u, report.fault.retries);
  EXPECT_EQ(s.inputs.size() - 1, report.served_requests);
  ASSERT_EQ(1u, report.fault.losses.size());
  EXPECT_EQ(1u, report.fault.losses[0].attempts);
}

// A closed batch's FleetReport counts served requests only. A fault-blind
// crash of PCU 1 at t = 0 loses every request dispatched to it; those must
// neither dilute the mean latency nor inflate the throughput.
TEST(FaultTolerance, FleetReportCountsOnlyServedRequests) {
  const Served s = make_served(12);
  BatchRunnerOptions o = options(2);
  o.faults.health_aware = false;
  o.faults.schedule = {{0.0, 1, FaultKind::kCrash, 1.0}};
  BatchRunner runner(PcnnaConfig::paper_defaults(), s.net, s.weights, o);

  runtime::FleetReport fleet;
  const std::vector<RequestResult> results = runner.run(s.inputs, &fleet);
  std::size_t failed = 0;
  for (const RequestResult& r : results) failed += r.failed ? 1 : 0;
  ASSERT_EQ(6u, failed);
  ASSERT_EQ(2u, fleet.per_pcu.size());
  EXPECT_EQ(6u, fleet.per_pcu[0].requests);
  EXPECT_EQ(0u, fleet.per_pcu[1].requests);

  // The same closed batch through the open-loop report, which has always
  // summarized the served requests alone.
  const OpenLoopReport open =
      runner.simulate_open_loop(runtime::closed_batch_arrivals(12));
  ASSERT_EQ(6u, open.served_requests);
  EXPECT_EQ(open.makespan, fleet.makespan);
  EXPECT_DOUBLE_EQ(open.latency.mean, fleet.mean_latency);
  EXPECT_DOUBLE_EQ(open.achieved_rps, fleet.throughput_rps);
  EXPECT_EQ(open.latency.max, fleet.max_latency);
}

// --- The fault-blind baseline the tolerance stack is measured against. ---

TEST(FaultTolerance, BlindDispatchLosesWhatHealthAwareRecovers) {
  const Served s = make_served(2);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();
  const std::size_t kRequests = 400;

  BatchRunner probe(config, s.net, s.weights, options(3));
  const double capacity = probe.simulate_open_loop({}).fleet_capacity_rps;
  const ArrivalSchedule arrivals =
      runtime::poisson_arrivals(kRequests, 0.6 * capacity, 17);

  FaultModel hazard = crashy_model(arrivals.back());
  hazard.transient_weight = 0.0;
  hazard.degrade_weight = 0.0;
  const FaultSchedule faults = runtime::poisson_faults(3, hazard, 23);
  ASSERT_FALSE(faults.empty());

  BatchRunnerOptions blind_options = options(3);
  blind_options.faults.schedule = faults;
  blind_options.faults.health_aware = false;
  BatchRunner blind(config, s.net, s.weights, blind_options);
  const OpenLoopReport blind_report = blind.simulate_open_loop(arrivals);

  BatchRunnerOptions aware_options = options(3);
  aware_options.faults.schedule = faults;
  BatchRunner aware(config, s.net, s.weights, aware_options);
  const OpenLoopReport aware_report = aware.simulate_open_loop(arrivals);

  // Blind dispatch keeps feeding dead PCUs: every touched request is a
  // permanent loss. Health-aware dispatch retries them elsewhere.
  EXPECT_GT(blind_report.failed_requests, 0u);
  EXPECT_EQ(0u, blind_report.fault.retries);
  EXPECT_GT(aware_report.served_requests, blind_report.served_requests);
  EXPECT_GE(static_cast<double>(aware_report.served_requests),
            0.95 * static_cast<double>(kRequests));
  EXPECT_EQ(blind_report.requests, aware_report.requests);
}

// --- Degrade, quarantine, and repair. ---

TEST(FaultTolerance, QuarantineRepairsDrift) {
  const Served s = make_served(2);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();
  const std::size_t kRequests = 200;

  BatchRunner probe(config, s.net, s.weights, options(2));
  const double capacity = probe.simulate_open_loop({}).fleet_capacity_rps;
  const double interval = probe.pool().pcu(0).request_interval_overlapped();
  const ArrivalSchedule arrivals =
      runtime::poisson_arrivals(kRequests, 0.5 * capacity, 31);

  BatchRunnerOptions dopts = options(2);
  dopts.faults.schedule = {
      {10.0 * interval, 1, FaultKind::kDegrade, 2.0},
  };
  dopts.faults.detection_latency = interval;
  dopts.faults.repair_time = 3.0 * interval;
  BatchRunner runner(config, s.net, s.weights, dopts);
  const OpenLoopReport report = runner.simulate_open_loop(arrivals);

  EXPECT_EQ(1u, report.fault.quarantines);
  EXPECT_EQ(1u, report.fault.repairs);
  EXPECT_GE(report.fault.repair_time, dopts.faults.repair_time);

  ASSERT_EQ(2u, report.fault.per_pcu.size());
  const runtime::PcuHealthStats& h = report.fault.per_pcu[1];
  EXPECT_EQ(1u, h.degrades);
  EXPECT_EQ(1u, h.quarantines);
  EXPECT_EQ(1u, h.repairs);
  EXPECT_GT(h.degraded_time, 0.0);
  EXPECT_GT(h.quarantined_time, 0.0);
  EXPECT_LT(h.availability, 1.0);
  EXPECT_GT(h.availability, 0.0);
  // The untouched PCU stays fully available.
  EXPECT_DOUBLE_EQ(1.0, report.fault.per_pcu[0].availability);
  // Nothing was permanently lost: drift slows, it does not destroy.
  EXPECT_EQ(0u, report.failed_requests);
  EXPECT_EQ(kRequests, report.served_requests);
}

// A fault-blind run never quarantines or retries, but an external kRecover
// still repairs the crashed PCU. The printed report shows that repair and
// no zero-filled quarantine row.
TEST(FaultTolerance, BlindRunReportsRecoverRepairWithoutQuarantineRow) {
  Rng rng(21);
  const nn::Network net = nn::lenet5();
  const nn::NetWeights weights = nn::make_network_weights(net, rng);
  std::vector<nn::Tensor> inputs;
  for (std::size_t i = 0; i < 8; ++i)
    inputs.push_back(nn::make_network_input(net, rng));
  const PcnnaConfig config = PcnnaConfig::paper_defaults();

  BatchRunner probe(config, net, weights, options(2));
  const double interval = probe.pool().pcu(0).request_interval_overlapped();
  const double warmup = probe.pool().pcu(0).warmup_time();

  BatchRunnerOptions bopts = options(2);
  bopts.faults.health_aware = false;
  bopts.faults.schedule = {
      {warmup + 0.5 * interval, 1, FaultKind::kCrash, 1.0},
      {warmup + 2.5 * interval, 1, FaultKind::kRecover, 1.0},
  };
  BatchRunner runner(config, net, weights, bopts);
  OpenLoopReport report;
  runner.run_open_loop(inputs, ArrivalSchedule(inputs.size(), 0.0), &report);

  EXPECT_EQ(2u, report.fault.injections);
  EXPECT_EQ(1u, report.fault.repairs);
  EXPECT_EQ(0u, report.fault.quarantines);
  EXPECT_EQ(0u, report.fault.retries);
  ASSERT_EQ(2u, report.fault.per_pcu.size());
  EXPECT_EQ(1u, report.fault.per_pcu[1].repairs);

  std::ostringstream os;
  BatchRunner::print_report(report, os, "blind recover");
  // Rows of the summary table start a line with their label cell; the
  // per-PCU health table names both only as column headers.
  const std::string text = "\n" + os.str();
  EXPECT_NE(std::string::npos, text.find("\n| repairs ")) << text;
  EXPECT_EQ(std::string::npos, text.find("\n| quarantines ")) << text;
  EXPECT_EQ(std::string::npos, text.find("\n| retries ")) << text;
}

// An undetected degrade (blind mode) inflates service times for the rest
// of the run — the makespan must stretch relative to the fault-free run.
TEST(FaultTolerance, UndetectedDegradeInflatesServiceTimes) {
  const Served s = make_served(2);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();
  const ArrivalSchedule arrivals(64, 0.0);

  BatchRunner clean(config, s.net, s.weights, options(1));
  const OpenLoopReport clean_report = clean.simulate_open_loop(arrivals);

  BatchRunnerOptions dopts = options(1);
  dopts.faults.health_aware = false;
  dopts.faults.schedule = {{0.0, 0, FaultKind::kDegrade, 2.0}};
  BatchRunner degraded(config, s.net, s.weights, dopts);
  const OpenLoopReport degraded_report = degraded.simulate_open_loop(arrivals);

  EXPECT_GT(degraded_report.makespan, 1.5 * clean_report.makespan);
  EXPECT_EQ(clean_report.served_requests, degraded_report.served_requests);
}

// --- Transient corruption: detected at completion, retried. ---

TEST(FaultTolerance, TransientCorruptionIsRetried) {
  const Served s = make_served(4);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();

  BatchRunner probe(config, s.net, s.weights, options(1));
  const double interval = probe.pool().pcu(0).request_interval_overlapped();
  const double warmup = probe.pool().pcu(0).warmup_time();

  BatchRunnerOptions topts = options(1);
  topts.faults.schedule = {
      {warmup + 1.5 * interval, 0, FaultKind::kTransient, 1.0},
  };
  BatchRunner runner(config, s.net, s.weights, topts);
  const OpenLoopReport report = runner.simulate_open_loop(
      ArrivalSchedule(s.inputs.size(), 0.0));

  EXPECT_EQ(1u, report.fault.transient_corruptions);
  EXPECT_EQ(0u, report.fault.crash_losses);
  EXPECT_EQ(1u, report.fault.retries);
  EXPECT_EQ(1u, report.fault.recovered_requests);
  EXPECT_EQ(0u, report.failed_requests);
  EXPECT_EQ(s.inputs.size(), report.served_requests);
  // The corrupt attempt burned real PCU time that is not in the schedule.
  ASSERT_EQ(1u, report.per_pcu.size());
  EXPECT_EQ(1u, report.per_pcu[0].lost_attempts);
  EXPECT_GT(report.per_pcu[0].lost_time, 0.0);
}

// --- Determinism of the whole fault pipeline. ---

TEST(FaultTolerance, ReportsAreDeterministicAcrossRunsAndEngineThreads) {
  const Served s = make_served(2);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();
  const std::size_t kRequests = 300;

  BatchRunner probe(config, s.net, s.weights, options(3));
  const double capacity = probe.simulate_open_loop({}).fleet_capacity_rps;
  const ArrivalSchedule arrivals =
      runtime::poisson_arrivals(kRequests, 0.8 * capacity, 13);

  FaultModel hazard = crashy_model(arrivals.back());
  hazard.degrade_severity = 1.75;
  const FaultSchedule faults = runtime::poisson_faults(3, hazard, 29);

  const auto run = [&](std::size_t engine_threads) {
    BatchRunnerOptions o = options(3);
    o.engine_threads = engine_threads;
    o.faults.schedule = faults;
    o.faults.detection_latency = 1e-6;
    o.faults.retry.backoff_base = 1e-6;
    o.faults.repair_time = 1e-5;
    BatchRunner runner(config, s.net, s.weights, o);
    return runner.simulate_open_loop(arrivals);
  };

  const OpenLoopReport a = run(0);
  const OpenLoopReport b = run(0);
  const OpenLoopReport c = run(2);

  for (const OpenLoopReport* other : {&b, &c}) {
    EXPECT_EQ(a.fault.injections, other->fault.injections);
    EXPECT_EQ(a.fault.crash_losses, other->fault.crash_losses);
    EXPECT_EQ(a.fault.transient_corruptions,
              other->fault.transient_corruptions);
    EXPECT_EQ(a.fault.retries, other->fault.retries);
    EXPECT_EQ(a.fault.recovered_requests, other->fault.recovered_requests);
    EXPECT_EQ(a.fault.lost_requests, other->fault.lost_requests);
    EXPECT_EQ(a.fault.quarantines, other->fault.quarantines);
    EXPECT_EQ(a.fault.repairs, other->fault.repairs);
    EXPECT_EQ(a.served_requests, other->served_requests);
    EXPECT_EQ(a.failed_requests, other->failed_requests);
    // Bitwise, not approximate: the virtual clock never touches host time.
    EXPECT_EQ(a.makespan, other->makespan);
    EXPECT_EQ(a.latency.p99, other->latency.p99);
    EXPECT_EQ(a.retry_latency.p99, other->retry_latency.p99);
    ASSERT_EQ(a.fault.per_pcu.size(), other->fault.per_pcu.size());
    for (std::size_t p = 0; p < a.fault.per_pcu.size(); ++p) {
      EXPECT_EQ(a.fault.per_pcu[p].availability,
                other->fault.per_pcu[p].availability);
      EXPECT_EQ(a.fault.per_pcu[p].lost_time,
                other->fault.per_pcu[p].lost_time);
    }
    ASSERT_EQ(a.fault.losses.size(), other->fault.losses.size());
    for (std::size_t i = 0; i < a.fault.losses.size(); ++i) {
      EXPECT_EQ(a.fault.losses[i].id, other->fault.losses[i].id);
      EXPECT_EQ(a.fault.losses[i].time, other->fault.losses[i].time);
    }
  }
}

// Retry composes with load shedding: a retry that can no longer meet its
// deadline flows into the ordinary shed_expired path instead of burning a
// doomed service slot.
TEST(FaultTolerance, HopelessRetriesFlowIntoTheShedPath) {
  const Served s = make_served(6);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();

  BatchRunner probe(config, s.net, s.weights, options(1));
  const double interval = probe.pool().pcu(0).request_interval_overlapped();
  const double warmup = probe.pool().pcu(0).warmup_time();

  BatchRunnerOptions sopts = options(1);
  sopts.shed_expired = true;
  sopts.faults.schedule = {
      {warmup + 1.5 * interval, 0, FaultKind::kCrash, 1.0},
      {warmup + 3.5 * interval, 0, FaultKind::kRecover, 1.0},
  };
  BatchRunner runner(config, s.net, s.weights, sopts);

  // Deadlines sized so everything fits fault-free, but the crash victim's
  // retry (plus the downtime) cannot: it must be shed, not failed.
  runtime::SloSchedule slos;
  for (std::size_t i = 0; i < s.inputs.size(); ++i)
    slos.push_back({/*tenant=*/0, runtime::PriorityClass::kStandard,
                    warmup + 2.2 * interval + static_cast<double>(i) *
                                                  interval});
  const OpenLoopReport report = runner.simulate_open_loop(
      ArrivalSchedule(s.inputs.size(), 0.0), slos);

  EXPECT_GE(report.fault.crash_losses, 1u);
  EXPECT_GT(report.shed_requests, 0u);
  EXPECT_EQ(report.requests,
            report.served_requests + report.shed_requests +
                report.failed_requests);
}

} // namespace
