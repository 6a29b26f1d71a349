// SLO-aware multi-tenant serving: class-partitioned EDF admission order,
// load shedding against per-request deadlines, elastic fleet sizing, and
// the per-tenant report slices.
//
// The load-bearing guarantees pinned here:
//  * the warmup recharge boundary (start == free_at is back-to-back, not
//    idle) holds on BOTH admission modes — the EDF rework must not flip it;
//  * EDF defers commitments: a later tighter-deadline arrival overtakes
//    already-queued work, with strict PriorityClass precedence over raw
//    deadlines;
//  * shedding rejects exactly the requests whose predicted completion
//    would blow their SLO, and served outputs stay bit-identical to the
//    sequential reference (a shed neighbor never changes anyone's bits);
//  * the autoscaler grows on backlog, shrinks after idle, and charges the
//    cold-start warmup on every (re)activation regardless of WarmupPolicy;
//  * serve_all surfaces a worker's original exception, not the secondary
//    "never served" check.
#include <gtest/gtest.h>

#include <algorithm>
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
using runtime::RequestSlo;
using runtime::ScheduledService;
using runtime::SloSchedule;
using runtime::TenantClass;

/// `n` identical paper-default PCU specs.
std::vector<runtime::PcuSpec> paper_fleet(std::size_t n) {
  runtime::PcuSpec spec;
  spec.config = PcnnaConfig::paper_defaults();
  return std::vector<runtime::PcuSpec>(n, spec);
}

struct Served {
  nn::Network net;
  nn::NetWeights weights;
  std::vector<nn::Tensor> inputs;
};

Served make_served(std::size_t batch, std::uint64_t seed = 55) {
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
  o.seed = 123;
  return o;
}

/// One scheduling-only request (no tensor) for direct admission tests.
InferenceRequest timing_request(std::uint64_t id, double arrival,
                                PriorityClass priority = PriorityClass::kStandard,
                                double deadline =
                                    std::numeric_limits<double>::infinity(),
                                std::uint32_t tenant = 0) {
  InferenceRequest r;
  r.id = id;
  r.arrival_time = arrival;
  r.priority = priority;
  r.deadline = deadline;
  r.tenant = tenant;
  return r;
}

AdmissionResult admit(PcuPool& pool, std::vector<InferenceRequest> requests,
                      const AdmissionOptions& admission) {
  RequestQueue queue;
  for (InferenceRequest& r : requests) queue.push(std::move(r));
  queue.close();
  return pool.simulate_admission(queue, admission);
}

// --- Warmup recharge boundary (satellite bugfix) ---

// A request landing exactly when the PCU frees is back-to-back: the
// double-buffer pipeline never drained, so no warmup recharge. Pinned on
// both admission modes so the EDF rework cannot silently flip the
// comparison from strict to non-strict.
TEST(WarmupBoundary, ExactBoundaryIsBackToBackOnBothAdmissionModes) {
  const Served s = make_served(0);
  PcuPool pool(paper_fleet(1), TimingFidelity::kFull,
               s.net, s.weights);
  const double interval = pool.pcu(0).request_interval_overlapped();
  const double warmup = pool.pcu(0).warmup_time();
  ASSERT_GT(warmup, 0.0);

  // Request 0 at t=0 (cold), request 1 exactly at its completion
  // (back-to-back), request 2 after an idle gap (cold again).
  const double t1 = 0.0 + (interval + warmup); // request 0's completion
  const double t2 = t1 + interval + 3.0 * interval;

  for (DispatchPolicy policy :
       {DispatchPolicy::kEarliestFree, DispatchPolicy::kEdf}) {
    AdmissionOptions admission;
    admission.policy = policy;
    const AdmissionResult r =
        admit(pool,
              {timing_request(0, 0.0), timing_request(1, t1),
               timing_request(2, t2)},
              admission);
    ASSERT_EQ(3u, r.schedule.size()) << dispatch_policy_name(policy);
    EXPECT_EQ(warmup, r.schedule[0].warmup) << dispatch_policy_name(policy);
    EXPECT_EQ(0.0, r.schedule[1].warmup)
        << dispatch_policy_name(policy)
        << ": start == free_at must count as back-to-back, not idle";
    EXPECT_EQ(warmup, r.schedule[2].warmup) << dispatch_policy_name(policy);
    EXPECT_EQ(t1, r.schedule[1].start);
  }
}

// --- EDF admission order (tentpole) ---

TEST(EdfAdmission, StrictClassPrecedenceThenDeadline) {
  const Served s = make_served(0);
  PcuPool pool(paper_fleet(1), TimingFidelity::kFull,
               s.net, s.weights);
  const double interval = pool.pcu(0).request_interval_overlapped();

  // All queued at t=0 on one PCU. A near-expiry best-effort request must
  // NOT overtake interactive or standard traffic (class-partitioned EDF),
  // and within a class the earlier deadline wins regardless of id.
  AdmissionOptions admission;
  admission.policy = DispatchPolicy::kEdf;
  const AdmissionResult r =
      admit(pool,
            {timing_request(0, 0.0, PriorityClass::kStandard, 50.0 * interval),
             timing_request(1, 0.0, PriorityClass::kBestEffort,
                            1.0 * interval),
             timing_request(2, 0.0, PriorityClass::kInteractive,
                            40.0 * interval),
             timing_request(3, 0.0, PriorityClass::kStandard,
                            20.0 * interval)},
            admission);
  ASSERT_EQ(4u, r.schedule.size());
  EXPECT_EQ(2u, r.schedule[0].id) << "interactive first";
  EXPECT_EQ(3u, r.schedule[1].id) << "standard, earlier deadline";
  EXPECT_EQ(0u, r.schedule[2].id) << "standard, later deadline";
  EXPECT_EQ(1u, r.schedule[3].id) << "best-effort last despite its deadline";
}

TEST(EdfAdmission, LaterTighterDeadlineArrivalOvertakesQueuedWork) {
  const Served s = make_served(0);
  PcuPool pool(paper_fleet(1), TimingFidelity::kFull,
               s.net, s.weights);
  const double interval = pool.pcu(0).request_interval_overlapped();
  const double warmup = pool.pcu(0).warmup_time();

  // Request 0 occupies the PCU from t=0. Requests 1 and 2 arrive while it
  // runs; 2 arrives LAST but with the tighter deadline, so the deferred
  // dispatch at the first free instant must pick it before 1. The eager
  // FIFO loop could never produce this order.
  AdmissionOptions admission;
  admission.policy = DispatchPolicy::kEdf;
  const AdmissionResult r = admit(
      pool,
      {timing_request(0, 0.0, PriorityClass::kStandard, 100.0 * interval),
       timing_request(1, 0.1 * interval, PriorityClass::kStandard,
                      90.0 * interval),
       timing_request(2, 0.2 * interval, PriorityClass::kStandard,
                      5.0 * interval)},
      admission);
  ASSERT_EQ(3u, r.schedule.size());
  EXPECT_EQ(0u, r.schedule[0].id);
  EXPECT_EQ(2u, r.schedule[1].id) << "tighter deadline overtakes";
  EXPECT_EQ(1u, r.schedule[2].id);
  // Deferred dispatch starts work when the PCU frees, not earlier.
  EXPECT_EQ(warmup + interval, r.schedule[1].start);
}

TEST(EdfAdmission, WithoutDeadlinesMatchesFifoOrder) {
  const Served s = make_served(0);
  PcuPool pool(paper_fleet(2), TimingFidelity::kFull,
               s.net, s.weights);
  const ArrivalSchedule arrivals = runtime::poisson_arrivals(200, 1.0e6, 9);

  std::vector<InferenceRequest> fifo_reqs, edf_reqs;
  for (std::size_t id = 0; id < arrivals.size(); ++id) {
    fifo_reqs.push_back(timing_request(id, arrivals[id]));
    edf_reqs.push_back(timing_request(id, arrivals[id]));
  }
  AdmissionOptions fifo;
  AdmissionOptions edf;
  edf.policy = DispatchPolicy::kEdf;
  const AdmissionResult a = admit(pool, std::move(fifo_reqs), fifo);
  const AdmissionResult b = admit(pool, std::move(edf_reqs), edf);

  // With every deadline at +inf the EDF order degenerates to (arrival,
  // id) — FIFO — and the deferred loop must reproduce the eager loop's
  // dispatch order exactly (completion times can only match too, since
  // both dispatch to the earliest-completing free PCU of an all-equal
  // fleet).
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t i = 0; i < a.schedule.size(); ++i)
    EXPECT_EQ(a.schedule[i].id, b.schedule[i].id) << "entry " << i;
}

// --- Load shedding (tentpole) ---

TEST(LoadShedding, RejectsExactlyTheRequestsThatWouldBlowTheirSlo) {
  const Served s = make_served(0);
  BatchRunner runner(PcnnaConfig::paper_defaults(), s.net, s.weights,
                     [&] {
                       BatchRunnerOptions o = options(1, false);
                       o.shed_expired = true;
                       return o;
                     }());
  const double interval =
      runner.pool().pcu(0).request_interval_overlapped();
  const double warmup = runner.pool().pcu(0).warmup_time();

  // Four requests at t=0, one PCU, every deadline allows exactly one
  // service (warmup + 1.5 intervals): the first is served, the rest are
  // shed the moment the PCU frees and their completion would be late.
  const std::size_t batch = 4;
  SloSchedule slos(batch, RequestSlo{7, PriorityClass::kInteractive,
                                     warmup + 1.5 * interval});
  const OpenLoopReport r = runner.simulate_open_loop(
      runtime::closed_batch_arrivals(batch), slos);

  EXPECT_EQ(batch, r.requests);
  EXPECT_EQ(1u, r.served_requests);
  EXPECT_EQ(3u, r.shed_requests);
  EXPECT_DOUBLE_EQ(0.75, r.shed_rate);
  EXPECT_DOUBLE_EQ(0.25, r.slo_attainment);
  ASSERT_EQ(1u, r.per_tenant.size());
  EXPECT_EQ(7u, r.per_tenant[0].tenant);
  EXPECT_EQ(batch, r.per_tenant[0].requests);
  EXPECT_EQ(1u, r.per_tenant[0].served);
  EXPECT_EQ(3u, r.per_tenant[0].shed);
  EXPECT_EQ(3u, r.per_tenant[0].slo_misses);
  // Achieved throughput counts served work only.
  EXPECT_DOUBLE_EQ(1.0 / r.makespan, r.achieved_rps);
}

TEST(LoadShedding, InfiniteDeadlinesAreNeverShed) {
  const Served s = make_served(0);
  BatchRunner runner(PcnnaConfig::paper_defaults(), s.net, s.weights,
                     [&] {
                       BatchRunnerOptions o = options(1, false);
                       o.shed_expired = true;
                       return o;
                     }());
  const OpenLoopReport r =
      runner.simulate_open_loop(runtime::closed_batch_arrivals(50));
  EXPECT_EQ(50u, r.requests);
  EXPECT_EQ(0u, r.shed_requests);
  EXPECT_TRUE(r.per_tenant.empty())
      << "a run without SLO metadata reports no tenant slices";
}

TEST(LoadShedding, ServedOutputsBitIdenticalAndShedSlotsFlagged) {
  const Served s = make_served(3);
  BatchRunner runner(PcnnaConfig::paper_defaults(), s.net, s.weights,
                     [&] {
                       BatchRunnerOptions o = options(1);
                       o.shed_expired = true;
                       return o;
                     }());
  const double interval =
      runner.pool().pcu(0).request_interval_overlapped();
  const double warmup = runner.pool().pcu(0).warmup_time();

  SloSchedule slos(3, RequestSlo{0, PriorityClass::kStandard,
                                 warmup + 1.5 * interval});
  OpenLoopReport report;
  const std::vector<RequestResult> out = runner.run_open_loop(
      s.inputs, runtime::closed_batch_arrivals(3), &report, slos);

  ASSERT_EQ(3u, out.size());
  EXPECT_FALSE(out[0].shed);
  EXPECT_TRUE(out[1].shed);
  EXPECT_TRUE(out[2].shed);
  EXPECT_TRUE(out[1].output.empty()) << "shed slots are placeholders";
  EXPECT_EQ(1u, out[1].id);

  // A shed neighbor never changes a served request's bits.
  BatchRunner single(PcnnaConfig::paper_defaults(), s.net, s.weights,
                     options(1));
  EXPECT_EQ(single.run_one(s.inputs[0], 0).output, out[0].output);
  EXPECT_EQ(1u, report.served_requests);
  EXPECT_EQ(2u, report.shed_requests);
}

// --- Elastic fleet sizing (tentpole) ---

TEST(Autoscaler, GrowsOnBacklogShrinksAfterIdleAndRechargesColdStarts) {
  const Served s = make_served(0);
  runtime::PcuSpec spec;
  spec.config = PcnnaConfig::paper_defaults();
  // Pinned calibration would never re-pay warmup on its own — so any
  // warmup charged after the first request per PCU must come from the
  // autoscaler's forced cold start.
  spec.warmup = runtime::WarmupPolicy::kPinnedAfterFirst;
  BatchRunner probe(std::vector<runtime::PcuSpec>(2, spec), s.net,
                    s.weights, options(2, false));
  const double interval = probe.pool().pcu(0).request_interval_overlapped();
  const double warmup = probe.pool().pcu(0).warmup_time();
  ASSERT_GT(warmup, 0.0);

  // Phase A: burst of 6 at t=0 (backlog > 1 per active PCU -> grow to 2).
  // Phase B: sparse singles (PCU 1 idles past the threshold -> shrink).
  // Phase C: second burst (grow again -> PCU 1 must pay a cold start even
  // under kPinnedAfterFirst).
  ArrivalSchedule arrivals(6, 0.0);
  const double base = warmup + 6.0 * interval;
  for (int k = 0; k < 3; ++k)
    arrivals.push_back(base + 20.0 * interval * static_cast<double>(k));
  const double burst2 = base + 70.0 * interval;
  for (int k = 0; k < 6; ++k) arrivals.push_back(burst2);

  BatchRunner scaled(std::vector<runtime::PcuSpec>(2, spec), s.net,
                     s.weights, [&] {
                       BatchRunnerOptions o = options(2, false);
                       o.autoscaler.enabled = true;
                       o.autoscaler.min_active = 1;
                       o.autoscaler.max_active = 2;
                       o.autoscaler.backlog_per_pcu = 1.0;
                       o.autoscaler.shrink_after_idle = 5.0 * interval;
                       return o;
                     }());
  const OpenLoopReport r = scaled.simulate_open_loop(arrivals);

  EXPECT_EQ(15u, r.requests);
  EXPECT_GE(r.autoscaler.scale_ups, 2u) << "grew in both bursts";
  EXPECT_GE(r.autoscaler.scale_downs, 1u) << "shrank in the quiet phase";
  EXPECT_GT(r.autoscaler.mean_active, 1.0);
  EXPECT_LT(r.autoscaler.mean_active, 2.0);

  // The second burst's work on PCU 1 re-paid the pipeline fill.
  EXPECT_GT(r.per_pcu[1].warmup_time, warmup * 1.5)
      << "a reactivated PCU must charge the cold start even when pinned";
}

TEST(Autoscaler, DisabledReportsFullFleetActive) {
  const Served s = make_served(0);
  BatchRunner runner(PcnnaConfig::paper_defaults(), s.net, s.weights,
                     options(3, false));
  const OpenLoopReport r =
      runner.simulate_open_loop(runtime::uniform_arrivals(40, 1.0e5));
  EXPECT_DOUBLE_EQ(3.0, r.autoscaler.mean_active);
  EXPECT_EQ(0u, r.autoscaler.scale_ups);
  EXPECT_EQ(0u, r.autoscaler.scale_downs);
}

TEST(Autoscaler, RejectsInvalidEnvelope) {
  const Served s = make_served(0);
  PcuPool pool(paper_fleet(2), TimingFidelity::kFull,
               s.net, s.weights);
  AdmissionOptions admission;
  admission.autoscaler.enabled = true;
  admission.autoscaler.min_active = 0;
  EXPECT_THROW(admit(pool, {timing_request(0, 0.0)}, admission), Error);
  admission.autoscaler.min_active = 3;
  admission.autoscaler.max_active = 2;
  EXPECT_THROW(admit(pool, {timing_request(0, 0.0)}, admission), Error);

  // Each bad knob is named with its value. Unchecked, a NaN or infinite
  // backlog_per_pcu never grew the fleet (every request on PCU 0), and a
  // negative one woke every PCU at once.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto error = [&](double backlog, double shrink) {
    AdmissionOptions o;
    o.autoscaler.enabled = true;
    o.autoscaler.backlog_per_pcu = backlog;
    o.autoscaler.shrink_after_idle = shrink;
    try {
      admit(pool, {timing_request(0, 0.0)}, o);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  for (const double backlog : {nan, inf, -inf, -1.0}) {
    std::ostringstream got;
    got << "got " << backlog;
    const std::string what = error(backlog, 0.0);
    EXPECT_NE(std::string::npos, what.find("backlog_per_pcu")) << what;
    EXPECT_NE(std::string::npos, what.find(got.str())) << what;
  }
  const std::string what = error(2.0, nan);
  EXPECT_NE(std::string::npos, what.find("shrink_after_idle")) << what;
  EXPECT_NE(std::string::npos, what.find("got nan")) << what;
  // A threshold <= 0 means "never shrink", as does one no idle time reaches.
  for (const double shrink : {0.0, -1.0, -inf, inf})
    EXPECT_EQ("", error(2.0, shrink)) << "shrink_after_idle " << shrink;
  EXPECT_EQ("", error(0.0, 0.0)) << "grow whenever a request waits";
}

// --- Tenant mixes (runtime/arrival.hpp) ---

TEST(AssignTenants, DeterministicWeightedSplitWithAbsoluteDeadlines) {
  const ArrivalSchedule arrivals = runtime::poisson_arrivals(4000, 1.0e6, 3);
  const std::vector<TenantClass> mix = {
      {1, PriorityClass::kInteractive, 0.25, 1e-3},
      {2, PriorityClass::kBestEffort, 0.75, 1.0},
  };
  const SloSchedule a = runtime::assign_tenants(arrivals, mix, 42);
  const SloSchedule b = runtime::assign_tenants(arrivals, mix, 42);
  ASSERT_EQ(arrivals.size(), a.size());

  std::size_t interactive = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tenant, b[i].tenant) << "same seed, same assignment";
    if (a[i].tenant == 1) {
      ++interactive;
      EXPECT_EQ(PriorityClass::kInteractive, a[i].priority);
      EXPECT_DOUBLE_EQ(arrivals[i] + 1e-3, a[i].deadline)
          << "deadline is absolute: arrival + budget";
    } else {
      EXPECT_EQ(2u, a[i].tenant);
    }
  }
  // ~25% share, generous tolerance for a seeded draw.
  EXPECT_NEAR(0.25, static_cast<double>(interactive) /
                        static_cast<double>(a.size()),
              0.05);

  const SloSchedule c = runtime::assign_tenants(arrivals, mix, 43);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i)
    differs = a[i].tenant != c[i].tenant;
  EXPECT_TRUE(differs) << "a different seed reshuffles the assignment";
}

TEST(AssignTenants, RejectsEmptyMixAndBadWeights) {
  const ArrivalSchedule arrivals = {0.0, 1.0};
  EXPECT_THROW(runtime::assign_tenants(arrivals, {}, 1), Error);
  EXPECT_THROW(
      runtime::assign_tenants(
          arrivals, {{0, PriorityClass::kStandard, 0.0, 1.0}}, 1),
      Error);
  EXPECT_THROW(
      runtime::assign_tenants(
          arrivals, {{0, PriorityClass::kStandard, -2.0, 1.0}}, 1),
      Error);
}

/// The message of the pcnna::Error `f` throws ("" when it throws none).
template <class F>
std::string error_message(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(AssignTenants, RejectsNanBudgetNamingTheEntry) {
  const ArrivalSchedule arrivals = {0.0, 1.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::string message = error_message([&] {
    runtime::assign_tenants(arrivals,
                            {{0, PriorityClass::kInteractive, 1.0, 1e-3},
                             {1, PriorityClass::kBestEffort, 1.0, nan}},
                            1);
  });
  EXPECT_NE(std::string::npos, message.find("tenant mix entry 1"))
      << message;
  // Infinite budgets stay legal.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_NO_THROW(runtime::assign_tenants(
      arrivals,
      {{0, PriorityClass::kStandard, 1.0, inf},
       {1, PriorityClass::kStandard, 1.0, -inf}},
      1));
}

// A NaN deadline compares equivalent to every key of the EDF urgency
// order, so the pending set used to drop the request uncounted: 40
// offered, 23 served, none shed or lost. Admission now rejects it by id,
// on the queue path and through BatchRunner alike.
TEST(SloServing, NanDeadlineIsRejectedNamingTheRequest) {
  const Served s = make_served(0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const DispatchPolicy policy :
       {DispatchPolicy::kEdf, DispatchPolicy::kModelAffinity,
        DispatchPolicy::kPipeline, DispatchPolicy::kEarliestFree}) {
    SCOPED_TRACE(dispatch_policy_name(policy));
    PcuPool pool(paper_fleet(2), TimingFidelity::kFull, s.net, s.weights);
    AdmissionOptions admission;
    admission.policy = policy;
    const std::string message = error_message([&] {
      admit(pool,
            {timing_request(0, 0.0, PriorityClass::kStandard, 1.0),
             timing_request(7, 0.0, PriorityClass::kStandard, nan)},
            admission);
    });
    EXPECT_NE(std::string::npos, message.find("request 7"))
        << message;
  }

  BatchRunnerOptions o = options(2, false);
  o.dispatch = DispatchPolicy::kEdf;
  BatchRunner runner(PcnnaConfig::paper_defaults(), s.net, s.weights, o);
  const ArrivalSchedule arrivals = runtime::poisson_arrivals(40, 1.0e6, 5);
  SloSchedule slos(arrivals.size());
  slos[17].deadline = nan;
  const std::string message =
      error_message([&] { runner.simulate_open_loop(arrivals, slos); });
  EXPECT_NE(std::string::npos, message.find("request 17")) << message;
}

// --- The overload story the bench gates (small-scale mirror) ---

TEST(SloServing, EdfWithSheddingHoldsInteractiveSloWhereFifoCollapses) {
  const Served s = make_served(0);
  BatchRunner probe(PcnnaConfig::paper_defaults(), s.net, s.weights,
                    options(4, false));
  const double capacity = probe.simulate_open_loop({}).fleet_capacity_rps;
  const double interval =
      probe.pool().pcu(0).request_interval_overlapped();
  const double warmup = probe.pool().pcu(0).warmup_time();
  const double budget = warmup + 6.0 * interval;

  const ArrivalSchedule arrivals =
      runtime::poisson_arrivals(3000, 1.3 * capacity, 17);
  const std::vector<TenantClass> mix = {
      {0, PriorityClass::kInteractive, 0.2, budget},
      {1, PriorityClass::kBestEffort, 0.8, 60.0 * interval + warmup},
  };
  const SloSchedule slos = runtime::assign_tenants(arrivals, mix, 5);

  BatchRunner fifo(PcnnaConfig::paper_defaults(), s.net, s.weights,
                   options(4, false));
  const OpenLoopReport fifo_r = fifo.simulate_open_loop(arrivals, slos);

  BatchRunner edf(PcnnaConfig::paper_defaults(), s.net, s.weights, [&] {
    BatchRunnerOptions o = options(4, false);
    o.dispatch = DispatchPolicy::kEdf;
    o.shed_expired = true;
    return o;
  }());
  const OpenLoopReport edf_r = edf.simulate_open_loop(arrivals, slos);

  ASSERT_EQ(2u, fifo_r.per_tenant.size());
  ASSERT_EQ(2u, edf_r.per_tenant.size());
  const auto& fifo_inter = fifo_r.per_tenant[0];
  const auto& edf_inter = edf_r.per_tenant[0];
  ASSERT_EQ(0u, fifo_inter.tenant);
  ASSERT_EQ(0u, edf_inter.tenant);

  // FIFO without shedding: under 1.3x overload the queue grows without
  // bound and the interactive tail blows through its budget.
  EXPECT_GT(fifo_inter.latency.p99, budget);
  // EDF + shedding: interactive requests jump the queue and hopeless work
  // is rejected, so the served interactive tail stays within budget and
  // attainment stays high.
  EXPECT_LE(edf_inter.latency.p99, budget);
  EXPECT_GE(edf_inter.slo_attainment, 0.95);
  EXPECT_GT(edf_inter.slo_attainment, fifo_inter.slo_attainment);
}

// --- serve_all error path (satellite) ---

TEST(ServeAll, WorkerErrorSurfacesOriginalExceptionNotNeverServed) {
  const Served s = make_served(4);
  BatchRunner runner(PcnnaConfig::paper_defaults(), s.net, s.weights,
                     options(2));
  RequestQueue queue;
  for (std::uint64_t id = 0; id < 4; ++id) {
    InferenceRequest r;
    r.id = id;
    r.seed = runtime::derive_request_seed(123, id);
    // Request 2 carries a shape-mismatched (empty) input: its worker
    // throws mid-batch.
    if (id != 2) r.input = s.inputs[id];
    queue.push(std::move(r));
  }
  queue.close();

  bool threw = false;
  try {
    runner.pool().serve_all(queue, 4, /*simulate_values=*/true);
  } catch (const Error& e) {
    threw = true;
    EXPECT_EQ(std::string::npos, std::string(e.what()).find("never served"))
        << "the original worker exception must win over the secondary "
           "completeness check";
  }
  EXPECT_TRUE(threw);
}

// --- serve_scheduled subset schedules ---

TEST(ServeScheduled, SubsetScheduleLeavesPlaceholdersAndRejectsDuplicates) {
  const Served s = make_served(3);
  BatchRunner runner(PcnnaConfig::paper_defaults(), s.net, s.weights,
                     options(1));
  const auto request_for = [&](std::uint64_t id) {
    InferenceRequest r;
    r.id = id;
    r.seed = runtime::derive_request_seed(123, id);
    r.input = s.inputs[id];
    return r;
  };

  // Schedule names only ids 0 and 2: id 1 must come back untouched.
  std::vector<ScheduledService> schedule(2);
  schedule[0].id = 0;
  schedule[1].id = 2;
  std::vector<InferenceRequest> requests;
  for (std::uint64_t id = 0; id < 3; ++id)
    requests.push_back(request_for(id));
  const std::vector<RequestResult> out = runner.pool().serve_scheduled(
      std::move(requests), schedule, /*simulate_values=*/true);
  ASSERT_EQ(3u, out.size());
  EXPECT_FALSE(out[0].output.empty());
  EXPECT_TRUE(out[1].output.empty());
  EXPECT_EQ(1u, out[1].id);
  EXPECT_FALSE(out[2].output.empty());

  // Duplicates are still rejected.
  std::vector<ScheduledService> dup(2);
  dup[0].id = 0;
  dup[1].id = 0;
  std::vector<InferenceRequest> again;
  for (std::uint64_t id = 0; id < 3; ++id) again.push_back(request_for(id));
  EXPECT_THROW(
      runner.pool().serve_scheduled(std::move(again), dup, true), Error);
}

// On schedules without stage spans, serve_scheduled runs each PCU's
// requests in schedule order: exactly a sequential walk that serves entry i
// on PCU schedule[i].pcu. Pinned bitwise (outputs, energy, PcuStats) for
// every non-pipeline policy, with and without shedding, at 1 and 2 engine
// threads, on a mixed fleet.
TEST(ServeScheduled, WholeRequestsMatchASequentialScheduleWalk) {
  const Served s = make_served(10);
  const auto build = [&](std::size_t threads) {
    runtime::PcuSpec big;
    big.config = PcnnaConfig::paper_defaults();
    big.config.engine_threads = threads;
    runtime::PcuSpec small;
    small.config = PcnnaConfig::small_core();
    small.config.engine_threads = threads;
    return PcuPool({big, big, small}, TimingFidelity::kFull, s.net,
                   s.weights);
  };
  std::size_t total_shed = 0;
  for (const std::size_t threads : {1u, 2u}) {
    for (const DispatchPolicy policy : runtime::kAllDispatchPolicies) {
      if (policy == DispatchPolicy::kPipeline) continue;
      for (const bool shed : {false, true}) {
        SCOPED_TRACE(std::string(runtime::dispatch_policy_name(policy)) +
                     (shed ? " shedding, " : ", ") + std::to_string(threads) +
                     " engine threads");
        PcuPool pool = build(threads);
        PcuPool walk = build(threads);
        const double interval = pool.pcu(0).request_interval_overlapped();
        const double warmup = pool.pcu(0).warmup_time();
        std::vector<InferenceRequest> requests;
        for (std::uint64_t id = 0; id < s.inputs.size(); ++id) {
          const double arrival = 0.25 * interval * static_cast<double>(id);
          InferenceRequest r =
              timing_request(id, arrival, PriorityClass::kStandard,
                             arrival + warmup + 1.5 * interval);
          r.seed = runtime::derive_request_seed(123, id);
          r.input = s.inputs[id];
          requests.push_back(std::move(r));
        }
        AdmissionOptions o;
        o.policy = policy;
        o.shed_expired = shed;
        const AdmissionResult admission = admit(pool, requests, o);
        total_shed += admission.shed.shed;

        const std::vector<RequestResult> out =
            pool.serve_scheduled(requests, admission.schedule, true);
        std::vector<RequestResult> expected(requests.size());
        for (const ScheduledService& e : admission.schedule)
          expected[e.id] = walk.pcu(e.pcu).serve(requests[e.id], true);
        ASSERT_EQ(expected.size(), out.size());
        for (std::size_t id = 0; id < out.size(); ++id) {
          EXPECT_EQ(expected[id].output, out[id].output) << "request " << id;
          EXPECT_EQ(expected[id].energy, out[id].energy) << "request " << id;
          EXPECT_EQ(expected[id].pcu_index, out[id].pcu_index)
              << "request " << id;
        }
        for (std::size_t p = 0; p < pool.size(); ++p) {
          const runtime::PcuStats& a = walk.pcu(p).stats();
          const runtime::PcuStats& b = pool.pcu(p).stats();
          EXPECT_EQ(a.requests_served, b.requests_served) << "PCU " << p;
          EXPECT_EQ(a.busy_time_serial, b.busy_time_serial) << "PCU " << p;
          EXPECT_EQ(a.busy_time_overlapped, b.busy_time_overlapped)
              << "PCU " << p;
          EXPECT_EQ(a.energy, b.energy) << "PCU " << p;
        }
      }
    }
  }
  EXPECT_GT(total_shed, 0u) << "the deadlines never exercised shedding";
}

// --- Report plumbing ---

TEST(SloServing, ReportPrintsTenantTableAndShedCounts) {
  const Served s = make_served(0);
  BatchRunner runner(PcnnaConfig::paper_defaults(), s.net, s.weights, [&] {
    BatchRunnerOptions o = options(1, false);
    o.dispatch = DispatchPolicy::kEdf;
    o.shed_expired = true;
    return o;
  }());
  const double interval =
      runner.pool().pcu(0).request_interval_overlapped();
  const double warmup = runner.pool().pcu(0).warmup_time();
  SloSchedule slos(4, RequestSlo{3, PriorityClass::kInteractive,
                                 warmup + 1.5 * interval});
  const OpenLoopReport report = runner.simulate_open_loop(
      runtime::closed_batch_arrivals(4), slos);

  std::ostringstream os;
  BatchRunner::print_report(report, os, "slo unit test");
  const std::string text = os.str();
  EXPECT_NE(std::string::npos, text.find("shed requests"));
  EXPECT_NE(std::string::npos, text.find("SLO attainment"));
  EXPECT_NE(std::string::npos, text.find("per-tenant SLO"));
  EXPECT_NE(std::string::npos, text.find("edf"));
}

TEST(SloServing, DeterministicAcrossRuns) {
  const Served s = make_served(0);
  const auto run = [&] {
    BatchRunner runner(PcnnaConfig::paper_defaults(), s.net, s.weights, [&] {
      BatchRunnerOptions o = options(3, false);
      o.dispatch = DispatchPolicy::kEdf;
      o.shed_expired = true;
      o.autoscaler.enabled = true;
      o.autoscaler.min_active = 1;
      o.autoscaler.backlog_per_pcu = 2.0;
      o.autoscaler.shrink_after_idle = 1e-3;
      return o;
    }());
    const double capacity =
        runner.simulate_open_loop({}).fleet_capacity_rps;
    const ArrivalSchedule arrivals =
        runtime::poisson_arrivals(1500, 1.4 * capacity, 7);
    const std::vector<TenantClass> mix = {
        {0, PriorityClass::kInteractive, 0.3, 2e-4},
        {1, PriorityClass::kStandard, 0.7, 5e-3},
    };
    return runner.simulate_open_loop(
        arrivals, runtime::assign_tenants(arrivals, mix, 11));
  };
  const OpenLoopReport a = run();
  const OpenLoopReport b = run();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.shed_requests, b.shed_requests);
  EXPECT_EQ(a.slo_attainment, b.slo_attainment);
  EXPECT_EQ(a.autoscaler.scale_ups, b.autoscaler.scale_ups);
  EXPECT_EQ(a.autoscaler.mean_active, b.autoscaler.mean_active);
  ASSERT_EQ(a.per_tenant.size(), b.per_tenant.size());
  for (std::size_t t = 0; t < a.per_tenant.size(); ++t) {
    EXPECT_EQ(a.per_tenant[t].slo_attainment, b.per_tenant[t].slo_attainment);
    EXPECT_EQ(a.per_tenant[t].latency.p99, b.per_tenant[t].latency.p99);
  }
}

} // namespace
