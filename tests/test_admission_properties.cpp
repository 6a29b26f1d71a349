// Property tests over the admission loop itself.
//
// The load-bearing guarantees pinned here:
//  * simulate_admission is a pure function of (requests, options): two
//    runs with identical inputs produce bitwise-identical schedules, shed
//    decisions, and autoscaler stats — even on the fully event-driven
//    path (affinity + shedding + autoscaler + multiple models);
//  * engine_threads is a host-parallelism knob: no virtual-time quantity
//    may depend on it, so schedules are bit-identical across settings;
//  * adversarial EDF tie-breaks: requests tied on (class, deadline,
//    arrival) are ordered by id and nothing else — push order, model ids
//    and PCU history must not leak into the order;
//  * options that should do nothing (shedding with no deadlines, an
//    autoscaler pinned at the fleet size) leave the schedule bit-identical;
//  * randomized property sweep: for every dispatch policy x seed x fault
//    schedule, admission conserves requests (offered == served + shed +
//    lost), virtual time is monotone on the event-driven path, and no two
//    services — including pipeline stage spans — overlap on one PCU;
//  * golden digests: every AdmissionResult bit of a policy x option matrix
//    is pinned to recorded FNV-1a values, so a refactor of the loop must
//    reproduce the recorded results exactly, not merely agree with itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/pcu_pool.hpp"
#include "runtime/arrival.hpp"
#include "runtime/telemetry.hpp"

#include "fnv1a.hpp"

namespace {

using namespace pcnna;
using core::PcnnaConfig;
using core::TimingFidelity;
using runtime::AdmissionOptions;
using runtime::AdmissionResult;
using runtime::ArrivalSchedule;
using runtime::DispatchPolicy;
using runtime::InferenceRequest;
using runtime::PcuPool;
using runtime::PcuSpec;
using runtime::PriorityClass;
using runtime::RequestQueue;
using runtime::ScheduledService;

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
/// exactly, because determinism means identical bits, not "close".
void expect_same_schedule(const std::vector<ScheduledService>& a,
                          const std::vector<ScheduledService>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const ScheduledService& x = a[i];
    const ScheduledService& y = b[i];
    EXPECT_EQ(x.id, y.id) << "entry " << i;
    EXPECT_EQ(x.pcu, y.pcu) << "entry " << i;
    EXPECT_EQ(x.arrival, y.arrival) << "entry " << i;
    EXPECT_EQ(x.start, y.start) << "entry " << i;
    EXPECT_EQ(x.completion, y.completion) << "entry " << i;
    EXPECT_EQ(x.warmup, y.warmup) << "entry " << i;
    EXPECT_EQ(x.tenant, y.tenant) << "entry " << i;
    EXPECT_EQ(x.priority, y.priority) << "entry " << i;
    EXPECT_EQ(x.deadline, y.deadline) << "entry " << i;
    EXPECT_EQ(x.model, y.model) << "entry " << i;
    EXPECT_EQ(x.swap, y.swap) << "entry " << i;
    EXPECT_EQ(x.swapped, y.swapped) << "entry " << i;
    EXPECT_EQ(x.attempts, y.attempts) << "entry " << i;
    ASSERT_EQ(x.stages.size(), y.stages.size()) << "entry " << i;
    for (std::size_t j = 0; j < x.stages.size(); ++j) {
      EXPECT_EQ(x.stages[j].stage, y.stages[j].stage) << i << "/" << j;
      EXPECT_EQ(x.stages[j].pcu, y.stages[j].pcu) << i << "/" << j;
      EXPECT_EQ(x.stages[j].op_begin, y.stages[j].op_begin) << i << "/" << j;
      EXPECT_EQ(x.stages[j].op_end, y.stages[j].op_end) << i << "/" << j;
      EXPECT_EQ(x.stages[j].start, y.stages[j].start) << i << "/" << j;
      EXPECT_EQ(x.stages[j].completion, y.stages[j].completion)
          << i << "/" << j;
      EXPECT_EQ(x.stages[j].pin, y.stages[j].pin) << i << "/" << j;
      EXPECT_EQ(x.stages[j].handoff, y.stages[j].handoff) << i << "/" << j;
    }
  }
}

/// expect_same_schedule plus bitwise equality of the pipeline, shedding,
/// and autoscaler outcomes.
void expect_bit_identical(const AdmissionResult& a, const AdmissionResult& b) {
  expect_same_schedule(a.schedule, b.schedule);
  EXPECT_EQ(a.pipeline.groups, b.pipeline.groups);
  EXPECT_EQ(a.pipeline.pipelined_requests, b.pipeline.pipelined_requests);
  EXPECT_EQ(a.pipeline.stage_spans, b.pipeline.stage_spans);
  EXPECT_EQ(a.pipeline.replacements, b.pipeline.replacements);
  EXPECT_EQ(a.pipeline.pin_time, b.pipeline.pin_time);
  EXPECT_EQ(a.pipeline.handoff_time, b.pipeline.handoff_time);
  ASSERT_EQ(a.shed.shed, b.shed.shed);
  ASSERT_EQ(a.shed.decisions.size(), b.shed.decisions.size());
  for (std::size_t i = 0; i < a.shed.decisions.size(); ++i) {
    EXPECT_EQ(a.shed.decisions[i].id, b.shed.decisions[i].id);
    EXPECT_EQ(a.shed.decisions[i].decision_time,
              b.shed.decisions[i].decision_time);
  }
  EXPECT_EQ(a.autoscaler.scale_ups, b.autoscaler.scale_ups);
  EXPECT_EQ(a.autoscaler.scale_downs, b.autoscaler.scale_downs);
  EXPECT_EQ(a.autoscaler.mean_active, b.autoscaler.mean_active);
}

/// The nastiest stream we can build deterministically: two models, three
/// tenant classes, finite deadlines, overload — exercising affinity
/// deferral, swap fallback, shedding and the autoscaler in one run.
std::vector<InferenceRequest> adversarial_stream(const PcuPool& pool,
                                                 std::size_t count) {
  const double interval = pool.pcu(0).request_interval_overlapped(0);
  const double warmup = pool.pcu(0).warmup_time(0);
  const ArrivalSchedule arrivals =
      runtime::poisson_arrivals(count, 2.2 / interval, 13);
  Rng rng(99);
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

// --- Determinism across repeated runs (satellite) ---

TEST(AdmissionDeterminism, EventDrivenScheduleBitIdenticalAcrossRuns) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(3), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);
  const double interval = pool.pcu(0).request_interval_overlapped(0);

  AdmissionOptions o;
  o.policy = DispatchPolicy::kModelAffinity;
  o.shed_expired = true;
  o.autoscaler.enabled = true;
  o.autoscaler.min_active = 1;
  o.autoscaler.backlog_per_pcu = 1.5;
  o.autoscaler.shrink_after_idle = 3.0 * interval;

  const AdmissionResult a = admit(pool, adversarial_stream(pool, 400), o);
  const AdmissionResult b = admit(pool, adversarial_stream(pool, 400), o);
  ASSERT_GT(a.schedule.size(), 0u);
  expect_bit_identical(a, b);
}

TEST(AdmissionDeterminism, EagerScheduleBitIdenticalAcrossRuns) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(2), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);
  const AdmissionResult a =
      admit(pool, adversarial_stream(pool, 300), {});
  const AdmissionResult b =
      admit(pool, adversarial_stream(pool, 300), {});
  expect_bit_identical(a, b);
}

// --- Determinism across engine_threads (satellite) ---

TEST(AdmissionDeterminism, EngineThreadsNeverPerturbsTheSchedule) {
  const TwoModels t = make_two_models();

  const auto build = [&](std::size_t threads) {
    PcuSpec spec;
    spec.config = PcnnaConfig::paper_defaults();
    spec.config.engine_threads = threads;
    return PcuPool(std::vector<PcuSpec>(3, spec), TimingFidelity::kFull,
                   t.net, t.weights_a);
  };
  PcuPool one = build(1);
  PcuPool many = build(8);
  one.register_model(t.net, t.weights_b);
  many.register_model(t.net, t.weights_b);
  const double interval = one.pcu(0).request_interval_overlapped(0);

  AdmissionOptions o;
  o.policy = DispatchPolicy::kModelAffinity;
  o.shed_expired = true;
  o.autoscaler.enabled = true;
  o.autoscaler.min_active = 1;
  o.autoscaler.backlog_per_pcu = 1.5;
  o.autoscaler.shrink_after_idle = 3.0 * interval;

  // Virtual-time accounting must be a function of the device models only:
  // the host thread count may change who computes, never what is computed
  // or when the schedule says it happens.
  const AdmissionResult a = admit(one, adversarial_stream(one, 400), o);
  const AdmissionResult b = admit(many, adversarial_stream(many, 400), o);
  expect_bit_identical(a, b);

  AdmissionOptions edf;
  edf.policy = DispatchPolicy::kEdf;
  const AdmissionResult c = admit(one, adversarial_stream(one, 200), edf);
  const AdmissionResult d = admit(many, adversarial_stream(many, 200), edf);
  expect_bit_identical(c, d);
}

// --- Fault machinery off means OFF: the bit-identity contract ---

// An empty FaultSchedule must bypass every fault code path: for every
// dispatch policy, a run with default-constructed FaultOptions (plus
// arbitrary knob settings behind the empty schedule) reproduces the
// schedule of a run that never heard of faults, bit for bit — and reports
// no fault activity at all.
TEST(AdmissionDeterminism, EmptyFaultScheduleIsBitIdenticalForEveryPolicy) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(3), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);

  for (DispatchPolicy policy : runtime::kAllDispatchPolicies) {
    AdmissionOptions plain;
    plain.policy = policy;
    plain.shed_expired = true;

    AdmissionOptions with_knobs = plain;
    // Every fault knob armed — but the schedule is empty, so none of it
    // may run. The non-schedule knobs alone must not flip the loop into
    // its event-driven mode or perturb a single double.
    with_knobs.faults.detection_latency = 1.0;
    with_knobs.faults.retry.max_retries = 7;
    with_knobs.faults.retry.backoff_base = 0.5;
    with_knobs.faults.repair_time = 2.0;

    const AdmissionResult a =
        admit(pool, adversarial_stream(pool, 300), plain);
    const AdmissionResult b =
        admit(pool, adversarial_stream(pool, 300), with_knobs);
    ASSERT_GT(a.schedule.size(), 0u)
        << runtime::dispatch_policy_name(policy);
    expect_bit_identical(a, b);
    EXPECT_EQ(0u, b.fault.injections);
    EXPECT_TRUE(b.fault.per_pcu.empty());
    EXPECT_TRUE(b.fault.losses.empty());
    for (const ScheduledService& s : b.schedule) EXPECT_EQ(1u, s.attempts);
  }
}

// --- Options that should do nothing change nothing ---
//
// Shedding with every deadline at +inf never sheds, and an autoscaler
// pinned at min_active = max_active = n never scales. Both still route
// admission through the event-driven mode, so for every policy that means
// the same thing in both modes each inert option must leave every
// ScheduledService field bitwise equal to the plain run. kLeastLoaded and
// kCapabilityAware are left out: the eager loop may commit a request to a
// busy faster PCU while the event-driven scan only considers free ones — a
// known divergence that merging the two loops has to resolve. This test
// guards that merge for the policies that already agree.
TEST(InertOptions, LeaveTheScheduleBitIdentical) {
  Rng rng(5);
  const nn::Network net = nn::lenet5();
  const nn::NetWeights weights = nn::make_network_weights(net, rng);
  PcuSpec small;
  small.config = PcnnaConfig::small_core();
  std::vector<PcuSpec> mixed = paper_fleet(8);
  mixed.insert(mixed.end(), 8, small);
  constexpr std::size_t kCount = 400;

  for (const std::vector<PcuSpec>& specs : {paper_fleet(4), mixed}) {
    PcuPool pool(specs, TimingFidelity::kFull, net, weights);
    const std::size_t n = pool.size();
    double capacity = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      capacity += 1.0 / pool.pcu(p).request_interval_overlapped();
    for (const DispatchPolicy policy :
         {DispatchPolicy::kEarliestFree, DispatchPolicy::kEdf,
          DispatchPolicy::kModelAffinity}) {
      for (const double load : {0.5, 0.9, 1.3}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
          SCOPED_TRACE(std::to_string(n) + " PCUs, " +
                       runtime::dispatch_policy_name(policy) + ", load " +
                       std::to_string(load) + ", seed " +
                       std::to_string(seed));
          const ArrivalSchedule arrivals =
              runtime::poisson_arrivals(kCount, load * capacity, seed);
          const auto stream = [&] {
            std::vector<InferenceRequest> requests(kCount);
            for (std::size_t id = 0; id < kCount; ++id) {
              requests[id].id = id;
              requests[id].arrival_time = arrivals[id];
            }
            return requests;
          };
          AdmissionOptions plain;
          plain.policy = policy;
          AdmissionOptions shed = plain;
          shed.shed_expired = true;
          AdmissionOptions pinned = plain;
          pinned.autoscaler.enabled = true;
          pinned.autoscaler.min_active = n;
          pinned.autoscaler.max_active = n;

          const AdmissionResult a = admit(pool, stream(), plain);
          ASSERT_EQ(kCount, a.schedule.size());
          for (const AdmissionOptions& inert : {shed, pinned}) {
            const AdmissionResult b = admit(pool, stream(), inert);
            EXPECT_EQ(0u, b.shed.shed);
            expect_same_schedule(a.schedule, b.schedule);
          }
        }
      }
    }
  }
}

// With a non-empty schedule the whole fault pipeline must itself be a pure
// function of its inputs: two identical runs agree on every FaultReport
// field, bit for bit.
TEST(AdmissionDeterminism, FaultReportBitIdenticalAcrossRuns) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(3), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);
  const double interval = pool.pcu(0).request_interval_overlapped(0);

  runtime::FaultModel hazard;
  hazard.mtbf = 60.0 * interval;
  hazard.horizon = 250.0 * interval;
  hazard.mean_time_to_repair = 20.0 * interval;

  AdmissionOptions o;
  o.policy = DispatchPolicy::kModelAffinity;
  o.shed_expired = true;
  o.faults.schedule = runtime::poisson_faults(3, hazard, 41);
  o.faults.detection_latency = 0.5 * interval;
  o.faults.retry.backoff_base = 0.25 * interval;
  o.faults.repair_time = 2.0 * interval;
  ASSERT_FALSE(o.faults.schedule.empty());

  const AdmissionResult a = admit(pool, adversarial_stream(pool, 400), o);
  const AdmissionResult b = admit(pool, adversarial_stream(pool, 400), o);
  expect_bit_identical(a, b);
  EXPECT_GT(a.fault.injections, 0u);
  EXPECT_EQ(a.fault.injections, b.fault.injections);
  EXPECT_EQ(a.fault.retries, b.fault.retries);
  EXPECT_EQ(a.fault.lost_requests, b.fault.lost_requests);
  ASSERT_EQ(a.fault.attempts.size(), b.fault.attempts.size());
  for (std::size_t i = 0; i < a.fault.attempts.size(); ++i) {
    EXPECT_EQ(a.fault.attempts[i].id, b.fault.attempts[i].id);
    EXPECT_EQ(a.fault.attempts[i].pcu, b.fault.attempts[i].pcu);
    EXPECT_EQ(a.fault.attempts[i].start, b.fault.attempts[i].start);
    EXPECT_EQ(a.fault.attempts[i].end, b.fault.attempts[i].end);
  }
  ASSERT_EQ(a.fault.per_pcu.size(), b.fault.per_pcu.size());
  for (std::size_t p = 0; p < a.fault.per_pcu.size(); ++p) {
    EXPECT_EQ(a.fault.per_pcu[p].availability,
              b.fault.per_pcu[p].availability);
    EXPECT_EQ(a.fault.per_pcu[p].healthy_time,
              b.fault.per_pcu[p].healthy_time);
    EXPECT_EQ(a.fault.per_pcu[p].failed_time, b.fault.per_pcu[p].failed_time);
  }
}

// --- Adversarial EDF tie-breaks (satellite) ---

TEST(EdfTieBreak, FullTiesAreBrokenOnlyById) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(1), TimingFidelity::kFull,
               t.net, t.weights_a);
  const double interval = pool.pcu(0).request_interval_overlapped();

  // Four requests tied on (class, deadline, arrival), pushed in scrambled
  // id order: the dispatch order must come out ascending by id — push
  // order must not leak through the pending set.
  const double deadline = 100.0 * interval;
  std::vector<InferenceRequest> requests;
  for (const std::uint64_t id : {3u, 1u, 2u, 0u}) {
    InferenceRequest r;
    r.id = id;
    r.arrival_time = 0.0;
    r.priority = PriorityClass::kStandard;
    r.deadline = deadline;
    requests.push_back(r);
  }
  AdmissionOptions edf;
  edf.policy = DispatchPolicy::kEdf;
  const AdmissionResult r = admit(pool, std::move(requests), edf);
  ASSERT_EQ(4u, r.schedule.size());
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(i, r.schedule[i].id) << "position " << i;
}

TEST(EdfTieBreak, ArrivalBreaksDeadlineTiesBeforeId) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(1), TimingFidelity::kFull,
               t.net, t.weights_a);
  const double interval = pool.pcu(0).request_interval_overlapped();

  // Request 9 arrives before request 1, same class and deadline; both are
  // queued behind request 5 when the PCU frees. The earlier *arrival*
  // must win even though its id is larger.
  const double deadline = 100.0 * interval;
  std::vector<InferenceRequest> requests;
  InferenceRequest head;
  head.id = 5;
  head.arrival_time = 0.0;
  head.deadline = deadline;
  requests.push_back(head);
  InferenceRequest nine;
  nine.id = 9;
  nine.arrival_time = 0.2 * interval;
  nine.deadline = deadline;
  requests.push_back(nine);
  InferenceRequest one;
  one.id = 1;
  one.arrival_time = 0.3 * interval;
  one.deadline = deadline;
  requests.push_back(one);

  AdmissionOptions edf;
  edf.policy = DispatchPolicy::kEdf;
  const AdmissionResult r = admit(pool, std::move(requests), edf);
  ASSERT_EQ(3u, r.schedule.size());
  EXPECT_EQ(5u, r.schedule[0].id);
  EXPECT_EQ(9u, r.schedule[1].id) << "earlier arrival beats smaller id";
  EXPECT_EQ(1u, r.schedule[2].id);
}

TEST(EdfTieBreak, ClassOutranksDeadlineAndIdUnderFullAdversity) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(1), TimingFidelity::kFull,
               t.net, t.weights_a);
  const double interval = pool.pcu(0).request_interval_overlapped();

  // Interactive with the LATEST deadline and LARGEST id still goes first;
  // best-effort with the tightest deadline and smallest id still goes
  // last.
  std::vector<InferenceRequest> requests;
  InferenceRequest be;
  be.id = 0;
  be.arrival_time = 0.0;
  be.priority = PriorityClass::kBestEffort;
  be.deadline = 1.0 * interval;
  requests.push_back(be);
  InferenceRequest std_r;
  std_r.id = 1;
  std_r.arrival_time = 0.0;
  std_r.priority = PriorityClass::kStandard;
  std_r.deadline = 2.0 * interval;
  requests.push_back(std_r);
  InferenceRequest inter;
  inter.id = 2;
  inter.arrival_time = 0.0;
  inter.priority = PriorityClass::kInteractive;
  inter.deadline = 500.0 * interval;
  requests.push_back(inter);

  AdmissionOptions edf;
  edf.policy = DispatchPolicy::kEdf;
  const AdmissionResult r = admit(pool, std::move(requests), edf);
  ASSERT_EQ(3u, r.schedule.size());
  EXPECT_EQ(2u, r.schedule[0].id);
  EXPECT_EQ(1u, r.schedule[1].id);
  EXPECT_EQ(0u, r.schedule[2].id);
}

TEST(EdfTieBreak, ModelAffinityUsesTheSameUrgencyOrderOnTies) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(1), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);
  const double interval = pool.pcu(0).request_interval_overlapped(0);

  // Full ties again, but under kModelAffinity with mixed models on one
  // PCU: urgency (id) decides who runs next, and the swap pattern follows
  // from that order — never the other way around.
  const double deadline = 200.0 * interval;
  std::vector<InferenceRequest> requests;
  for (const std::uint64_t id : {2u, 0u, 3u, 1u}) {
    InferenceRequest r;
    r.id = id;
    r.arrival_time = 0.0;
    r.deadline = deadline;
    r.model_id = static_cast<std::uint32_t>(id % 2);
    requests.push_back(r);
  }
  AdmissionOptions affinity;
  affinity.policy = DispatchPolicy::kModelAffinity;
  const AdmissionResult r = admit(pool, std::move(requests), affinity);
  ASSERT_EQ(4u, r.schedule.size());
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(i, r.schedule[i].id) << "position " << i;
  // Ids alternate models, so the single PCU swaps on every dispatch after
  // the first.
  EXPECT_FALSE(r.schedule[0].swapped);
  for (std::size_t i = 1; i < 4; ++i) EXPECT_TRUE(r.schedule[i].swapped);
}

// --- Randomized property sweep (satellite) ---
//
// Structural invariants every admission run must satisfy, no matter the
// policy, seed, or fault schedule:
//  1. conservation — every offered request is served, shed, or lost,
//     exactly once: offered == schedule + shed + fault losses;
//  2. monotone virtual time — on the event-driven path every dispatch
//     commits at the loop's current `now`, so schedule entries (stable
//     under fault compaction) carry nondecreasing start times;
//  3. no double-booking — the service intervals charged to one PCU never
//     overlap, counting pipeline stage spans on their stage PCUs.

/// Like adversarial_stream, but fully re-seedable so the sweep can draw
/// many independent streams. ~1.5x overload on a 4-PCU pool.
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

void check_admission_invariants(const AdmissionResult& r, std::size_t offered,
                                std::size_t num_pcus, bool event_driven) {
  // 1. Conservation.
  EXPECT_EQ(offered,
            r.schedule.size() + r.shed.shed + r.fault.lost_requests);
  EXPECT_EQ(r.fault.lost_requests, r.fault.losses.size());

  std::vector<std::vector<std::pair<double, double>>> busy(num_pcus);
  double prev_start = -std::numeric_limits<double>::infinity();
  for (const ScheduledService& s : r.schedule) {
    EXPECT_LE(s.arrival, s.start) << "request " << s.id;
    EXPECT_LT(s.start, s.completion) << "request " << s.id;
    // 2. Monotone virtual time (event-driven dispatches commit at `now`;
    // fault compaction is stable, so the order survives retries).
    if (event_driven) {
      EXPECT_GE(s.start, prev_start) << "request " << s.id;
      prev_start = s.start;
    }
    if (s.stages.empty()) {
      ASSERT_LT(s.pcu, num_pcus);
      busy[s.pcu].push_back({s.start, s.completion});
    } else {
      // Pipelined entry: spans chain forward through the group and the
      // head entry brackets the chain exactly.
      EXPECT_EQ(s.stages.front().start, s.start) << "request " << s.id;
      EXPECT_EQ(s.stages.back().completion, s.completion)
          << "request " << s.id;
      for (std::size_t j = 0; j < s.stages.size(); ++j) {
        const runtime::StageService& st = s.stages[j];
        EXPECT_EQ(j, st.stage) << "request " << s.id;
        ASSERT_LT(st.pcu, num_pcus);
        EXPECT_LT(st.start, st.completion) << "request " << s.id;
        if (j > 0) {
          EXPECT_GE(st.start, s.stages[j - 1].completion + st.handoff)
              << "request " << s.id << " stage " << j;
        }
        busy[st.pcu].push_back({st.start, st.completion});
      }
    }
  }
  // 3. No double-booking per PCU.
  for (std::size_t p = 0; p < num_pcus; ++p) {
    std::sort(busy[p].begin(), busy[p].end());
    for (std::size_t i = 1; i < busy[p].size(); ++i) {
      EXPECT_GE(busy[p][i].first, busy[p][i - 1].second)
          << "PCU " << p << " double-booked: [" << busy[p][i - 1].first
          << ", " << busy[p][i - 1].second << ") overlaps ["
          << busy[p][i].first << ", " << busy[p][i].second << ")";
    }
  }
}

TEST(AdmissionInvariants, HoldForEveryPolicySeedAndFaultSchedule) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(4), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);
  // Model 1 pinned across a 2-stage chain (tiny_cnn has 2 conv ops);
  // non-pipeline policies ignore the group, kPipeline routes model 1
  // through it and model 0 to the unreserved remainder.
  pool.build_pipeline(/*model=*/1, {0, 1});
  const double interval = pool.pcu(0).request_interval_overlapped(0);
  constexpr std::size_t kCount = 300;

  runtime::FaultModel hazard;
  hazard.mtbf = 50.0 * interval;
  hazard.horizon = 200.0 * interval;
  hazard.mean_time_to_repair = 15.0 * interval;
  hazard.crash_weight = 3.0;

  for (const DispatchPolicy policy : runtime::kAllDispatchPolicies) {
    for (const std::uint64_t seed : {7u, 21u, 63u}) {
      for (const int fault_mode : {0, 1, 2}) {
        AdmissionOptions o;
        o.policy = policy;
        o.shed_expired = true; // forces the event-driven path everywhere
        if (fault_mode > 0) {
          o.faults.schedule =
              runtime::poisson_faults(4, hazard, 100 + seed);
          o.faults.health_aware = fault_mode == 2;
          o.faults.detection_latency = 0.5 * interval;
          o.faults.retry.backoff_base = 0.25 * interval;
          o.faults.repair_time = 2.0 * interval;
        }
        SCOPED_TRACE(std::string(runtime::dispatch_policy_name(policy)) +
                     " seed " + std::to_string(seed) + " faults " +
                     std::to_string(fault_mode));
        const AdmissionResult a =
            admit(pool, seeded_stream(pool, kCount, seed), o);
        ASSERT_GT(a.schedule.size(), 0u);
        check_admission_invariants(a, kCount, 4, /*event_driven=*/true);
        // Purity: the same inputs reproduce the same schedule, bit for
        // bit — across policies, seeds and fault schedules alike.
        const AdmissionResult b =
            admit(pool, seeded_stream(pool, kCount, seed), o);
        expect_bit_identical(a, b);
      }
    }
  }
}

TEST(AdmissionInvariants, ConservationHoldsOnTheEagerPath) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(3), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);
  // Eager FIFO (no shed, no deferral): start times follow per-PCU queues,
  // not a global clock, so only conservation and non-overlap apply.
  for (const DispatchPolicy policy :
       {DispatchPolicy::kEarliestFree, DispatchPolicy::kLeastLoaded,
        DispatchPolicy::kCapabilityAware}) {
    AdmissionOptions o;
    o.policy = policy;
    SCOPED_TRACE(runtime::dispatch_policy_name(policy));
    const AdmissionResult r =
        admit(pool, seeded_stream(pool, 200, 5), o);
    check_admission_invariants(r, 200, 3, /*event_driven=*/false);
  }
}

TEST(AdmissionInvariants, PipelineScheduleBitIdenticalAcrossEngineThreads) {
  const TwoModels t = make_two_models();
  const auto build = [&](std::size_t threads) {
    PcuSpec spec;
    spec.config = PcnnaConfig::paper_defaults();
    spec.config.engine_threads = threads;
    return PcuPool(std::vector<PcuSpec>(4, spec), TimingFidelity::kFull,
                   t.net, t.weights_a);
  };
  PcuPool one = build(1);
  PcuPool many = build(8);
  for (PcuPool* pool : {&one, &many}) {
    pool->register_model(t.net, t.weights_b);
    pool->build_pipeline(/*model=*/1, {0, 1});
  }
  const double interval = one.pcu(0).request_interval_overlapped(0);

  AdmissionOptions o;
  o.policy = DispatchPolicy::kPipeline;
  o.shed_expired = true;
  o.autoscaler.enabled = true;
  o.autoscaler.min_active = 1;
  o.autoscaler.backlog_per_pcu = 1.5;
  o.autoscaler.shrink_after_idle = 3.0 * interval;

  const AdmissionResult a = admit(one, seeded_stream(one, 400, 17), o);
  const AdmissionResult b = admit(many, seeded_stream(many, 400, 17), o);
  ASSERT_GT(a.pipeline.pipelined_requests, 0u);
  expect_bit_identical(a, b);
  check_admission_invariants(a, 400, 4, /*event_driven=*/true);
}

// --- Golden digests: every result bit pinned across refactors ---
//
// The determinism tests above compare a run with itself; these pin the
// results to values recorded before the admission loop was restructured,
// so a refactor must reproduce them exactly. The matrix is every policy x
// {plain, finite-deadline shedding, autoscaler, blind faults, health-aware
// faults} on a mixed paper_defaults/small_core fleet serving two models,
// one of them pipelined, plus the serial schedule and each WarmupPolicy on
// one policy. Arrival and fault streams use only Rng::uniform() and basic
// arithmetic (no libm), so the digests hold on any IEEE-754 x86-64 host.

using golden::Fnv1a;

std::uint64_t admission_digest(const AdmissionResult& r,
                               const runtime::FaultOptions& faults) {
  Fnv1a h;
  h.u64(r.schedule.size());
  for (const ScheduledService& s : r.schedule) {
    h.u64(s.id);
    h.u64(s.pcu);
    h.f64(s.arrival);
    h.f64(s.start);
    h.f64(s.completion);
    h.f64(s.warmup);
    h.u64(s.tenant);
    h.u64(static_cast<std::uint64_t>(s.priority));
    h.f64(s.deadline);
    h.u64(s.model);
    h.f64(s.swap);
    h.u64(s.swapped);
    h.u64(s.attempts);
    h.u64(s.stages.size());
    for (const runtime::StageService& st : s.stages) {
      h.u64(st.stage);
      h.u64(st.pcu);
      h.u64(st.op_begin);
      h.u64(st.op_end);
      h.f64(st.start);
      h.f64(st.completion);
      h.f64(st.pin);
      h.f64(st.handoff);
    }
  }
  h.u64(r.shed.shed);
  h.u64(r.shed.per_tenant.size());
  for (const auto& [tenant, count] : r.shed.per_tenant) {
    h.u64(tenant);
    h.u64(count);
  }
  h.u64(r.shed.decisions.size());
  for (const runtime::ShedDecision& d : r.shed.decisions) {
    h.u64(d.id);
    h.u64(d.tenant);
    h.u64(static_cast<std::uint64_t>(d.priority));
    h.f64(d.arrival);
    h.f64(d.deadline);
    h.f64(d.decision_time);
  }
  h.u64(r.autoscaler.scale_ups);
  h.u64(r.autoscaler.scale_downs);
  h.f64(r.autoscaler.mean_active);
  const runtime::FaultReport& f = r.fault;
  // The digests were recorded when the report also counted plan-cache
  // epoch bumps: one per repair in the health-aware cases, which attached
  // a cache, and none elsewhere (blind runs repair on kRecover events
  // without a cache). Hash the value that count had.
  const std::size_t epoch_bumps =
      faults.enabled() && faults.health_aware ? f.repairs : 0;
  for (const std::size_t v :
       {f.injections, f.transient_corruptions, f.crash_losses, f.retries,
        f.recovered_requests, f.lost_requests, f.quarantines, f.repairs,
        epoch_bumps})
    h.u64(v);
  h.f64(f.repair_time);
  h.u64(f.attempts.size());
  for (const runtime::FaultedAttempt& a : f.attempts) {
    h.u64(a.id);
    h.u64(a.pcu);
    h.f64(a.start);
    h.f64(a.end);
    h.u64(static_cast<std::uint64_t>(a.fault));
    h.u64(a.attempt);
  }
  h.u64(f.losses.size());
  for (const runtime::RequestLoss& l : f.losses) {
    h.u64(l.id);
    h.u64(l.tenant);
    h.u64(static_cast<std::uint64_t>(l.priority));
    h.f64(l.arrival);
    h.f64(l.time);
    h.u64(l.attempts);
  }
  h.u64(f.per_pcu.size());
  for (const runtime::PcuHealthStats& p : f.per_pcu) {
    for (const std::size_t v : {p.transients, p.degrades, p.crashes,
                                p.quarantines, p.repairs, p.lost_attempts})
      h.u64(v);
    for (const double v : {p.healthy_time, p.degraded_time,
                           p.quarantined_time, p.failed_time, p.availability,
                           p.lost_time})
      h.f64(v);
  }
  h.u64(r.pipeline.groups);
  h.u64(r.pipeline.pipelined_requests);
  h.u64(r.pipeline.stage_spans);
  h.u64(r.pipeline.replacements);
  h.f64(r.pipeline.pin_time);
  h.f64(r.pipeline.handoff_time);
  return h.value();
}

/// Two-model, three-class stream with finite deadlines, `rate` arrivals per
/// PCU 0 LeNet-5 interval on average (4.2 is ~1.4x the capacity of three
/// paper PCUs). Gaps are uniform on [0, 2 * mean): no std::log.
std::vector<InferenceRequest> golden_stream(const PcuPool& pool,
                                            std::size_t count,
                                            double rate = 4.2) {
  const double interval = pool.pcu(0).request_interval_overlapped(0);
  const double warmup = pool.pcu(0).warmup_time(0);
  Rng rng(2024);
  double t = 0.0;
  std::vector<InferenceRequest> requests;
  for (std::size_t id = 0; id < count; ++id) {
    t += 2.0 * rng.uniform() * (interval / rate);
    InferenceRequest r;
    r.id = id;
    r.arrival_time = t;
    r.model_id = static_cast<std::uint32_t>(rng.next_u64() % 2);
    const std::uint64_t cls = rng.next_u64() % 3;
    r.priority = cls == 0 ? PriorityClass::kInteractive
                          : (cls == 1 ? PriorityClass::kStandard
                                      : PriorityClass::kBestEffort);
    r.tenant = static_cast<std::uint32_t>(cls);
    r.deadline =
        t + warmup + (2.0 + static_cast<double>(rng.next_u64() % 8)) * interval;
    requests.push_back(r);
  }
  return requests;
}

/// Sort `faults` in poisson_faults' (time, pcu, recover-first) order.
void sort_faults(runtime::FaultSchedule& faults) {
  std::sort(faults.begin(), faults.end(),
            [](const runtime::FaultEvent& a, const runtime::FaultEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.pcu != b.pcu) return a.pcu < b.pcu;
              return a.kind == runtime::FaultKind::kRecover &&
                     b.kind != runtime::FaultKind::kRecover;
            });
}

/// Per-PCU fault timelines with uniform gaps (mean `mtbf`), every crash
/// paired with a recover; merged in poisson_faults' (time, pcu,
/// recover-first) order.
runtime::FaultSchedule golden_faults(std::size_t pcus, double mtbf,
                                     double horizon, double mttr) {
  runtime::FaultSchedule faults;
  for (std::size_t p = 0; p < pcus; ++p) {
    Rng rng(700 + p);
    double t = 0.0;
    while (true) {
      t += 2.0 * rng.uniform() * mtbf;
      if (t >= horizon) break;
      const double u = 3.0 * rng.uniform();
      runtime::FaultEvent e{t, p, runtime::FaultKind::kCrash, 1.0};
      if (u < 1.0) {
        e.kind = runtime::FaultKind::kTransient;
      } else if (u < 2.0) {
        e.kind = runtime::FaultKind::kDegrade;
        e.severity = 1.5;
      }
      faults.push_back(e);
      if (e.kind == runtime::FaultKind::kCrash) {
        t += 2.0 * rng.uniform() * mttr;
        faults.push_back({t, p, runtime::FaultKind::kRecover, 1.0});
      }
    }
  }
  sort_faults(faults);
  return faults;
}

struct GoldenCase {
  std::string name;
  AdmissionOptions options;
  runtime::WarmupPolicy warmup = runtime::WarmupPolicy::kRechargeAfterIdle;
};

/// Every policy x {plain, finite-deadline shedding, autoscaler (from
/// `min_active` PCUs), blind faults, health-aware faults}, named
/// "<policy>/<variant>".
std::vector<GoldenCase> golden_cases(const runtime::FaultSchedule& faults,
                                     double interval,
                                     std::size_t min_active = 1) {
  std::vector<GoldenCase> cases;
  for (const DispatchPolicy policy : runtime::kAllDispatchPolicies) {
    const std::string name = runtime::dispatch_policy_name(policy);
    AdmissionOptions plain;
    plain.policy = policy;
    AdmissionOptions shed = plain;
    shed.shed_expired = true;
    AdmissionOptions scaled = plain;
    scaled.autoscaler.enabled = true;
    scaled.autoscaler.min_active = min_active;
    scaled.autoscaler.backlog_per_pcu = 1.5;
    scaled.autoscaler.shrink_after_idle = 3.0 * interval;
    AdmissionOptions blind = plain;
    blind.faults.schedule = faults;
    blind.faults.health_aware = false;
    AdmissionOptions aware = plain;
    aware.faults.schedule = faults;
    aware.faults.detection_latency = 0.5 * interval;
    aware.faults.retry.backoff_base = 0.25 * interval;
    aware.faults.repair_time = 2.0 * interval;
    cases.push_back({name + "/plain", plain});
    cases.push_back({name + "/shed", shed});
    cases.push_back({name + "/autoscaler", scaled});
    cases.push_back({name + "/blind-faults", blind});
    cases.push_back({name + "/aware-faults", aware});
  }
  return cases;
}

/// Expect `r`, the result of case `c`, to hash to the digest recorded for
/// its name.
void expect_digest(const std::map<std::string, std::uint64_t>& expected,
                   const GoldenCase& c, const AdmissionResult& r) {
  ASSERT_GT(r.schedule.size(), 0u);
  golden::expect_digest(expected, c.name,
                        admission_digest(r, c.options.faults));
}

TEST(AdmissionGolden, DigestsMatchThePreMergeLoop) {
  Rng wrng(5);
  const nn::Network lenet = nn::lenet5();
  const nn::NetWeights lenet_w = nn::make_network_weights(lenet, wrng);
  const nn::Network tiny = nn::tiny_cnn();
  const nn::NetWeights tiny_w = nn::make_network_weights(tiny, wrng);
  // paper, small, paper, small, paper, small: small_core needs extra
  // segmented passes for both models, so the capability-aware policies
  // skip it. Model 1 (tiny_cnn) is pipelined over PCUs 4 and 5.
  const auto build = [&](runtime::WarmupPolicy warmup) {
    PcuSpec paper;
    paper.config = PcnnaConfig::paper_defaults();
    paper.warmup = warmup;
    PcuSpec small = paper;
    small.config = PcnnaConfig::small_core();
    PcuPool pool({paper, small, paper, small, paper, small},
                 TimingFidelity::kFull, lenet, lenet_w);
    pool.register_model(tiny, tiny_w);
    pool.build_pipeline(/*model=*/1, {4, 5}, /*handoff_time=*/2.0e-6);
    return pool;
  };
  PcuPool pool = build(runtime::WarmupPolicy::kRechargeAfterIdle);
  constexpr std::size_t kCount = 240;
  const std::vector<InferenceRequest> stream = golden_stream(pool, kCount);
  const double interval = pool.pcu(0).request_interval_overlapped(0);
  const runtime::FaultSchedule faults = golden_faults(
      pool.size(), 40.0 * interval, stream.back().arrival_time,
      10.0 * interval);
  ASSERT_FALSE(faults.empty());

  std::vector<GoldenCase> cases = golden_cases(faults, interval);
  AdmissionOptions serial;
  serial.policy = DispatchPolicy::kLeastLoaded;
  serial.double_buffer = false;
  cases.push_back({"least-loaded/serial", serial});
  AdmissionOptions warm;
  warm.policy = DispatchPolicy::kLeastLoaded;
  cases.push_back({"least-loaded/pinned-after-first", warm,
                   runtime::WarmupPolicy::kPinnedAfterFirst});
  cases.push_back({"least-loaded/always-cold", warm,
                   runtime::WarmupPolicy::kAlwaysCold});

  // Recorded from the loop before the eager and event-driven modes were
  // merged into one.
  const std::map<std::string, std::uint64_t> expected = {
      {"earliest-free/plain", 0x69bcef28c7500dc2ull},
      {"earliest-free/shed", 0xd096fa135b75024aull},
      {"earliest-free/autoscaler", 0xd11aaa51a13d4bb0ull},
      {"earliest-free/blind-faults", 0xe2c2f2702037a976ull},
      {"earliest-free/aware-faults", 0xf69029de6ea760fcull},
      {"least-loaded/plain", 0x48a7c6287843f910ull},
      {"least-loaded/shed", 0x6cea36fe4dd1c34full},
      {"least-loaded/autoscaler", 0xd11aaa51a13d4bb0ull},
      {"least-loaded/blind-faults", 0x456ee6399f4d482full},
      {"least-loaded/aware-faults", 0x258a5c0be14c12c5ull},
      {"capability-aware/plain", 0xbba3f910553cff71ull},
      {"capability-aware/shed", 0x8faca59616f4c4c4ull},
      {"capability-aware/autoscaler", 0x78f4a88dab6bddfdull},
      {"capability-aware/blind-faults", 0x554e4e52748e2954ull},
      {"capability-aware/aware-faults", 0xc1cd655cfe9b6095ull},
      {"edf/plain", 0xad6328a84077b19cull},
      {"edf/shed", 0x4209563bd936d312ull},
      {"edf/autoscaler", 0x1b2f6c7c172fd530ull},
      {"edf/blind-faults", 0x47326429474dd0baull},
      {"edf/aware-faults", 0x32a0703d73cccf55ull},
      {"model-affinity/plain", 0xcc6c1332293fb8a9ull},
      {"model-affinity/shed", 0xbe8f0fd5556fb62cull},
      {"model-affinity/autoscaler", 0x464612e2641930f7ull},
      {"model-affinity/blind-faults", 0x139d1437e7210817ull},
      {"model-affinity/aware-faults", 0xf7b479ebbe4d381aull},
      {"pipeline/plain", 0x0e6909c17378e73dull},
      {"pipeline/shed", 0x68b6f9f18f5bc973ull},
      {"pipeline/autoscaler", 0xfa92c301cf8353ebull},
      {"pipeline/blind-faults", 0x53f6736aab7165bbull},
      {"pipeline/aware-faults", 0xe9efcca5bd1e306bull},
      {"least-loaded/serial", 0xdc85852d29a47737ull},
      {"least-loaded/pinned-after-first", 0x2f543500ff640dffull},
      {"least-loaded/always-cold", 0xa7b6807da1d42f5full},
  };

  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.name);
    const AdmissionResult r =
        c.warmup == runtime::WarmupPolicy::kRechargeAfterIdle
            ? admit(pool, stream, c.options)
            : [&] {
                PcuPool other = build(c.warmup);
                return admit(other, stream, c.options);
              }();
    expect_digest(expected, c, r);
  }

  // Telemetry of one run dispatched at admission (no queue-depth samples:
  // nothing ever waits in a pending set) and one deferred run.
  struct TelemetryCase {
    DispatchPolicy policy;
    bool shed;
    std::size_t spans;
    std::size_t samples;
  };
  for (const TelemetryCase& t :
       {TelemetryCase{DispatchPolicy::kLeastLoaded, false, 240, 0},
        TelemetryCase{DispatchPolicy::kEdf, true, 240, 240}}) {
    runtime::Telemetry telemetry;
    AdmissionOptions o;
    o.policy = t.policy;
    o.shed_expired = t.shed;
    o.telemetry = &telemetry;
    admit(pool, stream, o);
    EXPECT_EQ(t.spans, telemetry.spans().size())
        << runtime::dispatch_policy_name(t.policy);
    EXPECT_EQ(t.samples, telemetry.queue_depth_samples().size())
        << runtime::dispatch_policy_name(t.policy);
  }
}

// The same matrix on a fleet wide enough that a per-PCU bit set spans three
// 64-bit words, the last one partial: 150 PCUs alternating paper_defaults
// (even indices) and small_core, serving LeNet-5 and tiny_cnn, with
// tiny_cnn's pipeline group on PCUs 63 and 128 — the last bit of word 0
// and the first of word 2. The stream runs at ~1.4x the paper PCUs'
// LeNet-5 capacity, so the whole fleet saturates. Recorded with the
// linear-scan admission loop at commit d3a2d77, before the deferred loop
// indexed its PCUs by free time.
TEST(AdmissionGolden, WideFleetDigestsMatchTheScanningLoop) {
  Rng wrng(5);
  const nn::Network lenet = nn::lenet5();
  const nn::NetWeights lenet_w = nn::make_network_weights(lenet, wrng);
  const nn::Network tiny = nn::tiny_cnn();
  const nn::NetWeights tiny_w = nn::make_network_weights(tiny, wrng);
  constexpr std::size_t kPcus = 150;
  PcuSpec paper;
  paper.config = PcnnaConfig::paper_defaults();
  PcuSpec small = paper;
  small.config = PcnnaConfig::small_core();
  std::vector<PcuSpec> specs;
  for (std::size_t p = 0; p < kPcus; ++p)
    specs.push_back(p % 2 == 0 ? paper : small);
  PcuPool pool(specs, TimingFidelity::kFull, lenet, lenet_w);
  pool.register_model(tiny, tiny_w);
  pool.build_pipeline(/*model=*/1, {63, 128}, /*handoff_time=*/2.0e-6);

  const std::vector<InferenceRequest> stream =
      golden_stream(pool, 800, 1.4 * static_cast<double>(kPcus / 2));
  const double interval = pool.pcu(0).request_interval_overlapped(0);
  const runtime::FaultSchedule faults = golden_faults(
      kPcus, 40.0 * interval, stream.back().arrival_time, 10.0 * interval);
  ASSERT_FALSE(faults.empty());
  const std::vector<GoldenCase> cases = golden_cases(faults, interval);

  const std::map<std::string, std::uint64_t> expected = {
      {"earliest-free/plain", 0x3f9675aa0f2f4771ull},
      {"earliest-free/shed", 0xa14a05271ea7774full},
      {"earliest-free/autoscaler", 0x6bf8c3bae7c92b2dull},
      {"earliest-free/blind-faults", 0x900450308f99e396ull},
      {"earliest-free/aware-faults", 0x83f95428bf711871ull},
      {"least-loaded/plain", 0x1931ee9018ccc365ull},
      {"least-loaded/shed", 0xe626a11ac9ce20b3ull},
      {"least-loaded/autoscaler", 0x6bf8c3bae7c92b2dull},
      {"least-loaded/blind-faults", 0x9791e89b4f96bac5ull},
      {"least-loaded/aware-faults", 0x1c0e6102562074e2ull},
      {"capability-aware/plain", 0x0e0b77fb471f7bc8ull},
      {"capability-aware/shed", 0xe4f794d22804392cull},
      {"capability-aware/autoscaler", 0xe436aa5ce0507309ull},
      {"capability-aware/blind-faults", 0x9862ae4856c5652full},
      {"capability-aware/aware-faults", 0x83a3aa7c4b306801ull},
      {"edf/plain", 0x95eaf72aec89a860ull},
      {"edf/shed", 0x36c1cb25b973e7a0ull},
      {"edf/autoscaler", 0x687c620eaeb4fb5eull},
      {"edf/blind-faults", 0x034004031e66bd56ull},
      {"edf/aware-faults", 0x031d8d7a59dc83ddull},
      {"model-affinity/plain", 0x59aa8fa444a66a53ull},
      {"model-affinity/shed", 0x59aa8fa444a66a53ull},
      {"model-affinity/autoscaler", 0x423033a3c30ea7bfull},
      {"model-affinity/blind-faults", 0x5307348ed7f2e03aull},
      {"model-affinity/aware-faults", 0x1e5994d883111d67ull},
      {"pipeline/plain", 0x92d40c52553b12adull},
      {"pipeline/shed", 0x8ea4847e0146533cull},
      {"pipeline/autoscaler", 0x916dd7fcd5d25c0eull},
      {"pipeline/blind-faults", 0x1484756e74a0851full},
      {"pipeline/aware-faults", 0x74ebb772e36b538eull},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.name);
    expect_digest(expected, c, admit(pool, stream, c.options));
  }
}

// The same matrix on fleets where most PCUs stay untouched — never
// dispatched, faulted or scaled — for many dispatches, so each dispatch
// breaks ties among PCUs that score alike:
//  * cold-512: 512 paper_defaults PCUs at about a sixteenth of their
//    capacity, tiny_cnn pipelined over PCUs 300 and 301;
//  * tie-192: 192 paper_defaults PCUs whose warmup policy runs pinned,
//    recharge, recharge, pinned, ...: untouched PCUs of both policies
//    score alike, so the lowest index must win across the two;
//  * fast-high-192: 96 small_core PCUs, then 96 faster paper_defaults.
// Each fleet's autoscaler starts below the fleet size, so untouched PCUs
// start both active and inactive. On fast-high-192 it starts with every
// small_core PCU and one paper PCU, so the capability-aware and affinity
// runs grow and park the untouched small_core PCUs, which those policies
// never dispatch to. Each fleet's fault schedule crashes, degrades and
// recovers one of its last three PCUs before any dispatch reaches them.
// Recorded with the per-PCU scan, before the deferred loop scored one
// untouched PCU per class.
TEST(AdmissionGolden, ColdFleetDigestsMatchThePerPcuScan) {
  Rng wrng(5);
  const nn::Network lenet = nn::lenet5();
  const nn::NetWeights lenet_w = nn::make_network_weights(lenet, wrng);
  const nn::Network tiny = nn::tiny_cnn();
  const nn::NetWeights tiny_w = nn::make_network_weights(tiny, wrng);
  PcuSpec paper;
  paper.config = PcnnaConfig::paper_defaults();
  PcuSpec pinned = paper;
  pinned.warmup = runtime::WarmupPolicy::kPinnedAfterFirst;
  PcuSpec small = paper;
  small.config = PcnnaConfig::small_core();

  struct Fleet {
    std::string name;
    std::vector<PcuSpec> specs;
    std::vector<std::size_t> pipeline; ///< tiny_cnn's group; empty: none
    double rate;                       ///< arrivals per PCU 0 interval
    std::size_t requests;
    std::size_t min_active;
  };
  std::vector<Fleet> fleets;
  fleets.push_back({"cold-512", std::vector<PcuSpec>(512, paper), {300, 301},
                    32.0, 200, 128});
  Fleet tie{"tie-192", {}, {}, 24.0, 300, 48};
  for (std::size_t p = 0; p < 192; ++p)
    tie.specs.push_back(p % 3 == 0 ? pinned : paper);
  fleets.push_back(tie);
  Fleet fast_high{"fast-high-192", std::vector<PcuSpec>(96, small), {}, 40.0,
                  300, 97};
  fast_high.specs.insert(fast_high.specs.end(), 96, paper);
  fleets.push_back(fast_high);

  const std::map<std::string, std::uint64_t> expected = {
      {"cold-512/earliest-free/plain", 0x8682ec862ca0bb13ull},
      {"cold-512/earliest-free/shed", 0x8682ec862ca0bb13ull},
      {"cold-512/earliest-free/autoscaler", 0xf9a747afca68e5c8ull},
      {"cold-512/earliest-free/blind-faults", 0xa29ec68a1721fed8ull},
      {"cold-512/earliest-free/aware-faults", 0x406949a6c8a9f103ull},
      {"cold-512/least-loaded/plain", 0xb4638ddd5ca410acull},
      {"cold-512/least-loaded/shed", 0x9584d3344a385d33ull},
      {"cold-512/least-loaded/autoscaler", 0xc2722763c2e8f593ull},
      {"cold-512/least-loaded/blind-faults", 0x07ad2f6263dafa33ull},
      {"cold-512/least-loaded/aware-faults", 0x9d1f49921759509full},
      {"cold-512/capability-aware/plain", 0xb4638ddd5ca410acull},
      {"cold-512/capability-aware/shed", 0x9584d3344a385d33ull},
      {"cold-512/capability-aware/autoscaler", 0xc2722763c2e8f593ull},
      {"cold-512/capability-aware/blind-faults", 0x07ad2f6263dafa33ull},
      {"cold-512/capability-aware/aware-faults", 0x9d1f49921759509full},
      {"cold-512/edf/plain", 0x9584d3344a385d33ull},
      {"cold-512/edf/shed", 0x9584d3344a385d33ull},
      {"cold-512/edf/autoscaler", 0xc2722763c2e8f593ull},
      {"cold-512/edf/blind-faults", 0x07ad2f6263dafa33ull},
      {"cold-512/edf/aware-faults", 0x9d1f49921759509full},
      {"cold-512/model-affinity/plain", 0xcd1d9bdc70d70417ull},
      {"cold-512/model-affinity/shed", 0xcd1d9bdc70d70417ull},
      {"cold-512/model-affinity/autoscaler", 0x4005bea13396e0f7ull},
      {"cold-512/model-affinity/blind-faults", 0x4f1dc04e05a37246ull},
      {"cold-512/model-affinity/aware-faults", 0xace0e8d2f0d29735ull},
      {"cold-512/pipeline/plain", 0x37e955bc79c1009full},
      {"cold-512/pipeline/shed", 0x094b57c8791750d0ull},
      {"cold-512/pipeline/autoscaler", 0xa19dfb7339fce8f5ull},
      {"cold-512/pipeline/blind-faults", 0xd68fe28348c7ddc1ull},
      {"cold-512/pipeline/aware-faults", 0x54dfea2a4a26668eull},
      {"tie-192/earliest-free/plain", 0xc66a55647116893cull},
      {"tie-192/earliest-free/shed", 0xc66a55647116893cull},
      {"tie-192/earliest-free/autoscaler", 0xe22d91a79c42a436ull},
      {"tie-192/earliest-free/blind-faults", 0x3de53093f848747cull},
      {"tie-192/earliest-free/aware-faults", 0x4dccde3326df5005ull},
      {"tie-192/least-loaded/plain", 0xa487043afaa2f2a9ull},
      {"tie-192/least-loaded/shed", 0x370bf768a699cc3full},
      {"tie-192/least-loaded/autoscaler", 0x488aab0df91d9d5full},
      {"tie-192/least-loaded/blind-faults", 0x757e6a4eb8ab8f71ull},
      {"tie-192/least-loaded/aware-faults", 0xba201e77e7f24d54ull},
      {"tie-192/capability-aware/plain", 0xa487043afaa2f2a9ull},
      {"tie-192/capability-aware/shed", 0x370bf768a699cc3full},
      {"tie-192/capability-aware/autoscaler", 0x488aab0df91d9d5full},
      {"tie-192/capability-aware/blind-faults", 0x757e6a4eb8ab8f71ull},
      {"tie-192/capability-aware/aware-faults", 0xba201e77e7f24d54ull},
      {"tie-192/edf/plain", 0x370bf768a699cc3full},
      {"tie-192/edf/shed", 0x370bf768a699cc3full},
      {"tie-192/edf/autoscaler", 0x488aab0df91d9d5full},
      {"tie-192/edf/blind-faults", 0x757e6a4eb8ab8f71ull},
      {"tie-192/edf/aware-faults", 0xba201e77e7f24d54ull},
      {"tie-192/model-affinity/plain", 0xc045d52da125852bull},
      {"tie-192/model-affinity/shed", 0xc045d52da125852bull},
      {"tie-192/model-affinity/autoscaler", 0x935880fe2874eccbull},
      {"tie-192/model-affinity/blind-faults", 0x14ebe960d7095a74ull},
      {"tie-192/model-affinity/aware-faults", 0x748da9438f90f759ull},
      {"tie-192/pipeline/plain", 0x370bf768a699cc3full},
      {"tie-192/pipeline/shed", 0x370bf768a699cc3full},
      {"tie-192/pipeline/autoscaler", 0x488aab0df91d9d5full},
      {"tie-192/pipeline/blind-faults", 0x757e6a4eb8ab8f71ull},
      {"tie-192/pipeline/aware-faults", 0xba201e77e7f24d54ull},
      {"fast-high-192/earliest-free/plain", 0xd5000d4e3e4247ecull},
      {"fast-high-192/earliest-free/shed", 0x6c498fb8c3231868ull},
      {"fast-high-192/earliest-free/autoscaler", 0x684f9ce110028855ull},
      {"fast-high-192/earliest-free/blind-faults", 0x800fd04e1d256050ull},
      {"fast-high-192/earliest-free/aware-faults", 0x0fa127a6d3501cd9ull},
      {"fast-high-192/least-loaded/plain", 0x90265c8f8c3eab7cull},
      {"fast-high-192/least-loaded/shed", 0x1262449a25b9bd92ull},
      {"fast-high-192/least-loaded/autoscaler", 0xa1fea0af4eee40c5ull},
      {"fast-high-192/least-loaded/blind-faults", 0x6082eac3e8c7cba6ull},
      {"fast-high-192/least-loaded/aware-faults", 0xd79d8161088217a5ull},
      {"fast-high-192/capability-aware/plain", 0x90265c8f8c3eab7cull},
      {"fast-high-192/capability-aware/shed", 0x1262449a25b9bd92ull},
      {"fast-high-192/capability-aware/autoscaler", 0xe5778e995a6f6973ull},
      {"fast-high-192/capability-aware/blind-faults", 0x6082eac3e8c7cba6ull},
      {"fast-high-192/capability-aware/aware-faults", 0xd79d8161088217a5ull},
      {"fast-high-192/edf/plain", 0x1262449a25b9bd92ull},
      {"fast-high-192/edf/shed", 0x1262449a25b9bd92ull},
      {"fast-high-192/edf/autoscaler", 0xa1fea0af4eee40c5ull},
      {"fast-high-192/edf/blind-faults", 0x6082eac3e8c7cba6ull},
      {"fast-high-192/edf/aware-faults", 0xd79d8161088217a5ull},
      {"fast-high-192/model-affinity/plain", 0x715e9d28c7c99e4bull},
      {"fast-high-192/model-affinity/shed", 0x715e9d28c7c99e4bull},
      {"fast-high-192/model-affinity/autoscaler", 0xf381ccd85c4232deull},
      {"fast-high-192/model-affinity/blind-faults", 0xfc2b0f1a2dc6e94dull},
      {"fast-high-192/model-affinity/aware-faults", 0xaece2b3e91fe8a7bull},
      {"fast-high-192/pipeline/plain", 0x1262449a25b9bd92ull},
      {"fast-high-192/pipeline/shed", 0x1262449a25b9bd92ull},
      {"fast-high-192/pipeline/autoscaler", 0xa1fea0af4eee40c5ull},
      {"fast-high-192/pipeline/blind-faults", 0x6082eac3e8c7cba6ull},
      {"fast-high-192/pipeline/aware-faults", 0xd79d8161088217a5ull},
  };
  for (const Fleet& f : fleets) {
    PcuPool pool(f.specs, TimingFidelity::kFull, lenet, lenet_w);
    pool.register_model(tiny, tiny_w);
    if (!f.pipeline.empty())
      pool.build_pipeline(/*model=*/1, f.pipeline, /*handoff_time=*/2.0e-6);
    const std::vector<InferenceRequest> stream =
        golden_stream(pool, f.requests, f.rate);
    const double interval = pool.pcu(0).request_interval_overlapped(0);
    const std::size_t n = f.specs.size();
    runtime::FaultSchedule faults = golden_faults(
        n, 40.0 * interval, stream.back().arrival_time, 10.0 * interval);
    const std::vector<runtime::FaultEvent> early = {
        {interval, n - 1, runtime::FaultKind::kCrash, 1.0},
        {interval, n - 2, runtime::FaultKind::kDegrade, 1.5},
        {interval, n - 3, runtime::FaultKind::kRecover, 1.0},
        {2.0 * interval, n - 1, runtime::FaultKind::kRecover, 1.0}};
    faults.insert(faults.end(), early.begin(), early.end());
    sort_faults(faults);
    for (const GoldenCase& c : golden_cases(faults, interval, f.min_active)) {
      SCOPED_TRACE(f.name + "/" + c.name);
      const AdmissionResult r = admit(pool, stream, c.options);
      golden::expect_digest(expected, f.name + "/" + c.name,
                            admission_digest(r, c.options.faults));
      if (c.name != "edf/aware-faults") continue;
      // The early events strike before any attempt starts on their PCU.
      for (const runtime::FaultEvent& e : early) {
        for (const ScheduledService& s : r.schedule)
          EXPECT_FALSE(s.pcu == e.pcu && s.start <= e.time) << e.pcu;
        for (const runtime::FaultedAttempt& a : r.fault.attempts)
          EXPECT_FALSE(a.pcu == e.pcu && a.start <= e.time) << e.pcu;
      }
    }
  }
}

} // namespace
