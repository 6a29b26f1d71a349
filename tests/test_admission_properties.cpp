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
//    services — including pipeline stage spans — overlap on one PCU.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/pcu_pool.hpp"
#include "runtime/arrival.hpp"

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

} // namespace
