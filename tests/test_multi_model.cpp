// Multi-model serving: per-request model routing, weight-bank swap
// accounting, and the model-affinity dispatch policy.
//
// The load-bearing guarantees pinned here:
//  * swap-cost regression: a two-model alternating trace on one PCU
//    charges exactly (requests - 1) swaps under FIFO, and kModelAffinity
//    on two PCUs charges zero once each model has a home;
//  * the swap charge replaces (never stacks on) the pipeline-fill warmup,
//    and the serial schedule never charges swaps at all;
//  * shed placeholders carry model_id and tenant, so per-model accounting
//    stays correct under load shedding (satellite bugfix);
//  * functional outputs route to the registered model's weights and stay
//    bit-identical to a single-model runner built with those weights.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
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
using runtime::BatchRunner;
using runtime::BatchRunnerOptions;
using runtime::DispatchPolicy;
using runtime::InferenceRequest;
using runtime::ModelSchedule;
using runtime::OpenLoopReport;
using runtime::PcuPool;
using runtime::PriorityClass;
using runtime::RequestQueue;
using runtime::RequestResult;
using runtime::RequestSlo;
using runtime::ScheduledService;
using runtime::SloSchedule;

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

/// Same architecture twice with independent weights: model identity is
/// which weight bank is programmed, which is exactly what a swap changes.
TwoModels make_two_models(std::uint64_t seed = 77) {
  Rng rng(seed);
  TwoModels t{nn::tiny_cnn(), {}, {}};
  t.weights_a = nn::make_network_weights(t.net, rng);
  t.weights_b = nn::make_network_weights(t.net, rng);
  return t;
}

InferenceRequest timing_request(std::uint64_t id, double arrival,
                                std::uint32_t model) {
  InferenceRequest r;
  r.id = id;
  r.arrival_time = arrival;
  r.model_id = model;
  return r;
}

AdmissionResult admit(PcuPool& pool, std::vector<InferenceRequest> requests,
                      const AdmissionOptions& admission) {
  RequestQueue queue;
  for (InferenceRequest& r : requests) queue.push(std::move(r));
  queue.close();
  return pool.simulate_admission(queue, admission);
}

std::size_t count_swaps(const std::vector<ScheduledService>& schedule) {
  std::size_t swaps = 0;
  for (const ScheduledService& s : schedule)
    if (s.swapped) ++swaps;
  return swaps;
}

// --- Pcu-level model registry ---

TEST(MultiModel, RegisterModelExtendsEveryPcuAndSwapStaysWithinInterval) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(2), TimingFidelity::kFull,
               t.net, t.weights_a);
  EXPECT_EQ(1u, pool.num_models());
  const std::uint32_t id = pool.register_model(t.net, t.weights_b);
  EXPECT_EQ(1u, id);
  EXPECT_EQ(2u, pool.num_models());

  for (std::size_t p = 0; p < pool.size(); ++p) {
    const runtime::Pcu& pcu = pool.pcu(p);
    EXPECT_EQ(2u, pcu.num_models());
    // The swap is the full serial reprogram of every bank; each of those
    // recalibrations appears in exactly one term of the steady-state
    // interval's max-sum, so the swap can never exceed the interval.
    for (std::uint32_t m = 0; m < 2; ++m) {
      EXPECT_GT(pcu.swap_time(m), 0.0);
      EXPECT_LE(pcu.swap_time(m), pcu.request_interval_overlapped(m));
      EXPECT_GE(pcu.swap_time(m), pcu.warmup_time(m))
          << "the full reprogram subsumes the single-layer pipeline fill";
    }
  }
}

TEST(MultiModel, UnknownModelIdIsRejected) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(1), TimingFidelity::kFull,
               t.net, t.weights_a);
  EXPECT_THROW(admit(pool, {timing_request(0, 0.0, 1)}, {}), Error);
  EXPECT_THROW(pool.pcu(0).swap_time(3), Error);
}

// --- Swap-cost regression (satellite) ---

TEST(SwapAccounting, AlternatingTraceOnOnePcuChargesExactlyNMinusOneSwaps) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(1), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);

  const std::size_t n = 8;
  std::vector<InferenceRequest> requests;
  for (std::size_t id = 0; id < n; ++id)
    requests.push_back(
        timing_request(id, 0.0, static_cast<std::uint32_t>(id % 2)));
  const AdmissionResult r = admit(pool, std::move(requests), {});

  ASSERT_EQ(n, r.schedule.size());
  // First programming is free of swap (nothing to tear down); every
  // subsequent request switches, so exactly n - 1 swaps.
  EXPECT_EQ(n - 1, count_swaps(r.schedule));
  EXPECT_FALSE(r.schedule[0].swapped);
  EXPECT_EQ(pool.pcu(0).warmup_time(0), r.schedule[0].warmup);
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint32_t model = r.schedule[i].model;
    EXPECT_TRUE(r.schedule[i].swapped) << "entry " << i;
    EXPECT_EQ(pool.pcu(0).swap_time(model), r.schedule[i].swap);
    EXPECT_EQ(0.0, r.schedule[i].warmup)
        << "the swap subsumes the pipeline fill, never stacks on it";
    // Back-to-back on one PCU: each start is the previous completion.
    EXPECT_EQ(r.schedule[i - 1].completion, r.schedule[i].start);
  }
}

TEST(SwapAccounting, RepeatedSameModelNeverSwaps) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(1), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);

  std::vector<InferenceRequest> requests;
  for (std::size_t id = 0; id < 6; ++id)
    requests.push_back(timing_request(id, 0.0, 1));
  const AdmissionResult r = admit(pool, std::move(requests), {});
  EXPECT_EQ(0u, count_swaps(r.schedule));
  for (const ScheduledService& s : r.schedule) EXPECT_EQ(0.0, s.swap);
}

TEST(SwapAccounting, SerialScheduleChargesNoSwaps) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(1), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);

  std::vector<InferenceRequest> requests;
  for (std::size_t id = 0; id < 6; ++id)
    requests.push_back(
        timing_request(id, 0.0, static_cast<std::uint32_t>(id % 2)));
  AdmissionOptions serial;
  serial.double_buffer = false;
  const AdmissionResult r = admit(pool, std::move(requests), serial);
  // Every layer pays its recalibration inline on every request, so a model
  // switch costs nothing extra.
  EXPECT_EQ(0u, count_swaps(r.schedule));
  for (const ScheduledService& s : r.schedule) {
    EXPECT_EQ(0.0, s.swap);
    EXPECT_EQ(s.start + pool.pcu(0).request_time_serial(s.model),
              s.completion);
  }
}

TEST(ModelAffinity, TwoPcusReachZeroSwapSteadyState) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(2), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);

  std::vector<InferenceRequest> requests;
  for (std::size_t id = 0; id < 12; ++id)
    requests.push_back(
        timing_request(id, 0.0, static_cast<std::uint32_t>(id % 2)));
  AdmissionOptions affinity;
  affinity.policy = DispatchPolicy::kModelAffinity;
  const AdmissionResult r = admit(pool, std::move(requests), affinity);

  ASSERT_EQ(12u, r.schedule.size());
  // Each model claims an unprogrammed PCU on first sight (zero swap) and
  // every later request waits for its home PCU instead of thrashing.
  EXPECT_EQ(0u, count_swaps(r.schedule));
  for (const ScheduledService& s : r.schedule) {
    EXPECT_EQ(0.0, s.swap);
    EXPECT_EQ(static_cast<std::size_t>(s.model % 2 == 0 ? 0 : 1), s.pcu)
        << "request " << s.id << " must stay on its model's home PCU";
  }
}

TEST(ModelAffinity, FallsBackAndPaysSwapWhenDeadlineWouldBlow) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(2), TimingFidelity::kFull,
               t.net, t.weights_a);
  pool.register_model(t.net, t.weights_b);
  const double interval = pool.pcu(0).request_interval_overlapped(1);
  const double warmup = pool.pcu(0).warmup_time(1);
  const double swap = pool.pcu(0).swap_time(1);
  const double margin = 0.5 * std::min(swap, interval);

  // Geometry (all derived from the accessors): PCU 0 becomes model 0's
  // home, PCU 1 model 1's. A backlogged model-1 request keeps PCU 1 busy
  // until t1_free while PCU 0 sits free and programmed with model 0. The
  // probe request arrives `margin` before t1_free, so waiting for its
  // home finishes sooner than swapping (margin < swap) — the policy
  // defers unless the deadline cannot survive the wait.
  const double both_free = warmup + interval;  // r0/r1 complete together
  const double t1_free = both_free + interval; // r2 holds PCU 1
  const double probe_arrival = t1_free - margin;
  ASSERT_GT(probe_arrival, both_free);

  const auto run = [&](double deadline) {
    std::vector<InferenceRequest> requests;
    requests.push_back(timing_request(0, 0.0, 0)); // programs PCU 0
    requests.push_back(timing_request(1, 0.0, 1)); // programs PCU 1
    requests.push_back(timing_request(2, 0.0, 1)); // backlogs PCU 1
    InferenceRequest probe = timing_request(3, probe_arrival, 1);
    probe.deadline = deadline;
    requests.push_back(probe);
    AdmissionOptions affinity;
    affinity.policy = DispatchPolicy::kModelAffinity;
    const AdmissionResult r = admit(pool, std::move(requests), affinity);
    for (const ScheduledService& s : r.schedule)
      if (s.id == 3) return s;
    ADD_FAILURE() << "probe request missing from the schedule";
    return r.schedule.back();
  };

  // Slack deadline: waiting for the busy home PCU both meets the SLO and
  // beats swapping, so the probe defers and serves swap-free on PCU 1.
  const ScheduledService patient =
      run(std::numeric_limits<double>::infinity());
  EXPECT_EQ(1u, patient.pcu);
  EXPECT_FALSE(patient.swapped);
  EXPECT_EQ(0.0, patient.swap);
  EXPECT_EQ(t1_free, patient.start) << "deferred until its home freed";

  // Tight deadline: the affinity queue's predicted completion
  // (t1_free + interval) blows the SLO, so the probe abandons the wait
  // at its arrival and swaps onto the free model-0 PCU instead.
  const ScheduledService urgent = run(t1_free + interval - margin * 0.5);
  EXPECT_EQ(0u, urgent.pcu) << "deadline pressure overrides affinity";
  EXPECT_TRUE(urgent.swapped);
  EXPECT_EQ(pool.pcu(0).swap_time(1), urgent.swap);
  EXPECT_EQ(probe_arrival, urgent.start)
      << "dispatched the moment the wait became SLO-infeasible";
}

TEST(ModelAffinity, SingleModelMatchesEarliestFreeDispatch) {
  const TwoModels t = make_two_models();
  PcuPool pool(paper_fleet(3), TimingFidelity::kFull,
               t.net, t.weights_a);
  const runtime::ArrivalSchedule arrivals =
      runtime::poisson_arrivals(120, 8.0e5, 21);

  const auto run = [&](DispatchPolicy policy) {
    std::vector<InferenceRequest> requests;
    for (std::size_t id = 0; id < arrivals.size(); ++id)
      requests.push_back(timing_request(id, arrivals[id], 0));
    AdmissionOptions o;
    o.policy = policy;
    return admit(pool, std::move(requests), o);
  };
  const AdmissionResult a = run(DispatchPolicy::kEarliestFree);
  const AdmissionResult b = run(DispatchPolicy::kModelAffinity);

  // One model, no SLO metadata: affinity degenerates to FIFO onto free
  // PCUs and must reproduce the legacy schedule exactly.
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    EXPECT_EQ(a.schedule[i].id, b.schedule[i].id) << "entry " << i;
    EXPECT_EQ(a.schedule[i].pcu, b.schedule[i].pcu) << "entry " << i;
    EXPECT_EQ(a.schedule[i].start, b.schedule[i].start) << "entry " << i;
    EXPECT_EQ(a.schedule[i].completion, b.schedule[i].completion)
        << "entry " << i;
  }
  EXPECT_EQ(0u, count_swaps(b.schedule));
}

// --- BatchRunner plumbing: reports, placeholders, functional routing ---

TEST(MultiModel, ReportCountsSwapsPerPcuAndFleetWide) {
  const TwoModels t = make_two_models();
  BatchRunner runner(PcnnaConfig::paper_defaults(), t.net, t.weights_a, [] {
    BatchRunnerOptions o;
    o.num_pcus = 1;
    o.simulate_values = false;
    return o;
  }());
  runner.register_model(t.net, t.weights_b);

  const std::size_t n = 6;
  ModelSchedule models;
  for (std::size_t id = 0; id < n; ++id)
    models.push_back(static_cast<std::uint32_t>(id % 2));
  const OpenLoopReport r = runner.simulate_open_loop(
      runtime::closed_batch_arrivals(n), {}, models);

  EXPECT_EQ(n - 1, r.model_swaps);
  EXPECT_GT(r.model_swap_time, 0.0);
  ASSERT_EQ(1u, r.per_pcu.size());
  EXPECT_EQ(n - 1, r.per_pcu[0].swaps);
  EXPECT_EQ(r.model_swap_time, r.per_pcu[0].swap_time);
}

TEST(MultiModel, ShedPlaceholdersCarryModelAndTenant) {
  const TwoModels t = make_two_models();
  Rng rng(5);
  std::vector<nn::Tensor> inputs;
  for (int i = 0; i < 3; ++i)
    inputs.push_back(nn::make_network_input(t.net, rng));

  BatchRunner runner(PcnnaConfig::paper_defaults(), t.net, t.weights_a, [] {
    BatchRunnerOptions o;
    o.num_pcus = 1;
    o.shed_expired = true;
    return o;
  }());
  runner.register_model(t.net, t.weights_b);
  const double interval =
      runner.pool().pcu(0).request_interval_overlapped(0);
  const double warmup = runner.pool().pcu(0).warmup_time(0);

  // One PCU, three same-instant arrivals, deadlines that admit exactly one
  // service: requests 1 and 2 are shed — their placeholder results must
  // still identify the model and tenant they were for.
  SloSchedule slos(3, RequestSlo{9, PriorityClass::kInteractive,
                                 warmup + 1.5 * interval});
  const ModelSchedule models = {0, 1, 1};
  OpenLoopReport report;
  const std::vector<RequestResult> out =
      runner.run_open_loop(inputs, runtime::closed_batch_arrivals(3), &report,
                           slos, models);

  ASSERT_EQ(3u, out.size());
  EXPECT_FALSE(out[0].shed);
  EXPECT_TRUE(out[1].shed);
  EXPECT_TRUE(out[2].shed);
  for (std::size_t id = 0; id < 3; ++id) {
    EXPECT_EQ(models[id], out[id].model_id) << "request " << id;
    EXPECT_EQ(9u, out[id].tenant) << "request " << id;
  }
  EXPECT_EQ(2u, report.shed_requests);
}

TEST(MultiModel, OutputsRouteToTheRequestedModelBitIdentically) {
  const TwoModels t = make_two_models();
  Rng rng(11);
  const nn::Tensor input = nn::make_network_input(t.net, rng);

  BatchRunnerOptions o;
  o.num_pcus = 1;
  o.seed = 123;
  BatchRunner multi(PcnnaConfig::paper_defaults(), t.net, t.weights_a, o);
  multi.register_model(t.net, t.weights_b);

  // Request id 0 targets model 1: its output must match a single-model
  // runner built directly on weights_b (same request seed, same device).
  OpenLoopReport report;
  const std::vector<RequestResult> out = multi.run_open_loop(
      {input}, runtime::closed_batch_arrivals(1), &report, {}, {1});
  ASSERT_EQ(1u, out.size());
  ASSERT_FALSE(out[0].output.empty());
  EXPECT_EQ(1u, out[0].model_id);

  BatchRunner single(PcnnaConfig::paper_defaults(), t.net, t.weights_b, o);
  EXPECT_EQ(single.run_one(input, 0).output, out[0].output)
      << "model routing must select weights_b's banks exactly";

  BatchRunner other(PcnnaConfig::paper_defaults(), t.net, t.weights_a, o);
  EXPECT_NE(other.run_one(input, 0).output, out[0].output)
      << "the two models must actually differ for this test to bite";
}

TEST(MultiModel, ModelScheduleLengthAndIdsAreValidated) {
  const TwoModels t = make_two_models();
  BatchRunner runner(PcnnaConfig::paper_defaults(), t.net, t.weights_a, [] {
    BatchRunnerOptions o;
    o.num_pcus = 1;
    o.simulate_values = false;
    return o;
  }());
  runner.register_model(t.net, t.weights_b);

  // Wrong length and out-of-range model ids both throw.
  EXPECT_THROW(runner.simulate_open_loop(runtime::closed_batch_arrivals(3),
                                         {}, {0, 1}),
               Error);
  EXPECT_THROW(runner.simulate_open_loop(runtime::closed_batch_arrivals(2),
                                         {}, {0, 2}),
               Error);
}

} // namespace
