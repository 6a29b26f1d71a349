// Pipeline-parallel serving through BatchRunner: the golden bit-identity
// contract and kPipeline's composition with the rest of the front door.
//
// The load-bearing guarantees pinned here:
//  * golden bit-identity — for the same per-request seeds, a model served
//    through a pinned multi-PCU pipeline, a data-parallel fleet, and the
//    sequential single-PCU reference produce bitwise-equal outputs, and
//    engine_threads never perturbs a single bit (each op's noise is keyed
//    by request seed and op, so every stage reseeds from the request seed);
//  * a steady-state pinned pipeline records zero model swaps, pays each
//    stage pin exactly once, and charges busy time to the stage PCUs;
//  * kPipeline composes with deadlines, shedding, and the autoscaler
//    without breaking conservation or determinism;
//  * crashing a stage PCU re-places the group deterministically
//    (replacements > 0) and the run keeps serving.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/models.hpp"
#include "nn/network.hpp"
#include "nn/synth.hpp"
#include "runtime/arrival.hpp"
#include "runtime/batch_runner.hpp"

namespace {

using namespace pcnna;
using core::PcnnaConfig;
using core::TimingFidelity;
using runtime::ArrivalSchedule;
using runtime::BatchRunner;
using runtime::BatchRunnerOptions;
using runtime::DispatchPolicy;
using runtime::OpenLoopReport;
using runtime::RequestResult;

/// Recalibration-heavy 3-conv net: the regime pipeline groups target.
nn::Network make_pipelined_net() {
  nn::Network net("piped", nn::Shape4{1, 32, 8, 8});
  net.add_conv({"p1", 8, 3, 1, 1, 32, 32}).add_relu();
  net.add_conv({"p2", 8, 3, 1, 1, 32, 32}).add_relu();
  net.add_conv({"p3", 8, 3, 1, 1, 32, 32});
  return net;
}

struct Fixture {
  nn::Network net = make_pipelined_net();
  nn::NetWeights weights;
  std::vector<nn::Tensor> inputs;
};

Fixture make_fixture(std::size_t batch) {
  Fixture f;
  Rng rng(23);
  f.weights = nn::make_network_weights(f.net, rng);
  for (std::size_t i = 0; i < batch; ++i)
    f.inputs.push_back(nn::make_network_input(f.net, rng));
  return f;
}

BatchRunnerOptions base_options() {
  BatchRunnerOptions o;
  o.num_pcus = 3;
  o.fidelity = TimingFidelity::kFull;
  o.simulate_values = true;
  o.seed = 9;
  return o;
}

// --- One home for the range timing formula ---

// The whole-model serving constants are the stage formula applied to every
// op, so stage_timings(m, 0, ops) equals the whole-model accessors bit for
// bit.
TEST(StageTimings, WholeRangeEqualsTheWholeModelAccessors) {
  const nn::NetWeights no_weights; // timing only: nothing is served
  for (const nn::Network& net :
       {nn::lenet5(), nn::alexnet(), nn::vgg16(), nn::tiny_cnn()}) {
    for (const PcnnaConfig& config :
         {PcnnaConfig::paper_defaults(), PcnnaConfig::small_core()}) {
      for (const TimingFidelity fidelity :
           {TimingFidelity::kFull, TimingFidelity::kPaper}) {
        SCOPED_TRACE(net.name() + (config == PcnnaConfig::paper_defaults()
                                       ? " paper_defaults "
                                       : " small_core ") +
                     core::timing_fidelity_name(fidelity));
        const runtime::Pcu pcu(0, config, fidelity, net, no_weights);
        const runtime::StageTimings whole =
            pcu.stage_timings(0, 0, net.ops().size());
        EXPECT_EQ(pcu.request_time_serial(), whole.serial);
        EXPECT_EQ(pcu.request_interval_overlapped(), whole.interval);
        EXPECT_EQ(pcu.warmup_time(), whole.pin);
        EXPECT_EQ(pcu.request_energy(), whole.energy);
        EXPECT_EQ(pcu.channel_split_passes(), whole.split_passes);
      }
    }
  }
}

// --- Golden bit-identity (satellite) ---

TEST(PipelineGolden, PipelinedEqualsDataParallelEqualsSequential) {
  const Fixture f = make_fixture(6);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();
  const ArrivalSchedule arrivals(f.inputs.size(), 0.0);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    BatchRunnerOptions sopts = base_options();
    sopts.num_pcus = 1;
    sopts.engine_threads = threads;
    BatchRunner sequential(config, f.net, f.weights, sopts);

    BatchRunnerOptions dopts = base_options();
    dopts.engine_threads = threads;
    dopts.dispatch = DispatchPolicy::kLeastLoaded;
    BatchRunner data_parallel(config, f.net, f.weights, dopts);
    const std::vector<RequestResult> dp =
        data_parallel.run_open_loop(f.inputs, arrivals);

    BatchRunnerOptions popts = base_options();
    popts.engine_threads = threads;
    popts.dispatch = DispatchPolicy::kPipeline;
    BatchRunner pipelined(config, f.net, f.weights, popts);
    pipelined.build_pipeline(/*model=*/0, {0, 1, 2});
    OpenLoopReport report;
    const std::vector<RequestResult> pl =
        pipelined.run_open_loop(f.inputs, arrivals, &report);
    ASSERT_EQ(f.inputs.size(), report.pipeline.pipelined_requests);

    for (std::size_t id = 0; id < f.inputs.size(); ++id) {
      const RequestResult ref = sequential.run_one(f.inputs[id], id);
      EXPECT_TRUE(ref.output == dp[id].output)
          << "data-parallel request " << id << " at " << threads
          << " engine threads";
      EXPECT_TRUE(ref.output == pl[id].output)
          << "pipelined request " << id << " at " << threads
          << " engine threads";
    }
  }
}

// --- Steady-state accounting ---

TEST(PipelineServing, PinnedPipelineNeverSwapsAndChargesStagePcus) {
  const Fixture f = make_fixture(0);
  BatchRunnerOptions o = base_options();
  o.simulate_values = false;
  o.dispatch = DispatchPolicy::kPipeline;
  BatchRunner runner(PcnnaConfig::paper_defaults(), f.net, f.weights, o);
  runner.build_pipeline(/*model=*/0, {0, 1, 2});

  const double interval = runner.pool().pcu(0).request_interval_overlapped(0);
  constexpr std::size_t kCount = 500;
  const OpenLoopReport r = runner.simulate_open_loop(
      runtime::poisson_arrivals(kCount, 0.9 / interval, 3));

  EXPECT_EQ(kCount, r.requests);
  EXPECT_EQ(kCount, r.served_requests);
  EXPECT_EQ(0u, r.model_swaps);
  EXPECT_EQ(0.0, r.model_swap_time);
  EXPECT_EQ(1u, r.pipeline.groups);
  EXPECT_EQ(kCount, r.pipeline.pipelined_requests);
  EXPECT_EQ(3 * kCount, r.pipeline.stage_spans);
  EXPECT_EQ(0u, r.pipeline.replacements);
  EXPECT_GT(r.pipeline.pin_time, 0.0);

  // Every stage PCU worked; the head (uniform layers on a homogeneous
  // chain place stage 0 on PCU 0) is credited with the requests.
  ASSERT_EQ(3u, r.per_pcu.size());
  EXPECT_EQ(kCount, r.per_pcu[0].requests);
  for (const runtime::PcuBreakdown& b : r.per_pcu) {
    EXPECT_GT(b.busy_time, 0.0);
    EXPECT_EQ(0u, b.swaps);
  }
  // The one-time pins surface as warmup on the stage PCUs.
  double warmup = 0.0;
  for (const runtime::PcuBreakdown& b : r.per_pcu) warmup += b.warmup_time;
  EXPECT_EQ(r.pipeline.pin_time, warmup);
}

TEST(PipelineServing, HandoffTimeIsChargedBetweenStages) {
  const Fixture f = make_fixture(0);
  BatchRunnerOptions o = base_options();
  o.simulate_values = false;
  o.dispatch = DispatchPolicy::kPipeline;

  const auto completion_with = [&](double handoff) {
    BatchRunner runner(PcnnaConfig::paper_defaults(), f.net, f.weights, o);
    runner.build_pipeline(/*model=*/0, {0, 1, 2}, handoff);
    const OpenLoopReport r =
        runner.simulate_open_loop(ArrivalSchedule(8, 0.0));
    // 2 stage boundaries per request across 8 requests.
    if (handoff == 0.0)
      EXPECT_EQ(0.0, r.pipeline.handoff_time);
    else
      EXPECT_NEAR(16.0 * handoff, r.pipeline.handoff_time, 1e-9 * handoff);
    return r.makespan;
  };
  const double free_makespan = completion_with(0.0);
  const double taxed_makespan = completion_with(1e-6);
  EXPECT_GT(taxed_makespan, free_makespan);
}

// --- Composition with the SLO front door ---

TEST(PipelineServing, ComposesWithDeadlinesSheddingAndAutoscaler) {
  const Fixture f = make_fixture(0);
  BatchRunnerOptions o = base_options();
  o.num_pcus = 4;
  o.simulate_values = false;
  o.dispatch = DispatchPolicy::kPipeline;
  o.shed_expired = true;
  o.autoscaler.enabled = true;
  o.autoscaler.min_active = 1;
  o.autoscaler.backlog_per_pcu = 1.5;

  BatchRunner runner(PcnnaConfig::paper_defaults(), f.net, f.weights, o);
  runner.build_pipeline(/*model=*/0, {0, 1, 2});
  const double interval = runner.pool().pcu(0).request_interval_overlapped(0);
  o.autoscaler.shrink_after_idle = 3.0 * interval;

  constexpr std::size_t kCount = 600;
  // 2x overload with tight deadlines: the pipeline must shed the excess
  // instead of serving uselessly late.
  const ArrivalSchedule arrivals =
      runtime::poisson_arrivals(kCount, 2.0 / interval, 7);
  const runtime::SloSchedule slos = runtime::assign_tenants(
      arrivals,
      {{0, runtime::PriorityClass::kInteractive, 1.0, 6.0 * interval},
       {1, runtime::PriorityClass::kBestEffort, 1.0, 3.0 * interval}},
      11);

  const OpenLoopReport a = runner.simulate_open_loop(arrivals, slos);
  EXPECT_GT(a.shed_requests, 0u);
  EXPECT_GT(a.pipeline.pipelined_requests, 0u);
  EXPECT_EQ(0u, a.model_swaps);
  // Conservation through the composed stack.
  EXPECT_EQ(kCount, a.requests);
  EXPECT_EQ(a.requests,
            a.served_requests + a.shed_requests + a.failed_requests);
  // And the whole composition is deterministic.
  const OpenLoopReport b = runner.simulate_open_loop(arrivals, slos);
  EXPECT_EQ(a.served_requests, b.served_requests);
  EXPECT_EQ(a.shed_requests, b.shed_requests);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.latency.p99, b.latency.p99);
  EXPECT_EQ(a.pipeline.pin_time, b.pipeline.pin_time);
}

// --- Fault quarantine and deterministic re-placement ---

TEST(PipelineServing, CrashedStagePcuTriggersDeterministicReplacement) {
  const Fixture f = make_fixture(0);
  BatchRunnerOptions o = base_options();
  o.num_pcus = 3;
  o.simulate_values = false;
  o.dispatch = DispatchPolicy::kPipeline;

  const auto run = [&] {
    BatchRunner runner(PcnnaConfig::paper_defaults(), f.net, f.weights, o);
    runner.build_pipeline(/*model=*/0, {0, 1, 2});
    const double interval =
        runner.pool().pcu(0).request_interval_overlapped(0);
    BatchRunnerOptions fo = o;
    // Crash the middle stage PCU mid-run; recover it later. The group
    // re-places onto the two survivors, then back onto all three.
    fo.faults.schedule = {
        {20.0 * interval, 1, runtime::FaultKind::kCrash, 1.0},
        {60.0 * interval, 1, runtime::FaultKind::kRecover, 1.0},
    };
    fo.faults.detection_latency = 0.5 * interval;
    fo.faults.retry.backoff_base = 0.25 * interval;
    BatchRunner faulty(PcnnaConfig::paper_defaults(), f.net, f.weights, fo);
    faulty.build_pipeline(/*model=*/0, {0, 1, 2});
    return faulty.simulate_open_loop(
        runtime::poisson_arrivals(300, 0.9 / interval, 5));
  };

  const OpenLoopReport a = run();
  EXPECT_GE(a.pipeline.replacements, 2u); // down to survivors, back up
  EXPECT_GT(a.fault.injections, 0u);
  EXPECT_GT(a.served_requests, 0u);
  // Retried chains re-dispatch through the (re-placed) group, so the
  // pipelined count can only meet or exceed the served count.
  EXPECT_GE(a.pipeline.pipelined_requests, a.served_requests);
  EXPECT_EQ(a.requests,
            a.served_requests + a.shed_requests + a.failed_requests);

  const OpenLoopReport b = run();
  EXPECT_EQ(a.served_requests, b.served_requests);
  EXPECT_EQ(a.pipeline.replacements, b.pipeline.replacements);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.pipeline.pin_time, b.pipeline.pin_time);
}

} // namespace
