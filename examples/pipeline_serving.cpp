// Pipeline-parallel serving demo: pin a model across a chain of PCUs.
//
// PCNNA's serving cost is dominated by weight-bank reprogramming, so a
// fleet that keeps swapping models between requests wastes most of its
// time retuning microrings. Pipeline groups remove the swap entirely:
// StagePartitioner splits the network into contiguous layer ranges, each
// stage PCU pins its range's banks once, and images stream through the
// chain — stage n of image i overlapping stage n-1 of image i+1.
//
// The demo:
//   1. builds two recalibration-heavy models on a 6-PCU fleet — a regime
//      where one PCU's banks hold one model at a time, so data-parallel
//      serving of the pair must reprogram constantly,
//   2. serves the same overloaded two-model stream three ways in virtual
//      time: least-loaded (swap-thrashing data parallelism), model
//      affinity (per-model home PCUs), and kPipeline with each model
//      pinned across its own 3-stage group,
//   3. prints the three OpenLoopReports — pipeline matches affinity's
//      zero-swap throughput and reports its stage spans / pin / hand-off
//      accounting,
//   4. runs a small functional batch through the pipeline and checks each
//      output is bit-identical to the sequential single-PCU reference
//      (each op's noise is keyed by request seed and op, so splitting
//      layers across chips never changes a single bit).
#include <iostream>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/network.hpp"
#include "nn/synth.hpp"
#include "runtime/arrival.hpp"
#include "runtime/batch_runner.hpp"

using namespace pcnna;

namespace {

/// Small feature maps (little ADC/DAC work) with many channels (big weight
/// banks): recalibration dominates, the regime pipelining targets.
nn::Network make_recal_heavy(const std::string& name) {
  nn::Network net(name, nn::Shape4{1, 64, 8, 8});
  net.add_conv({name + "_c1", /*n=*/8, /*m=*/3, /*p=*/1, /*s=*/1,
                /*nc=*/64, /*K=*/64})
      .add_relu();
  net.add_conv({name + "_c2", /*n=*/8, /*m=*/3, /*p=*/1, /*s=*/1,
                /*nc=*/64, /*K=*/64})
      .add_relu();
  net.add_conv({name + "_c3", /*n=*/8, /*m=*/3, /*p=*/1, /*s=*/1,
                /*nc=*/64, /*K=*/64});
  return net;
}

} // namespace

int main() {
  bool ok = true;
  constexpr std::size_t kPcus = 6;
  constexpr std::size_t kRequests = 3000;

  // --- 1. Two recal-heavy models and a work-balanced overload stream. ---
  const nn::Network model_a = make_recal_heavy("pipe_a");
  const nn::Network model_b = make_recal_heavy("pipe_b");
  Rng rng(42);
  const nn::NetWeights weights_a = nn::make_network_weights(model_a, rng);
  const nn::NetWeights weights_b = nn::make_network_weights(model_b, rng);
  const core::PcnnaConfig config = core::PcnnaConfig::paper_defaults();

  runtime::BatchRunnerOptions options;
  options.num_pcus = kPcus;
  options.fidelity = core::TimingFidelity::kFull;
  options.simulate_values = false; // timing-only for the sweeps
  options.seed = 1;

  // Offered load: 1.3x what six swap-free PCUs could absorb.
  double interval = 0.0;
  {
    runtime::BatchRunner probe(config, model_a, weights_a, options);
    interval = probe.pool().pcu(0).request_interval_overlapped(0);
  }
  const double offered = 1.3 * static_cast<double>(kPcus) / interval;
  const runtime::ArrivalSchedule arrivals =
      runtime::poisson_arrivals(kRequests, offered, 7);
  runtime::ModelSchedule models(kRequests, 0);
  Rng pick(11);
  for (std::size_t id = 0; id < kRequests; ++id)
    models[id] = pick.uniform() < 0.5 ? 0u : 1u;

  // --- 2. + 3. Serve the stream under the three policies. ---
  double ll_rps = 0.0, pipe_rps = 0.0;
  std::size_t ll_swaps = 0, pipe_swaps = 0;
  for (const runtime::DispatchPolicy policy :
       {runtime::DispatchPolicy::kLeastLoaded,
        runtime::DispatchPolicy::kModelAffinity,
        runtime::DispatchPolicy::kPipeline}) {
    runtime::BatchRunnerOptions popts = options;
    popts.dispatch = policy;
    runtime::BatchRunner runner(config, model_a, weights_a, popts);
    runner.register_model(model_b, weights_b);
    if (policy == runtime::DispatchPolicy::kPipeline) {
      // Each model pinned across its own 3-PCU chain. The partitioner
      // balances stages by channel_split_passes; here the three conv
      // layers are identical, so each stage pins exactly one.
      runner.build_pipeline(/*model=*/0, {0, 1, 2});
      runner.build_pipeline(/*model=*/1, {3, 4, 5});
    }
    const runtime::OpenLoopReport r =
        runner.simulate_open_loop(arrivals, {}, models);
    if (policy == runtime::DispatchPolicy::kLeastLoaded) {
      ll_rps = r.achieved_rps;
      ll_swaps = r.model_swaps;
    }
    if (policy == runtime::DispatchPolicy::kPipeline) {
      pipe_rps = r.achieved_rps;
      pipe_swaps = r.model_swaps;
    }
    runtime::BatchRunner::print_report(
        r, std::cout,
        std::string("pipeline serving demo - ") +
            runtime::dispatch_policy_name(policy));
    std::cout << "\n";
  }

  if (!(pipe_rps > ll_rps)) {
    std::cout << "FAIL: pipeline throughput (" << format_count(pipe_rps)
              << " req/s) does not beat swap-thrashing least-loaded ("
              << format_count(ll_rps) << " req/s)\n";
    ok = false;
  }
  if (pipe_swaps != 0 || ll_swaps == 0) {
    std::cout << "FAIL: swap counts off (pipeline " << pipe_swaps
              << ", least-loaded " << ll_swaps << ")\n";
    ok = false;
  }

  // --- 4. Functional bit-identity through the pipeline. ---
  {
    Rng in_rng(5);
    std::vector<nn::Tensor> inputs;
    for (std::size_t i = 0; i < 6; ++i)
      inputs.push_back(nn::make_network_input(model_a, in_rng));

    runtime::BatchRunnerOptions fopts = options;
    fopts.num_pcus = 3;
    fopts.simulate_values = true;
    fopts.dispatch = runtime::DispatchPolicy::kPipeline;
    runtime::BatchRunner piped(config, model_a, weights_a, fopts);
    piped.build_pipeline(/*model=*/0, {0, 1, 2});
    const auto results = piped.run_open_loop(
        inputs, runtime::ArrivalSchedule(inputs.size(), 0.0));

    runtime::BatchRunnerOptions sopts = options;
    sopts.num_pcus = 1;
    sopts.simulate_values = true;
    runtime::BatchRunner single(config, model_a, weights_a, sopts);
    for (std::size_t id = 0; id < inputs.size(); ++id) {
      if (!(single.run_one(inputs[id], id).output == results[id].output)) {
        std::cout << "FAIL: pipelined request " << id
                  << " differs from the sequential reference\n";
        ok = false;
      }
    }
    std::cout << "bit-identity: pipelined outputs "
              << (ok ? "match" : "DO NOT match")
              << " the sequential single-PCU reference\n";
  }

  std::cout << "\npipeline serving demo: " << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
