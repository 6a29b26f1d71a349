// Open-loop serving sweep: tail latency vs offered load (the hockey stick).
//
// Drives a 4-PCU fleet with seeded Poisson arrivals at offered loads from
// 0.1x to 1.2x of fleet capacity and reports, per load point, the latency
// distribution (p50/p99/p99.9), mean queueing delay and queue depth, mean
// per-PCU utilization, and offered vs achieved throughput. Below
// saturation the fleet tracks the offered load with flat tails; past
// ~1.0x the queue grows without bound over the run and p99 explodes —
// the behavior a closed all-at-once batch cannot show.
//
// A second sweep drives a heterogeneous fleet (2 paper-default "big" PCUs
// + 2 small_core "small" ones) under each dispatch policy at fixed load
// and reports p50/p99 per policy — the skew capability-aware dispatch is
// built to exploit.
//
// A third sweep drives a two-tenant SLO mix past fleet capacity
// (1.2x-1.5x) and contrasts FIFO earliest-free with EDF + load shedding:
// the SLO-aware front door must hold the interactive tenant's p99 inside
// its budget where FIFO lets the overload drag every tenant down. A final
// probe enables the autoscaler and checks the mean active fleet tracks
// offered load.
//
// A fourth sweep serves three registered models (LeNet-5, AlexNet, and a
// recalibration-heavy synthetic net) on one fleet, with a seeded
// work-balanced model mix at 1.5x overload. Model switches charge the
// weight-bank swap (the full serial reprogram), and on these models the
// swap rivals the steady-state interval — so model-blind least-loaded
// dispatch thrashes the banks while kModelAffinity parks each model on
// home PCUs. The self-check gates affinity throughput at >= 1.3x
// least-loaded at equal SLO attainment.
//
// The sweeps themselves are timing-only (BatchRunner::simulate_open_loop):
// the admission loop needs no functional inference, so each point can use
// thousands of requests. Three self-checks gate the exit code:
//
//  * determinism — re-simulating a sweep point reproduces every reported
//    number bitwise;
//  * bit-identity — a small functional open-loop batch matches the
//    sequential single-PCU reference output bit for bit;
//  * mixed-fleet ordering — capability-aware p99 beats earliest-free p99
//    on the skewed fleet at a load its capable subset absorbs.
//
// A telemetry probe re-runs the 1.35x SLO point with a runtime::Telemetry
// attached and gates three things: the instrumented report is bitwise
// identical to the bare one, two instrumented runs serialize byte-identical
// Chrome traces, and the wall-clock overhead of observing stays within
// 10 %. `--trace-out PATH` writes the probe's Chrome trace for
// scripts/trace_summary.py / Perfetto.
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "bench_util.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/arrival.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/telemetry.hpp"

using namespace pcnna;

int main(int argc, char** argv) {
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc)
      trace_out = argv[++i];
  }
  constexpr std::size_t kPcus = 4;
  constexpr std::size_t kRequestsPerPoint = 5000;
  constexpr std::uint64_t kArrivalSeed = 2027;

  const nn::Network net = nn::lenet5();
  Rng rng(2026);
  const nn::NetWeights weights = nn::make_network_weights(net, rng);
  const core::PcnnaConfig config = core::PcnnaConfig::paper_defaults();

  runtime::BatchRunnerOptions options;
  options.num_pcus = kPcus;
  options.fidelity = core::TimingFidelity::kFull;
  options.simulate_values = false;
  options.double_buffer = true;
  options.seed = 7;
  runtime::BatchRunner fleet(config, net, weights, options);

  const double capacity = fleet.simulate_open_loop({}).fleet_capacity_rps;

  benchutil::DualSink sink({"load", "offered", "achieved", "p50", "p99",
                            "p99.9", "mean wait", "queue depth", "util"},
                           "pcnna_open_loop.csv");
  benchutil::BenchJsonWriter json("open_loop", "BENCH_open_loop.json");

  bool ok = true;
  double p99_low = 0.0, p99_high = 0.0;
  const auto utilization = [](const runtime::OpenLoopReport& r) {
    std::vector<double> u;
    for (const runtime::PcuBreakdown& b : r.per_pcu) u.push_back(b.utilization);
    return u;
  };
  for (int step = 1; step <= 12; ++step) {
    const double load = 0.1 * static_cast<double>(step);
    const runtime::ArrivalSchedule arrivals = runtime::poisson_arrivals(
        kRequestsPerPoint, load * capacity, kArrivalSeed + step);
    const runtime::OpenLoopReport r = fleet.simulate_open_loop(arrivals);

    if (step == 3) p99_low = r.latency.p99;
    if (step == 12) p99_high = r.latency.p99;

    double util_sum = 0.0;
    for (double u : utilization(r)) util_sum += u;
    const double util_mean = util_sum / static_cast<double>(kPcus);

    sink.row({format_fixed(load, 1) + " x",
              format_count(r.offered_rps) + " req/s",
              format_count(r.achieved_rps) + " req/s",
              format_time(r.latency.p50), format_time(r.latency.p99),
              format_time(r.latency.p999), format_time(r.queue_wait.mean),
              format_fixed(r.mean_queue_depth, 2),
              format_fixed(100.0 * util_mean, 1) + " %"});

    const std::string point = "load_" + format_fixed(load, 1) + "x";
    json.row(point, "offered_rps", r.offered_rps, "req/s");
    json.row(point, "achieved_rps", r.achieved_rps, "req/s");
    json.row(point, "latency_p50", r.latency.p50, "s");
    json.row(point, "latency_p99", r.latency.p99, "s");
    json.row(point, "latency_p999", r.latency.p999, "s");
    json.row(point, "queue_wait_mean", r.queue_wait.mean, "s");
    json.row(point, "mean_queue_depth", r.mean_queue_depth, "requests");
    json.row(point, "utilization_mean", util_mean, "fraction");

    // Determinism self-check on the mid-sweep point: a re-simulation must
    // reproduce the schedule bitwise.
    if (step == 6) {
      const runtime::OpenLoopReport again = fleet.simulate_open_loop(arrivals);
      if (again.makespan != r.makespan || again.latency.p99 != r.latency.p99 ||
          again.latency.p999 != r.latency.p999 ||
          again.mean_queue_depth != r.mean_queue_depth ||
          utilization(again) != utilization(r)) {
        std::cout << "FAIL: re-simulated load point is not bit-identical\n";
        ok = false;
      }
    }
  }
  sink.print("Open-loop serving - " + net.name() + ", " +
             std::to_string(kPcus) + " PCUs, " +
             std::to_string(kRequestsPerPoint) +
             " Poisson requests per point (fleet capacity " +
             format_count(capacity) + " req/s)");
  json.row("fleet", "capacity_rps", capacity, "req/s");

  // --- Mixed-fleet sweep: 2 big + 2 small PCUs, one row set per dispatch
  // policy at a fixed offered load the capable (big) subset can absorb.
  // The skew is the point: earliest-free parks requests on the slow PCUs,
  // least-loaded and capability-aware route around them.
  {
    runtime::PcuSpec big;
    big.config = config;
    big.tag = "big";
    runtime::PcuSpec small;
    small.config = core::PcnnaConfig::small_core();
    small.tag = "small";
    const std::vector<runtime::PcuSpec> specs = {big, big, small, small};

    benchutil::DualSink hsink({"policy", "offered", "achieved", "p50", "p99",
                               "mean wait", "big reqs", "small reqs"},
                              "pcnna_open_loop_hetero.csv");

    double ef_p99 = 0.0, cap_p99 = 0.0, big_capacity = 0.0;
    for (const runtime::DispatchPolicy policy :
         runtime::kAllDispatchPolicies) {
      runtime::BatchRunnerOptions hopts = options;
      hopts.dispatch = policy;
      runtime::BatchRunner hetero(specs, net, weights, hopts);
      if (big_capacity == 0.0) {
        big_capacity =
            2.0 / hetero.pool().pcu(0).request_interval_overlapped();
      }
      const runtime::OpenLoopReport r = hetero.simulate_open_loop(
          runtime::poisson_arrivals(kRequestsPerPoint, 0.4 * big_capacity,
                                    kArrivalSeed));
      if (policy == runtime::DispatchPolicy::kEarliestFree)
        ef_p99 = r.latency.p99;
      if (policy == runtime::DispatchPolicy::kCapabilityAware)
        cap_p99 = r.latency.p99;

      hsink.row({runtime::dispatch_policy_name(policy),
                 format_count(r.offered_rps) + " req/s",
                 format_count(r.achieved_rps) + " req/s",
                 format_time(r.latency.p50), format_time(r.latency.p99),
                 format_time(r.queue_wait.mean),
                 std::to_string(r.per_pcu[0].requests +
                                r.per_pcu[1].requests),
                 std::to_string(r.per_pcu[2].requests +
                                r.per_pcu[3].requests)});

      const std::string point =
          std::string("hetero_") + runtime::dispatch_policy_name(policy);
      json.row(point, "offered_rps", r.offered_rps, "req/s");
      json.row(point, "achieved_rps", r.achieved_rps, "req/s");
      json.row(point, "latency_p50", r.latency.p50, "s");
      json.row(point, "latency_p99", r.latency.p99, "s");
      json.row(point, "queue_wait_mean", r.queue_wait.mean, "s");
      json.row(point, "small_pcu_requests",
               static_cast<double>(r.per_pcu[2].requests +
                                   r.per_pcu[3].requests),
               "requests");
    }
    hsink.print("Mixed fleet (2 big + 2 small_core PCUs) - " + net.name() +
                ", " + std::to_string(kRequestsPerPoint) +
                " Poisson requests at 0.4x big-subset capacity");

    if (!(cap_p99 < ef_p99)) {
      std::cout << "FAIL: capability-aware p99 (" << format_time(cap_p99)
                << ") does not beat earliest-free p99 ("
                << format_time(ef_p99) << ") on the skewed fleet\n";
      ok = false;
    }
  }

  // --- SLO sweep: a two-tenant mix (20 % interactive with a tight latency
  // budget, 80 % best-effort with a loose one) driven past fleet capacity.
  // Under overload the queue grows without bound, so FIFO earliest-free
  // drags every tenant's p99 with it; class-partitioned EDF plus load
  // shedding sacrifices expired best-effort work to hold the interactive
  // SLO. The self-check gates exactly that split at every overload point.
  {
    const double interval = fleet.pool().pcu(0).request_interval_overlapped();
    const double warmup = fleet.pool().pcu(0).warmup_time();
    const double interactive_budget = warmup + 6.0 * interval;

    std::vector<runtime::TenantClass> mix(2);
    mix[0].tenant = 0;
    mix[0].priority = runtime::PriorityClass::kInteractive;
    mix[0].weight = 0.2;
    mix[0].slo_budget = interactive_budget;
    mix[1].tenant = 1;
    mix[1].priority = runtime::PriorityClass::kBestEffort;
    mix[1].weight = 0.8;
    mix[1].slo_budget = warmup + 60.0 * interval;

    benchutil::DualSink ssink({"load", "policy", "achieved", "shed",
                               "int p99", "int SLO", "be SLO"},
                              "pcnna_open_loop_slo.csv");

    const auto tenant_slice = [](const runtime::OpenLoopReport& r,
                                 std::uint32_t tenant) {
      for (const runtime::TenantBreakdown& t : r.per_tenant)
        if (t.tenant == tenant) return t;
      return runtime::TenantBreakdown{};
    };

    const double overloads[] = {1.2, 1.35, 1.5};
    for (int i = 0; i < 3; ++i) {
      const double load = overloads[i];
      const runtime::ArrivalSchedule arrivals = runtime::poisson_arrivals(
          kRequestsPerPoint, load * capacity, kArrivalSeed + 100 + i);
      const runtime::SloSchedule slos =
          runtime::assign_tenants(arrivals, mix, kArrivalSeed + 200 + i);

      for (const bool slo_aware : {false, true}) {
        runtime::BatchRunnerOptions sopts = options;
        sopts.dispatch = slo_aware ? runtime::DispatchPolicy::kEdf
                                   : runtime::DispatchPolicy::kEarliestFree;
        sopts.shed_expired = slo_aware;
        runtime::BatchRunner runner(config, net, weights, sopts);
        const runtime::OpenLoopReport r =
            runner.simulate_open_loop(arrivals, slos);
        const runtime::TenantBreakdown interactive = tenant_slice(r, 0);
        const runtime::TenantBreakdown best_effort = tenant_slice(r, 1);

        ssink.row({format_fixed(load, 2) + " x",
                   slo_aware ? "edf + shed" : "earliest-free",
                   format_count(r.achieved_rps) + " req/s",
                   format_fixed(100.0 * r.shed_rate, 1) + " %",
                   format_time(interactive.latency.p99),
                   format_fixed(100.0 * interactive.slo_attainment, 1) + " %",
                   format_fixed(100.0 * best_effort.slo_attainment, 1) +
                       " %"});

        const std::string point = "slo_" + format_fixed(load, 2) + "x_" +
                                  (slo_aware ? "edf_shed" : "earliest_free");
        json.row(point, "achieved_rps", r.achieved_rps, "req/s");
        json.row(point, "shed_rate", r.shed_rate, "fraction");
        json.row(point, "interactive_p99", interactive.latency.p99, "s");
        json.row(point, "interactive_slo_attainment",
                 interactive.slo_attainment, "fraction");
        json.row(point, "best_effort_slo_attainment",
                 best_effort.slo_attainment, "fraction");
        json.row(point, "slo_attainment", r.slo_attainment, "fraction");

        if (slo_aware) {
          if (!(interactive.latency.p99 <= interactive_budget &&
                interactive.slo_attainment >= 0.95)) {
            std::cout << "FAIL: edf+shed does not hold the interactive SLO "
                         "at "
                      << format_fixed(load, 2) << "x (p99 "
                      << format_time(interactive.latency.p99) << " vs budget "
                      << format_time(interactive_budget) << ", attainment "
                      << format_fixed(100.0 * interactive.slo_attainment, 1)
                      << " %)\n";
            ok = false;
          }
        } else if (!(interactive.latency.p99 > interactive_budget)) {
          std::cout << "FAIL: earliest-free unexpectedly holds the "
                       "interactive p99 at "
                    << format_fixed(load, 2) << "x overload ("
                    << format_time(interactive.latency.p99) << " <= budget "
                    << format_time(interactive_budget) << ")\n";
          ok = false;
        }
      }
    }
    ssink.print("SLO-aware serving under overload - " + net.name() + ", " +
                std::to_string(kPcus) + " PCUs, 20 % interactive (budget " +
                format_time(interactive_budget) + ") + 80 % best-effort");
    json.row("slo", "interactive_budget", interactive_budget, "s");

    // --- Telemetry probe: observation must be invisible and near-free. ---
    // Re-runs the 1.35x EDF+shed point bare and instrumented: the reports
    // must match bitwise, two instrumented runs must serialize identical
    // Chrome traces, and the best-of-5 wall-clock overhead of observing
    // must stay within 10 % (small absolute floor so millisecond-scale
    // runs don't gate on timer noise).
    {
      const runtime::ArrivalSchedule parrivals = runtime::poisson_arrivals(
          kRequestsPerPoint, 1.35 * capacity, kArrivalSeed + 100 + 1);
      const runtime::SloSchedule pslos =
          runtime::assign_tenants(parrivals, mix, kArrivalSeed + 200 + 1);
      runtime::BatchRunnerOptions popts = options;
      popts.dispatch = runtime::DispatchPolicy::kEdf;
      popts.shed_expired = true;

      const auto run = [&](runtime::Telemetry* telemetry) {
        runtime::BatchRunnerOptions o = popts;
        o.telemetry = telemetry;
        runtime::BatchRunner runner(config, net, weights, o);
        return runner.simulate_open_loop(parrivals, pslos);
      };

      const runtime::OpenLoopReport bare = run(nullptr);
      runtime::Telemetry telemetry;
      const runtime::OpenLoopReport instrumented = run(&telemetry);
      bool identical =
          bare.makespan == instrumented.makespan &&
          bare.achieved_rps == instrumented.achieved_rps &&
          bare.latency.p99 == instrumented.latency.p99 &&
          bare.latency.p999 == instrumented.latency.p999 &&
          bare.shed_requests == instrumented.shed_requests &&
          bare.slo_attainment == instrumented.slo_attainment &&
          bare.per_pcu.size() == instrumented.per_pcu.size();
      if (identical) {
        for (std::size_t p = 0; p < bare.per_pcu.size(); ++p)
          identical = identical &&
                      bare.per_pcu[p].busy_time ==
                          instrumented.per_pcu[p].busy_time &&
                      bare.per_pcu[p].requests ==
                          instrumented.per_pcu[p].requests;
      }
      if (!identical) {
        std::cout << "FAIL: telemetry perturbed the 1.35x SLO schedule\n";
        ok = false;
      }

      runtime::Telemetry again;
      run(&again);
      std::ostringstream trace_a, trace_b;
      telemetry.write_chrome_trace(trace_a);
      again.write_chrome_trace(trace_b);
      if (trace_a.str() != trace_b.str()) {
        std::cout << "FAIL: two instrumented runs serialized different "
                     "Chrome traces\n";
        ok = false;
      }

      const auto best_of = [&](bool with_telemetry) {
        double best = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < 5; ++rep) {
          const auto t0 = std::chrono::steady_clock::now();
          if (with_telemetry) {
            runtime::Telemetry fresh;
            run(&fresh);
          } else {
            run(nullptr);
          }
          const std::chrono::duration<double> dt =
              std::chrono::steady_clock::now() - t0;
          best = std::min(best, dt.count());
        }
        return best;
      };
      const double base_s = best_of(false);
      const double instrumented_s = best_of(true);
      constexpr double kNoiseFloorS = 2e-3;
      const bool within_budget =
          instrumented_s <= 1.10 * std::max(base_s, kNoiseFloorS);
      if (!within_budget) {
        std::cout << "FAIL: telemetry overhead "
                  << format_time(instrumented_s - base_s) << " on a "
                  << format_time(base_s)
                  << " run exceeds the 10 % budget\n";
        ok = false;
      }

      benchutil::DualSink tsink({"metric", "value"},
                                "pcnna_open_loop_telemetry.csv");
      tsink.row({"spans", std::to_string(telemetry.spans().size())});
      tsink.row({"queue depth samples",
                 std::to_string(telemetry.queue_depth_samples().size())});
      tsink.row({"bare best-of-5", format_time(base_s)});
      tsink.row({"instrumented best-of-5", format_time(instrumented_s)});
      tsink.row({"bitwise identical", identical ? "yes" : "NO"});
      tsink.print("Telemetry probe - 1.35x EDF+shed, " + net.name() + ", " +
                  std::to_string(kPcus) + " PCUs");

      // Host wall-clock rows are machine-dependent by nature; the stable
      // rows are the span/event counts and the pass/fail gates.
      json.row("telemetry", "telemetry_spans",
               static_cast<double>(telemetry.spans().size()), "spans");
      json.row("telemetry", "telemetry_queue_depth_samples",
               static_cast<double>(telemetry.queue_depth_samples().size()),
               "samples");
      json.row("telemetry", "telemetry_bitwise_identical",
               identical ? 1.0 : 0.0, "bool");
      json.row("telemetry", "telemetry_overhead_within_budget",
               within_budget ? 1.0 : 0.0, "bool");

      if (!trace_out.empty()) {
        std::ofstream out(trace_out);
        telemetry.write_chrome_trace(out);
        if (!out) {
          std::cout << "FAIL: could not write " << trace_out << "\n";
          ok = false;
        } else {
          std::cout << "(Chrome trace in " << trace_out << ")\n";
        }
      }
    }
  }

  // --- Multi-model sweep: three registered models on one 6-PCU fleet at
  // 1.5x overload. The mix is work-balanced (each model offers ~1/3 of the
  // total service time), so affinity can partition the fleet into per-model
  // homes; model-blind policies keep reprogramming banks instead.
  {
    constexpr std::size_t kMmPcus = 6;
    constexpr std::size_t kMmRequests = 4000;

    // Synthetic recalibration-heavy net: small feature maps (few kernel
    // locations, little ADC/DAC work) with many channels (a big weight
    // bank), so weight programming dominates — the regime where the swap
    // cost rivals the steady-state interval.
    nn::Network synth("synth_recal", nn::Shape4{1, 64, 8, 8});
    synth
        .add_conv({"s1", /*n=*/8, /*m=*/3, /*p=*/1, /*s=*/1, /*nc=*/64,
                   /*K=*/64})
        .add_relu();
    synth
        .add_conv({"s2", /*n=*/8, /*m=*/3, /*p=*/1, /*s=*/1, /*nc=*/64,
                   /*K=*/64})
        .add_relu();
    synth.add_conv({"s3", /*n=*/8, /*m=*/3, /*p=*/1, /*s=*/1, /*nc=*/64,
                    /*K=*/64});
    Rng mm_rng(404);
    const nn::NetWeights synth_weights =
        nn::make_network_weights(synth, mm_rng);
    const nn::Network big = nn::alexnet();
    const nn::NetWeights big_weights = nn::make_network_weights(big, mm_rng);

    benchutil::DualSink msink({"policy", "achieved", "p99", "swaps",
                               "swap time", "SLO"},
                              "pcnna_open_loop_multimodel.csv");

    double ll_rps = 0.0, affinity_rps = 0.0;
    double ll_slo = 0.0, affinity_slo = 0.0;
    std::size_t ll_swaps = 0, affinity_swaps = 0;
    double swap_over_interval = 0.0;
    for (const runtime::DispatchPolicy policy :
         {runtime::DispatchPolicy::kEarliestFree,
          runtime::DispatchPolicy::kLeastLoaded,
          runtime::DispatchPolicy::kModelAffinity}) {
      runtime::BatchRunnerOptions mopts = options;
      mopts.num_pcus = kMmPcus;
      mopts.dispatch = policy;
      runtime::BatchRunner mm(config, net, weights, mopts);
      mm.register_model(big, big_weights);
      mm.register_model(synth, synth_weights);

      // Work-balanced mix: p_m proportional to 1/interval_m, so each model
      // contributes ~1/3 of the offered service time. Offered rate is
      // 1.5x the fleet's work capacity for that mix.
      double intervals[3], inv_sum = 0.0;
      for (std::uint32_t m = 0; m < 3; ++m) {
        intervals[m] = mm.pool().pcu(0).request_interval_overlapped(m);
        inv_sum += 1.0 / intervals[m];
      }
      if (swap_over_interval == 0.0) {
        swap_over_interval =
            mm.pool().pcu(0).swap_time(2) / intervals[2];
      }
      const double mean_service =
          3.0 / inv_sum; // sum_m p_m * interval_m with p_m ~ 1/interval_m
      const double offered =
          1.5 * static_cast<double>(kMmPcus) / mean_service;

      const runtime::ArrivalSchedule arrivals = runtime::poisson_arrivals(
          kMmRequests, offered, kArrivalSeed + 400);
      runtime::ModelSchedule models(kMmRequests, 0);
      Rng pick(kArrivalSeed + 500);
      for (std::size_t id = 0; id < kMmRequests; ++id) {
        const double u = pick.uniform() * inv_sum;
        models[id] = u < 1.0 / intervals[0]
                         ? 0u
                         : (u < 1.0 / intervals[0] + 1.0 / intervals[1]
                                ? 1u
                                : 2u);
      }

      const runtime::OpenLoopReport r =
          mm.simulate_open_loop(arrivals, {}, models);
      if (policy == runtime::DispatchPolicy::kLeastLoaded) {
        ll_rps = r.achieved_rps;
        ll_slo = r.slo_attainment;
        ll_swaps = r.model_swaps;
      }
      if (policy == runtime::DispatchPolicy::kModelAffinity) {
        affinity_rps = r.achieved_rps;
        affinity_slo = r.slo_attainment;
        affinity_swaps = r.model_swaps;
      }

      msink.row({runtime::dispatch_policy_name(policy),
                 format_count(r.achieved_rps) + " req/s",
                 format_time(r.latency.p99),
                 std::to_string(r.model_swaps),
                 format_time(r.model_swap_time),
                 format_fixed(100.0 * r.slo_attainment, 1) + " %"});

      const std::string point =
          std::string("multimodel_") + runtime::dispatch_policy_name(policy);
      json.row(point, "achieved_rps", r.achieved_rps, "req/s");
      json.row(point, "latency_p99", r.latency.p99, "s");
      json.row(point, "model_swaps", static_cast<double>(r.model_swaps),
               "swaps");
      json.row(point, "model_swap_time", r.model_swap_time, "s");
      json.row(point, "slo_attainment", r.slo_attainment, "fraction");
    }
    msink.print("Multi-model serving (LeNet-5 + AlexNet + synth_recal, " +
                std::to_string(kMmPcus) + " PCUs, work-balanced mix at "
                "1.5x overload; synth swap/interval " +
                format_fixed(swap_over_interval, 2) + ")");
    json.row("multimodel", "affinity_speedup_vs_least_loaded",
             ll_rps > 0.0 ? affinity_rps / ll_rps : 0.0, "x");
    json.row("multimodel", "synth_swap_over_interval", swap_over_interval,
             "fraction");

    if (!(affinity_rps >= 1.3 * ll_rps && affinity_slo == ll_slo)) {
      std::cout << "FAIL: model-affinity throughput ("
                << format_count(affinity_rps)
                << " req/s) is not >= 1.3x least-loaded ("
                << format_count(ll_rps) << " req/s) at equal SLO attainment ("
                << affinity_slo << " vs " << ll_slo << ")\n";
      ok = false;
    }
    if (!(affinity_swaps * 10 < ll_swaps)) {
      std::cout << "FAIL: model-affinity swaps (" << affinity_swaps
                << ") are not an order of magnitude below least-loaded ("
                << ll_swaps << ")\n";
      ok = false;
    }
  }

  // --- Autoscaler probe: the same fleet with elastic sizing enabled must
  // run lean at light load and grow toward the envelope under heavy load.
  {
    runtime::BatchRunnerOptions aopts = options;
    aopts.autoscaler.enabled = true;
    aopts.autoscaler.min_active = 1;
    aopts.autoscaler.max_active = kPcus;
    aopts.autoscaler.backlog_per_pcu = 2.0;
    aopts.autoscaler.shrink_after_idle =
        16.0 * fleet.pool().pcu(0).request_interval_overlapped();
    runtime::BatchRunner elastic(config, net, weights, aopts);

    double mean_active_light = 0.0, mean_active_heavy = 0.0;
    const double probe_loads[] = {0.25, 0.9};
    for (int i = 0; i < 2; ++i) {
      const double load = probe_loads[i];
      const runtime::OpenLoopReport r = elastic.simulate_open_loop(
          runtime::poisson_arrivals(kRequestsPerPoint, load * capacity,
                                    kArrivalSeed + 300 + i));
      (i == 0 ? mean_active_light : mean_active_heavy) =
          r.autoscaler.mean_active;
      const std::string point = "autoscaler_" + format_fixed(load, 2) + "x";
      json.row(point, "mean_active", r.autoscaler.mean_active, "pcus");
      json.row(point, "scale_ups",
               static_cast<double>(r.autoscaler.scale_ups), "events");
      json.row(point, "scale_downs",
               static_cast<double>(r.autoscaler.scale_downs), "events");
      json.row(point, "latency_p99", r.latency.p99, "s");
    }
    if (!(mean_active_light < mean_active_heavy &&
          mean_active_heavy <= static_cast<double>(kPcus))) {
      std::cout << "FAIL: autoscaler mean active fleet at 0.25x ("
                << format_fixed(mean_active_light, 2)
                << ") does not sit below 0.9x ("
                << format_fixed(mean_active_heavy, 2) << ")\n";
      ok = false;
    }
  }

  // --- Fault-injection MTBF sweep: crash-heavy seeded Poisson faults over
  // the arrival horizon at a fixed 0.6x load, harshening MTBF point by
  // point. Each point serves the same stream twice: fault-blind (the
  // dispatcher keeps routing to dead PCUs and nothing is retried — every
  // request a crash touches is permanently lost) and with the full
  // tolerance stack (health-aware dispatch, retry with backoff,
  // quarantine/repair). The self-check gates the tentpole claim: where the
  // blind path bleeds requests, retry + quarantine still serves >= 95 %.
  {
    const double interval = fleet.pool().pcu(0).request_interval_overlapped();
    const runtime::ArrivalSchedule arrivals = runtime::poisson_arrivals(
        kRequestsPerPoint, 0.6 * capacity, kArrivalSeed + 600);

    benchutil::DualSink fsink({"MTBF", "mode", "served", "failed", "retries",
                               "recovered", "avail", "retry p99"},
                              "pcnna_open_loop_faults.csv");

    std::size_t blind_failed_total = 0;
    const double mtbf_fractions[] = {0.5, 0.25, 0.125};
    for (int i = 0; i < 3; ++i) {
      runtime::FaultModel hazard;
      hazard.mtbf = mtbf_fractions[i] * arrivals.back();
      hazard.horizon = arrivals.back();
      hazard.transient_weight = 1.0;
      hazard.degrade_weight = 1.0;
      hazard.crash_weight = 2.0;
      hazard.degrade_severity = 1.5;
      hazard.mean_time_to_repair = arrivals.back() / 20.0;
      const runtime::FaultSchedule faults =
          runtime::poisson_faults(kPcus, hazard, kArrivalSeed + 700 + i);

      for (const bool tolerant : {false, true}) {
        runtime::BatchRunnerOptions fopts = options;
        fopts.faults.schedule = faults;
        fopts.faults.health_aware = tolerant;
        if (tolerant) {
          fopts.faults.detection_latency = interval;
          fopts.faults.retry.max_retries = 3;
          fopts.faults.retry.backoff_base = 0.5 * interval;
          fopts.faults.repair_time = 4.0 * interval;
        }
        runtime::BatchRunner runner(config, net, weights, fopts);
        const runtime::OpenLoopReport r = runner.simulate_open_loop(arrivals);

        const double served_fraction =
            static_cast<double>(r.served_requests) /
            static_cast<double>(kRequestsPerPoint);
        double avail_sum = 0.0;
        for (const runtime::PcuHealthStats& h : r.fault.per_pcu)
          avail_sum += h.availability;
        const double avail_mean =
            avail_sum / static_cast<double>(r.fault.per_pcu.size());
        if (!tolerant) blind_failed_total += r.failed_requests;

        fsink.row({format_time(hazard.mtbf),
                   tolerant ? "tolerant" : "blind",
                   format_fixed(100.0 * served_fraction, 2) + " %",
                   std::to_string(r.failed_requests),
                   std::to_string(r.fault.retries),
                   std::to_string(r.fault.recovered_requests),
                   format_fixed(100.0 * avail_mean, 1) + " %",
                   format_time(r.retry_latency.p99)});

        const std::string point = "fault_mtbf_" +
                                  format_fixed(mtbf_fractions[i], 3) + "x_" +
                                  (tolerant ? "tolerant" : "blind");
        json.row(point, "served_fraction", served_fraction, "fraction");
        json.row(point, "failed_requests",
                 static_cast<double>(r.failed_requests), "requests");
        json.row(point, "retries", static_cast<double>(r.fault.retries),
                 "retries");
        json.row(point, "recovered_requests",
                 static_cast<double>(r.fault.recovered_requests), "requests");
        json.row(point, "availability_mean", avail_mean, "fraction");
        json.row(point, "retry_latency_p99", r.retry_latency.p99, "s");

        if (tolerant && !(served_fraction >= 0.95)) {
          std::cout << "FAIL: retry + quarantine serves only "
                    << format_fixed(100.0 * served_fraction, 2)
                    << " % at MTBF " << format_time(hazard.mtbf)
                    << " (gate: >= 95 %)\n";
          ok = false;
        }
      }
    }
    fsink.print("Fault injection - " + net.name() + ", " +
                std::to_string(kPcus) + " PCUs at 0.6x load, crash-heavy "
                "Poisson faults (fault-blind vs health-aware + retry + "
                "quarantine)");
    if (blind_failed_total == 0) {
      std::cout << "FAIL: the fault-blind baseline lost nothing — the sweep "
                   "is not exercising crashes\n";
      ok = false;
    }

    // Retry bit-identity: a functional crash run re-executes its victim
    // from the same per-request seed, so every served output equals the
    // sequential reference bit for bit.
    {
      const nn::Network small = nn::tiny_cnn();
      Rng srng(19);
      const nn::NetWeights sweights = nn::make_network_weights(small, srng);
      std::vector<nn::Tensor> inputs;
      for (std::size_t i = 0; i < 6; ++i)
        inputs.push_back(nn::make_network_input(small, srng));

      runtime::BatchRunnerOptions copts;
      copts.num_pcus = 1;
      copts.simulate_values = true;
      copts.seed = 5;
      runtime::BatchRunner reference(config, small, sweights, copts);
      const double sinterval =
          reference.pool().pcu(0).request_interval_overlapped();
      const double swarmup = reference.pool().pcu(0).warmup_time();
      copts.faults.schedule = {
          {swarmup + 1.5 * sinterval, 0, runtime::FaultKind::kCrash, 1.0},
          {swarmup + 3.5 * sinterval, 0, runtime::FaultKind::kRecover, 1.0},
      };
      runtime::BatchRunner crashy(config, small, sweights, copts);
      runtime::OpenLoopReport crash_report;
      const auto results = crashy.run_open_loop(
          inputs, runtime::ArrivalSchedule(inputs.size(), 0.0),
          &crash_report);
      if (crash_report.fault.recovered_requests == 0) {
        std::cout << "FAIL: the functional crash probe recovered nothing\n";
        ok = false;
      }
      for (std::size_t id = 0; id < inputs.size(); ++id) {
        if (results[id].failed) continue;
        if (!(reference.run_one(inputs[id], id).output ==
              results[id].output)) {
          std::cout << "FAIL: retried request " << id
                    << " differs from the sequential reference\n";
          ok = false;
        }
      }
    }
  }

  // --- Pipeline sweep: two recalibration-heavy models whose combined
  // weight banks exceed one PCU's capacity, so data-parallel serving of
  // the pair must keep reprogramming microrings. kPipeline pins each
  // model across its own 3-stage PCU chain instead: pin once, stream
  // images, zero steady-state swaps.
  {
    constexpr std::size_t kPipePcus = 6;
    constexpr std::size_t kPipeRequests = 4000;

    const auto make_heavy = [](const std::string& name) {
      nn::Network heavy(name, nn::Shape4{1, 64, 8, 8});
      heavy
          .add_conv({name + "1", /*n=*/8, /*m=*/3, /*p=*/1, /*s=*/1,
                     /*nc=*/64, /*K=*/64})
          .add_relu();
      heavy
          .add_conv({name + "2", /*n=*/8, /*m=*/3, /*p=*/1, /*s=*/1,
                     /*nc=*/64, /*K=*/64})
          .add_relu();
      heavy.add_conv({name + "3", /*n=*/8, /*m=*/3, /*p=*/1, /*s=*/1,
                      /*nc=*/64, /*K=*/64});
      return heavy;
    };
    const nn::Network pipe_a = make_heavy("pipe_a");
    const nn::Network pipe_b = make_heavy("pipe_b");
    Rng prng(606);
    const nn::NetWeights pipe_a_weights = nn::make_network_weights(pipe_a, prng);
    const nn::NetWeights pipe_b_weights = nn::make_network_weights(pipe_b, prng);

    benchutil::DualSink psink({"policy", "achieved", "p99", "swaps",
                               "stage spans", "pin time"},
                              "pcnna_open_loop_pipeline.csv");

    double ll_rps = 0.0, pipe_rps = 0.0;
    std::size_t ll_swaps = 0, pipe_swaps = 0, pipe_replacements = 0;
    for (const runtime::DispatchPolicy policy :
         {runtime::DispatchPolicy::kLeastLoaded,
          runtime::DispatchPolicy::kModelAffinity,
          runtime::DispatchPolicy::kPipeline}) {
      runtime::BatchRunnerOptions popts = options;
      popts.num_pcus = kPipePcus;
      popts.dispatch = policy;
      runtime::BatchRunner pp(config, pipe_a, pipe_a_weights, popts);
      pp.register_model(pipe_b, pipe_b_weights);
      if (policy == runtime::DispatchPolicy::kPipeline) {
        pp.build_pipeline(/*model=*/0, {0, 1, 2});
        pp.build_pipeline(/*model=*/1, {3, 4, 5});
      }

      // Offered load: 1.3x what six swap-free PCUs could absorb.
      const double interval =
          pp.pool().pcu(0).request_interval_overlapped(0);
      const double offered = 1.3 * static_cast<double>(kPipePcus) / interval;
      const runtime::ArrivalSchedule arrivals = runtime::poisson_arrivals(
          kPipeRequests, offered, kArrivalSeed + 600);
      runtime::ModelSchedule models(kPipeRequests, 0);
      Rng pick(kArrivalSeed + 700);
      for (std::size_t id = 0; id < kPipeRequests; ++id)
        models[id] = pick.uniform() < 0.5 ? 0u : 1u;

      const runtime::OpenLoopReport r =
          pp.simulate_open_loop(arrivals, {}, models);
      if (policy == runtime::DispatchPolicy::kLeastLoaded) {
        ll_rps = r.achieved_rps;
        ll_swaps = r.model_swaps;
      }
      if (policy == runtime::DispatchPolicy::kPipeline) {
        pipe_rps = r.achieved_rps;
        pipe_swaps = r.model_swaps;
        pipe_replacements = r.pipeline.replacements;
      }

      psink.row({runtime::dispatch_policy_name(policy),
                 format_count(r.achieved_rps) + " req/s",
                 format_time(r.latency.p99),
                 std::to_string(r.model_swaps),
                 std::to_string(r.pipeline.stage_spans),
                 format_time(r.pipeline.pin_time)});

      const std::string point =
          std::string("pipeline_") + runtime::dispatch_policy_name(policy);
      json.row(point, "achieved_rps", r.achieved_rps, "req/s");
      json.row(point, "latency_p99", r.latency.p99, "s");
      json.row(point, "model_swaps", static_cast<double>(r.model_swaps),
               "swaps");
      json.row(point, "stage_spans",
               static_cast<double>(r.pipeline.stage_spans), "spans");
      json.row(point, "stage_pin_time", r.pipeline.pin_time, "s");
      json.row(point, "stage_handoff_time", r.pipeline.handoff_time, "s");
    }
    psink.print("Pipeline-parallel serving (2x recal-heavy synth, " +
                std::to_string(kPipePcus) + " PCUs, 50/50 mix at 1.3x "
                "overload; two pinned 3-stage groups vs data parallelism)");
    json.row("pipeline", "speedup_vs_least_loaded",
             ll_rps > 0.0 ? pipe_rps / ll_rps : 0.0, "x");

    if (!(pipe_rps >= ll_rps)) {
      std::cout << "FAIL: pipeline throughput (" << format_count(pipe_rps)
                << " req/s) falls below data-parallel least-loaded ("
                << format_count(ll_rps) << " req/s)\n";
      ok = false;
    }
    if (pipe_swaps != 0 || pipe_replacements != 0) {
      std::cout << "FAIL: steady-state pinned pipeline reprogrammed banks ("
                << pipe_swaps << " swaps, " << pipe_replacements
                << " re-placements; gate: 0)\n";
      ok = false;
    }
    if (ll_swaps == 0) {
      std::cout << "FAIL: the data-parallel baseline never swapped — the "
                   "sweep is not exercising bank capacity pressure\n";
      ok = false;
    }
  }

  if (!json.finish()) ok = false;

  // The hockey stick: overload tails must tower over light-load tails.
  if (!(p99_high > 2.0 * p99_low)) {
    std::cout << "FAIL: p99 at 1.2x load (" << format_time(p99_high)
              << ") does not dominate p99 at 0.3x (" << format_time(p99_low)
              << ")\n";
    ok = false;
  }

  // Bit-identity self-check: open-loop functional outputs equal the
  // sequential single-PCU reference for the same request ids.
  {
    const nn::Network small = nn::tiny_cnn();
    Rng srng(11);
    const nn::NetWeights sweights = nn::make_network_weights(small, srng);
    std::vector<nn::Tensor> inputs;
    for (std::size_t i = 0; i < 6; ++i)
      inputs.push_back(nn::make_network_input(small, srng));

    runtime::BatchRunnerOptions fopts;
    fopts.num_pcus = 3;
    fopts.simulate_values = true;
    fopts.seed = 5;
    runtime::BatchRunner open(config, small, sweights, fopts);
    const double small_capacity =
        open.simulate_open_loop({}).fleet_capacity_rps;
    const auto results = open.run_open_loop(
        inputs,
        runtime::poisson_arrivals(inputs.size(), 0.5 * small_capacity, 1));

    runtime::BatchRunnerOptions sopts = fopts;
    sopts.num_pcus = 1;
    runtime::BatchRunner single(config, small, sweights, sopts);
    for (std::size_t id = 0; id < inputs.size(); ++id) {
      if (!(single.run_one(inputs[id], id).output == results[id].output)) {
        std::cout << "FAIL: open-loop request " << id
                  << " differs from the sequential reference\n";
        ok = false;
      }
    }
  }

  std::cout << "\nself-checks: " << (ok ? "PASS" : "FAIL")
            << " (determinism, hockey stick, mixed-fleet ordering, "
               "SLO overload split, multi-model affinity speedup, "
               "autoscaler sizing, fault-tolerance survival, retry "
               "bit-identity, pipeline speedup, bit-identity, telemetry "
               "purity + overhead)\n";
  return ok ? 0 : 1;
}
