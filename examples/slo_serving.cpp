// SLO-aware serving demo: a multi-tenant front door under overload.
//
// Walks the SLO-aware open-loop API end to end:
//   1. build a model and a two-tenant traffic mix — 20 % interactive with
//      a tight latency budget, 80 % best-effort with a loose one — and a
//      Poisson arrival stream at 1.3x of fleet capacity (deliberately past
//      saturation),
//   2. serve it twice in virtual time: once FIFO (earliest-free, no
//      shedding), once with the SLO-aware front door (class-partitioned
//      EDF admission + load shedding of requests that cannot meet their
//      deadline),
//   3. print both OpenLoopReports — the per-tenant table shows FIFO
//      dragging every tenant past its budget while EDF + shedding holds
//      the interactive tenant's SLO by sacrificing expired best-effort
//      work,
//   4. run a small functional batch with shedding enabled and show shed
//      requests coming back as id-only placeholders
//      (RequestResult::shed) while served outputs stay bit-identical to
//      the sequential reference,
//   5. re-run the overload with the elastic autoscaler enabled and report
//      the mean active fleet (exit code checks the SLO split and the
//      bit-identity).
#include <iostream>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/arrival.hpp"
#include "runtime/batch_runner.hpp"

using namespace pcnna;

namespace {

runtime::TenantBreakdown tenant_slice(const runtime::OpenLoopReport& report,
                                      std::uint32_t tenant) {
  for (const runtime::TenantBreakdown& t : report.per_tenant)
    if (t.tenant == tenant) return t;
  return {};
}

} // namespace

int main() {
  bool ok = true;

  // --- 1. Model, fleet, and a two-tenant overload stream. ---
  constexpr std::size_t kRequests = 4000;
  const nn::Network net = nn::lenet5();
  Rng rng(42);
  const nn::NetWeights weights = nn::make_network_weights(net, rng);
  const core::PcnnaConfig config = core::PcnnaConfig::paper_defaults();

  runtime::BatchRunnerOptions options;
  options.num_pcus = 4;
  options.fidelity = core::TimingFidelity::kFull;
  options.simulate_values = false; // timing-only for the sweep
  options.seed = 1;

  runtime::BatchRunner fifo(config, net, weights, options);
  const double capacity = fifo.simulate_open_loop({}).fleet_capacity_rps;
  const double interval =
      fifo.pool().pcu(0).request_interval_overlapped();
  const double budget = fifo.pool().pcu(0).warmup_time() + 6.0 * interval;

  std::vector<runtime::TenantClass> mix(2);
  mix[0].tenant = 0;
  mix[0].priority = runtime::PriorityClass::kInteractive;
  mix[0].weight = 0.2;
  mix[0].slo_budget = budget;
  mix[1].tenant = 1;
  mix[1].priority = runtime::PriorityClass::kBestEffort;
  mix[1].weight = 0.8;
  mix[1].slo_budget = budget + 54.0 * interval;

  const runtime::ArrivalSchedule arrivals =
      runtime::poisson_arrivals(kRequests, 1.3 * capacity, /*seed=*/2718);
  const runtime::SloSchedule slos =
      runtime::assign_tenants(arrivals, mix, /*seed=*/99);

  std::cout << "fleet capacity " << format_count(capacity)
            << " req/s; offering 1.3 x as a two-tenant Poisson stream\n"
            << "interactive budget " << format_time(budget)
            << ", best-effort budget "
            << format_time(mix[1].slo_budget) << "\n\n";

  // --- 2./3. FIFO vs the SLO-aware front door, same stream. ---
  const runtime::OpenLoopReport fifo_report =
      fifo.simulate_open_loop(arrivals, slos);
  runtime::BatchRunner::print_report(
      fifo_report, std::cout, "FIFO earliest-free (no shedding) - overload");

  runtime::BatchRunnerOptions slo_options = options;
  slo_options.dispatch = runtime::DispatchPolicy::kEdf;
  slo_options.shed_expired = true;
  runtime::BatchRunner front_door(config, net, weights, slo_options);
  const runtime::OpenLoopReport slo_report =
      front_door.simulate_open_loop(arrivals, slos);
  std::cout << "\n";
  runtime::BatchRunner::print_report(
      slo_report, std::cout, "EDF + load shedding - same overload");

  const runtime::TenantBreakdown fifo_int = tenant_slice(fifo_report, 0);
  const runtime::TenantBreakdown slo_int = tenant_slice(slo_report, 0);
  std::cout << "\ninteractive p99: FIFO "
            << format_time(fifo_int.latency.p99) << " vs front door "
            << format_time(slo_int.latency.p99) << " (budget "
            << format_time(budget) << ")\n";
  if (!(slo_int.latency.p99 <= budget && slo_int.slo_attainment >= 0.95 &&
        fifo_int.latency.p99 > budget)) {
    std::cout << "UNEXPECTED: the front door did not hold the interactive "
                 "SLO where FIFO failed it\n";
    ok = false;
  }

  // --- 4. Functional shedding: placeholders + bit-identical survivors. ---
  {
    const nn::Network small = nn::tiny_cnn();
    Rng srng(7);
    const nn::NetWeights sweights = nn::make_network_weights(small, srng);
    std::vector<nn::Tensor> inputs;
    for (std::size_t i = 0; i < 8; ++i)
      inputs.push_back(nn::make_network_input(small, srng));

    runtime::BatchRunnerOptions fopts;
    fopts.num_pcus = 1;
    fopts.simulate_values = true;
    fopts.shed_expired = true;
    fopts.dispatch = runtime::DispatchPolicy::kEdf;
    fopts.seed = 5;
    runtime::BatchRunner shedder(config, small, sweights, fopts);

    // All 8 requests arrive at once with a budget only ~3 can meet on one
    // PCU, so the tail of the queue is shed at admission time.
    const double sinterval =
        shedder.pool().pcu(0).request_interval_overlapped();
    const double sbudget =
        shedder.pool().pcu(0).warmup_time() + 3.5 * sinterval;
    runtime::ArrivalSchedule burst(inputs.size(), 0.0);
    runtime::SloSchedule burst_slos;
    for (std::size_t i = 0; i < inputs.size(); ++i)
      burst_slos.push_back({/*tenant=*/3,
                            runtime::PriorityClass::kStandard, sbudget});

    runtime::OpenLoopReport burst_report;
    const auto results =
        shedder.run_open_loop(inputs, burst, &burst_report, burst_slos);

    runtime::BatchRunnerOptions ref_opts = fopts;
    ref_opts.shed_expired = false;
    ref_opts.dispatch = runtime::DispatchPolicy::kEarliestFree;
    runtime::BatchRunner reference(config, small, sweights, ref_opts);
    std::size_t identical = 0;
    for (std::size_t id = 0; id < results.size(); ++id) {
      if (results[id].shed) continue;
      if (reference.run_one(inputs[id], id).output == results[id].output)
        ++identical;
    }
    std::cout << "functional burst: " << burst_report.served_requests
              << " served / " << burst_report.shed_requests
              << " shed; served outputs bit-identical to the sequential "
                 "reference: "
              << identical << "/" << burst_report.served_requests << "\n";
    if (burst_report.shed_requests == 0 ||
        identical != burst_report.served_requests)
      ok = false;
    for (const auto& r : results)
      if (r.shed && !r.output.empty()) ok = false;
  }

  // --- 5. Elastic sizing under the same overload. ---
  runtime::BatchRunnerOptions elastic_options = slo_options;
  elastic_options.autoscaler.enabled = true;
  elastic_options.autoscaler.min_active = 1;
  elastic_options.autoscaler.max_active = options.num_pcus;
  elastic_options.autoscaler.backlog_per_pcu = 2.0;
  elastic_options.autoscaler.shrink_after_idle = 16.0 * interval;
  runtime::BatchRunner elastic(config, net, weights, elastic_options);
  const runtime::OpenLoopReport elastic_report =
      elastic.simulate_open_loop(arrivals, slos);
  std::cout << "with the autoscaler on: mean active fleet "
            << format_fixed(elastic_report.autoscaler.mean_active, 2) << "/"
            << options.num_pcus << " PCUs ("
            << elastic_report.autoscaler.scale_ups << " scale-ups, "
            << elastic_report.autoscaler.scale_downs << " scale-downs)\n";

  std::cout << "\nchecks: " << (ok ? "PASS" : "FAIL")
            << " (SLO split under overload, shed placeholders, "
               "bit-identity)\n";
  return ok ? 0 : 1;
}
