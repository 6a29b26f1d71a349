// Fault-tolerant serving demo: a fleet that survives crashes and drift.
//
// Walks the fault-injection API end to end:
//   1. build a 4-PCU fleet and a Poisson arrival stream, then a seeded
//      crash-heavy Poisson fault timeline over the same horizon
//      (runtime::poisson_faults — deterministic in (fleet, model, seed)),
//   2. serve the stream twice in virtual time: once fault-blind (faults
//      strike but the dispatcher keeps routing to dead PCUs and nothing is
//      retried — every request a crash touches is permanently lost), once
//      with the full tolerance stack (health-aware dispatch, retry with
//      backoff, quarantine/repair),
//   3. print both OpenLoopReports — the fault tables show the blind run
//      bleeding requests while the tolerant run recovers nearly all of
//      them at a bounded retry-latency tail,
//   4. run a small functional batch against a hand-written crash trace and
//      show the crash victim re-executing bit-identically to the
//      sequential reference (same per-request seed), with permanently lost
//      requests coming back as placeholders (RequestResult::failed),
//   5. inject calibration drift and show the health system quarantining
//      the drifted PCU and repairing it, at a cost in availability (exit
//      code checks all of the above).
#include <iostream>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/arrival.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/fault_plan.hpp"

using namespace pcnna;

int main() {
  bool ok = true;

  // --- 1. Fleet, arrival stream, and a crash-heavy fault timeline. ---
  constexpr std::size_t kRequests = 3000;
  const nn::Network net = nn::lenet5();
  Rng rng(42);
  const nn::NetWeights weights = nn::make_network_weights(net, rng);
  const core::PcnnaConfig config = core::PcnnaConfig::paper_defaults();

  runtime::BatchRunnerOptions options;
  options.num_pcus = 4;
  options.simulate_values = false; // timing-only for the sweep
  options.seed = 1;

  runtime::BatchRunner probe(config, net, weights, options);
  const double capacity = probe.simulate_open_loop({}).fleet_capacity_rps;
  const double interval = probe.pool().pcu(0).request_interval_overlapped();
  const runtime::ArrivalSchedule arrivals =
      runtime::poisson_arrivals(kRequests, 0.7 * capacity, /*seed=*/2718);

  runtime::FaultModel hazard;
  hazard.mtbf = arrivals.back() / 4.0; // ~4 faults per PCU over the run
  hazard.horizon = arrivals.back();
  hazard.transient_weight = 1.0;
  hazard.degrade_weight = 1.0;
  hazard.crash_weight = 2.0;
  hazard.degrade_severity = 1.5;
  hazard.mean_time_to_repair = arrivals.back() / 20.0;
  const runtime::FaultSchedule faults =
      runtime::poisson_faults(options.num_pcus, hazard, /*seed=*/7);

  std::cout << "fleet capacity " << format_count(capacity)
            << " req/s; offering 0.7 x under " << faults.size()
            << " injected fault events (MTBF " << format_time(hazard.mtbf)
            << " per PCU)\n\n";

  // --- 2./3. Fault-blind vs the full tolerance stack, same timeline. ---
  runtime::BatchRunnerOptions blind_options = options;
  blind_options.faults.schedule = faults;
  blind_options.faults.health_aware = false;
  runtime::BatchRunner blind(config, net, weights, blind_options);
  const runtime::OpenLoopReport blind_report =
      blind.simulate_open_loop(arrivals);
  runtime::BatchRunner::print_report(blind_report, std::cout,
                                     "fault-blind serving");

  runtime::BatchRunnerOptions tolerant_options = options;
  tolerant_options.faults.schedule = faults;
  tolerant_options.faults.detection_latency = interval;
  tolerant_options.faults.retry.max_retries = 3;
  tolerant_options.faults.retry.backoff_base = 0.5 * interval;
  tolerant_options.faults.repair_time = 4.0 * interval;
  runtime::BatchRunner tolerant(config, net, weights, tolerant_options);
  const runtime::OpenLoopReport tolerant_report =
      tolerant.simulate_open_loop(arrivals);
  std::cout << "\n";
  runtime::BatchRunner::print_report(tolerant_report, std::cout,
                                     "health-aware + retry + quarantine");

  const double blind_served =
      static_cast<double>(blind_report.served_requests) /
      static_cast<double>(kRequests);
  const double tolerant_served =
      static_cast<double>(tolerant_report.served_requests) /
      static_cast<double>(kRequests);
  std::cout << "\nserved fraction: blind "
            << format_fixed(100.0 * blind_served, 2) << " % vs tolerant "
            << format_fixed(100.0 * tolerant_served, 2) << " % ("
            << tolerant_report.fault.recovered_requests
            << " requests recovered by retry)\n";
  if (!(blind_report.failed_requests > 0 && tolerant_served > blind_served &&
        tolerant_served >= 0.95)) {
    std::cout << "UNEXPECTED: the tolerance stack did not out-serve the "
                 "fault-blind baseline\n";
    ok = false;
  }

  // --- 4. Functional crash + retry: bit-identical re-execution. ---
  {
    const nn::Network small = nn::tiny_cnn();
    Rng srng(7);
    const nn::NetWeights sweights = nn::make_network_weights(small, srng);
    std::vector<nn::Tensor> inputs;
    for (std::size_t i = 0; i < 6; ++i)
      inputs.push_back(nn::make_network_input(small, srng));

    runtime::BatchRunnerOptions fopts;
    fopts.num_pcus = 1;
    fopts.simulate_values = true;
    fopts.seed = 5;
    runtime::BatchRunner reference(config, small, sweights, fopts);
    const double sinterval =
        reference.pool().pcu(0).request_interval_overlapped();
    const double warmup = reference.pool().pcu(0).warmup_time();

    // Crash the lone PCU mid-way through request 1's service; it recovers
    // two intervals later, so the victim retries and every request still
    // completes.
    runtime::BatchRunnerOptions copts = fopts;
    copts.faults.schedule = {
        {warmup + 1.5 * sinterval, 0, runtime::FaultKind::kCrash, 1.0},
        {warmup + 3.5 * sinterval, 0, runtime::FaultKind::kRecover, 1.0},
    };
    runtime::BatchRunner crashy(config, small, sweights, copts);

    runtime::OpenLoopReport crash_report;
    const auto results = crashy.run_open_loop(
        inputs, runtime::ArrivalSchedule(inputs.size(), 0.0), &crash_report);
    std::size_t identical = 0;
    for (std::size_t id = 0; id < results.size(); ++id) {
      if (results[id].failed) continue;
      if (reference.run_one(inputs[id], id).output == results[id].output)
        ++identical;
    }
    std::cout << "functional crash: " << crash_report.fault.crash_losses
              << " attempt(s) lost, " << crash_report.fault.recovered_requests
              << " request(s) recovered; served outputs bit-identical to "
                 "the sequential reference: "
              << identical << "/" << crash_report.served_requests << "\n";
    if (crash_report.fault.crash_losses == 0 ||
        crash_report.fault.recovered_requests == 0 ||
        identical != crash_report.served_requests)
      ok = false;
    for (const auto& r : results)
      if (r.failed && !r.output.empty()) ok = false;
  }

  // --- 5. Drift, quarantine, repair. ---
  {
    runtime::BatchRunnerOptions dopts = options;
    dopts.faults.schedule = {
        {10.0 * interval, 2, runtime::FaultKind::kDegrade, 2.0},
    };
    dopts.faults.detection_latency = interval;
    dopts.faults.repair_time = 4.0 * interval;
    runtime::BatchRunner drifting(config, net, weights, dopts);
    const runtime::OpenLoopReport drift_report =
        drifting.simulate_open_loop(arrivals);
    const runtime::PcuHealthStats& h = drift_report.fault.per_pcu[2];
    std::cout << "drift on PCU 2: " << h.quarantines << " quarantine, "
              << h.repairs << " repair ("
              << format_time(drift_report.fault.repair_time)
              << " repair time), availability "
              << format_fixed(100.0 * h.availability, 2) << " %\n";
    if (h.quarantines != 1 || h.repairs != 1 || h.availability >= 1.0)
      ok = false;
  }

  std::cout << "\nchecks: " << (ok ? "PASS" : "FAIL")
            << " (blind vs tolerant served fraction, bit-identical retry, "
               "drift quarantine/repair)\n";
  return ok ? 0 : 1;
}
