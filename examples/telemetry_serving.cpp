// Fleet telemetry demo: observe a multi-tenant SLO run without touching it.
//
// Attaches a runtime::Telemetry to a small EDF fleet serving an overloaded
// two-tenant stream, then:
//   1. runs the same stream with telemetry OFF and ON and checks the
//      schedules and functional outputs are bit-identical — the telemetry
//      layer observes, it never perturbs;
//   2. writes the Chrome trace-event JSON (pcnna_fleet_trace.json — open
//      it in Perfetto or chrome://tracing; validate and reconcile it with
//      scripts/trace_summary.py);
//   3. prints the head of the Prometheus text snapshot, including the
//      engine-phase counters (patches streamed, weight-bank passes,
//      DAC/ADC conversions) summed from the functional run.
//
// Exits nonzero if telemetry changed anything or recorded nothing.
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/arrival.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/telemetry.hpp"

using namespace pcnna;

int main() {
  bool ok = true;
  constexpr std::size_t kPcus = 2;
  constexpr std::size_t kRequests = 48;

  const nn::Network net = nn::tiny_cnn();
  Rng rng(42);
  const nn::NetWeights weights = nn::make_network_weights(net, rng);
  const core::PcnnaConfig config = core::PcnnaConfig::paper_defaults();

  runtime::BatchRunnerOptions options;
  options.num_pcus = kPcus;
  options.fidelity = core::TimingFidelity::kFull;
  options.dispatch = runtime::DispatchPolicy::kEdf;
  options.shed_expired = true;
  options.seed = 7;

  // An overloaded two-tenant stream: interactive traffic with tight
  // deadlines over best-effort filler, so the trace shows queueing, EDF
  // reordering, and a few shed instants.
  std::vector<nn::Tensor> inputs;
  Rng in_rng(5);
  for (std::size_t i = 0; i < kRequests; ++i)
    inputs.push_back(nn::make_network_input(net, in_rng));

  double interval = 0.0, warmup = 0.0;
  {
    runtime::BatchRunner probe(config, net, weights, options);
    interval = probe.pool().pcu(0).request_interval_overlapped(0);
    warmup = probe.pool().pcu(0).warmup_time(0);
  }
  const runtime::ArrivalSchedule arrivals = runtime::poisson_arrivals(
      kRequests, 1.4 * static_cast<double>(kPcus) / interval, 2026);
  runtime::SloSchedule slos(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    const bool interactive = i % 3 == 0;
    slos[i].tenant = interactive ? 0u : 1u;
    slos[i].priority = interactive ? runtime::PriorityClass::kInteractive
                                   : runtime::PriorityClass::kBestEffort;
    slos[i].deadline =
        arrivals[i] + warmup + (interactive ? 4.0 : 12.0) * interval;
  }

  const auto serve = [&](runtime::Telemetry* telemetry,
                         runtime::OpenLoopReport* report) {
    runtime::BatchRunnerOptions o = options;
    o.telemetry = telemetry;
    runtime::BatchRunner runner(config, net, weights, o);
    return runner.run_open_loop(inputs, arrivals, report, slos);
  };

  // --- 1. Observation, not perturbation. ---
  runtime::Telemetry telemetry;
  runtime::OpenLoopReport off_report, on_report;
  const auto off = serve(nullptr, &off_report);
  const auto on = serve(&telemetry, &on_report);
  for (std::size_t i = 0; i < off.size(); ++i) {
    if (!(off[i].output == on[i].output) || off[i].shed != on[i].shed) {
      std::cout << "FAIL: telemetry perturbed request " << i << "\n";
      ok = false;
    }
  }
  if (off_report.makespan != on_report.makespan ||
      off_report.shed_requests != on_report.shed_requests) {
    std::cout << "FAIL: telemetry perturbed the report\n";
    ok = false;
  }
  std::cout << "bit-identity: telemetry on/off outputs and report "
            << (ok ? "match" : "DO NOT match") << "\n\n";

  runtime::BatchRunner::print_report(on_report, std::cout,
                                     "telemetry serving demo");

  // --- 2. Chrome trace. ---
  const char* trace_path = "pcnna_fleet_trace.json";
  {
    std::ofstream out(trace_path);
    telemetry.write_chrome_trace(out);
  }
  std::cout << "\nwrote " << trace_path << " (" << telemetry.spans().size()
            << " spans; open in Perfetto, or run "
               "scripts/trace_summary.py on it)\n";
  if (telemetry.spans().empty()) {
    std::cout << "FAIL: no spans recorded\n";
    ok = false;
  }

  // --- 3. Prometheus snapshot head. ---
  std::ostringstream prom;
  telemetry.write_prometheus(prom);
  const std::string text = prom.str();
  std::cout << "\nPrometheus snapshot (first lines):\n";
  std::istringstream lines(text);
  std::string line;
  for (int shown = 0; shown < 12 && std::getline(lines, line); ++shown)
    std::cout << "  " << line << "\n";
  // The functional run must have recorded engine-phase work.
  if (text.find("pcnna_engine_bank_passes_total 0\n") != std::string::npos ||
      text.find("pcnna_engine_bank_passes_total") == std::string::npos) {
    std::cout << "FAIL: engine-phase counters missing or zero\n";
    ok = false;
  }

  std::cout << "\ntelemetry serving demo: " << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
