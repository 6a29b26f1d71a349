// Admission workloads: timing-only BatchRunner::simulate_open_loop calls by
// one waiting caller, each replaying a fresh seeded Poisson stream in
// simulated time.
//
//   admit_edf_1k      1,024 paper-default LeNet-5 PCUs, kEdf + shed_expired,
//                     two-tenant interactive/best-effort mix at 1.5x load
//                     with budgets tight enough that shedding acts (the
//                     event-driven admission mode).
//   admit_ll_mixed16  8 paper-default + 8 small_core PCUs, kLeastLoaded at
//                     0.9x capacity, no deadlines (the eager mode).
//
// The traced run times PcuPool::simulate_admission on the same stream and
// takes the rest of the simulate_open_loop call as report assembly.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/arrival.hpp"
#include "runtime/batch_runner.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using namespace pcnna;

struct AdmissionSpec {
  std::vector<runtime::PcuSpec> fleet;
  runtime::DispatchPolicy policy = runtime::DispatchPolicy::kEarliestFree;
  bool shed_expired = false;
  /// Offered load as a multiple of the fleet's steady-state capacity.
  double load = 1.0;
  std::size_t requests = 0;
  /// Two-tenant mix with deadlines (interactive / best-effort), budgets in
  /// steady-state intervals past the warmup; no SLO metadata when false.
  bool tenants = false;
  double interactive_budget = 0.0;
  double best_effort_budget = 0.0;
};

AdmissionSpec spec_for(const std::string& workload) {
  AdmissionSpec s;
  runtime::PcuSpec big;
  big.config = core::PcnnaConfig::paper_defaults();
  big.tag = "big";
  if (workload == "admit_edf_1k") {
    s.fleet.assign(1024, big);
    s.policy = runtime::DispatchPolicy::kEdf;
    s.shed_expired = true;
    s.load = 1.5;
    s.requests = 8192;
    s.tenants = true;
    s.interactive_budget = 1.0;
    s.best_effort_budget = 2.0;
    return s;
  }
  if (workload == "admit_ll_mixed16") {
    runtime::PcuSpec small;
    small.config = core::PcnnaConfig::small_core();
    small.tag = "small";
    s.fleet.assign(8, big);
    s.fleet.insert(s.fleet.end(), 8, small);
    s.policy = runtime::DispatchPolicy::kLeastLoaded;
    s.load = 0.9;
    s.requests = 65536;
    return s;
  }
  throw std::invalid_argument("not an admission workload: " + workload);
}

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same(const DistributionSummary& a, const DistributionSummary& b) {
  return a.count == b.count && same(a.mean, b.mean) && same(a.min, b.min) &&
         same(a.max, b.max) && same(a.p50, b.p50) && same(a.p90, b.p90) &&
         same(a.p99, b.p99) && same(a.p999, b.p999);
}

/// Bitwise equality of every schedule-derived OpenLoopReport field.
bool same(const runtime::OpenLoopReport& a, const runtime::OpenLoopReport& b) {
  bool eq = a.requests == b.requests &&
            a.served_requests == b.served_requests &&
            a.shed_requests == b.shed_requests &&
            a.failed_requests == b.failed_requests &&
            same(a.offered_rps, b.offered_rps) &&
            same(a.achieved_rps, b.achieved_rps) &&
            same(a.makespan, b.makespan) && same(a.latency, b.latency) &&
            same(a.queue_wait, b.queue_wait) &&
            same(a.mean_queue_depth, b.mean_queue_depth) &&
            same(a.shed_rate, b.shed_rate) &&
            same(a.slo_attainment, b.slo_attainment) &&
            same(a.total_energy, b.total_energy) &&
            a.per_pcu.size() == b.per_pcu.size() &&
            a.per_tenant.size() == b.per_tenant.size();
  for (std::size_t p = 0; eq && p < a.per_pcu.size(); ++p)
    eq = a.per_pcu[p].requests == b.per_pcu[p].requests &&
         same(a.per_pcu[p].busy_time, b.per_pcu[p].busy_time) &&
         same(a.per_pcu[p].warmup_time, b.per_pcu[p].warmup_time);
  for (std::size_t t = 0; eq && t < a.per_tenant.size(); ++t)
    eq = a.per_tenant[t].served == b.per_tenant[t].served &&
         a.per_tenant[t].shed == b.per_tenant[t].shed &&
         same(a.per_tenant[t].slo_attainment, b.per_tenant[t].slo_attainment) &&
         same(a.per_tenant[t].latency, b.per_tenant[t].latency);
  return eq;
}

/// requests = served + shed + failed, and every offered request counted.
bool conserved(const runtime::OpenLoopReport& r, std::size_t offered) {
  return r.requests == offered &&
         r.requests == r.served_requests + r.shed_requests + r.failed_requests;
}

/// One admission workload instance: fleet recipe and seeded streams.
class Admission {
 public:
  Admission(const std::string& workload, std::uint64_t seed)
      : spec_(spec_for(workload)), seed_(seed), net_(nn::lenet5()) {
    Rng rng(kModelSeed);
    weights_ = nn::make_network_weights(net_, rng);
    options_.num_pcus = spec_.fleet.size();
    options_.simulate_values = false;
    options_.dispatch = spec_.policy;
    options_.shed_expired = spec_.shed_expired;
    options_.seed = seed;
  }

  const runtime::BatchRunnerOptions& options() const { return options_; }
  const nn::Network& net() const { return net_; }
  const nn::NetWeights& weights() const { return weights_; }
  std::size_t requests() const { return spec_.requests; }

  std::unique_ptr<runtime::BatchRunner> make_runner() const {
    return std::make_unique<runtime::BatchRunner>(spec_.fleet, net_, weights_,
                                                  options_);
  }

  /// The seeded stream of call `call` on `runner`'s fleet.
  struct Stream {
    runtime::ArrivalSchedule arrivals;
    runtime::SloSchedule slos;
  };
  Stream stream(runtime::BatchRunner& runner, std::size_t call) const {
    runtime::PcuPool& pool = runner.pool();
    double capacity = 0.0;
    for (std::size_t p = 0; p < pool.size(); ++p)
      capacity += 1.0 / pool.pcu(p).request_interval_overlapped();
    Stream s;
    s.arrivals = runtime::poisson_arrivals(
        spec_.requests, spec_.load * capacity,
        runtime::derive_request_seed(seed_, 2 * call));
    if (spec_.tenants) {
      const double interval = pool.pcu(0).request_interval_overlapped();
      const double warmup = pool.pcu(0).warmup_time();
      std::vector<runtime::TenantClass> mix(2);
      mix[0].tenant = 0;
      mix[0].priority = runtime::PriorityClass::kInteractive;
      mix[0].weight = 0.2;
      mix[0].slo_budget = warmup + spec_.interactive_budget * interval;
      mix[1].tenant = 1;
      mix[1].priority = runtime::PriorityClass::kBestEffort;
      mix[1].weight = 0.8;
      mix[1].slo_budget = warmup + spec_.best_effort_budget * interval;
      s.slos = runtime::assign_tenants(
          s.arrivals, mix, runtime::derive_request_seed(seed_, 2 * call + 1));
    }
    return s;
  }

 private:
  AdmissionSpec spec_;
  std::uint64_t seed_;
  nn::Network net_;
  nn::NetWeights weights_;
  runtime::BatchRunnerOptions options_;
};

Result run_untraced(const Admission& w, const Args& args) {
  Result res;
  stats::CallLedger ledger;

  std::vector<double> setup_s;
  std::unique_ptr<runtime::BatchRunner> runner;
  for (std::size_t i = 0; i < kSetups; ++i) {
    runner.reset();
    const Clock::time_point t0 = Clock::now();
    runner = w.make_runner();
    const Admission::Stream warm = w.stream(*runner, 0);
    runner->simulate_open_loop(warm.arrivals, warm.slos);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  std::vector<double> call_s, sim_p99, sim_slo;
  runtime::OpenLoopReport first;
  closed_loop(args.seconds, kMinCalls, res, ledger, [&](std::size_t call) {
    const Admission::Stream s = w.stream(*runner, call);
    const Clock::time_point t0 = Clock::now();
    runtime::OpenLoopReport report =
        runner->simulate_open_loop(s.arrivals, s.slos);
    call_s.push_back(seconds_between(t0, Clock::now()));
    if (call < kSimCalls) {
      sim_p99.push_back(report.latency.p99);
      sim_slo.push_back(report.slo_attainment);
    }
    const bool ok = conserved(report, w.requests());
    if (call == 0) first = std::move(report);
    return ok;
  });

  // One stream re-simulated must reproduce every report field bitwise.
  checked_call("re-simulation of stream 0", res, ledger, [&] {
    const Admission::Stream s = w.stream(*runner, 0);
    return same(first, runner->simulate_open_loop(s.arrivals, s.slos));
  });

  add_host_metrics(res, setup_s, call_s,
                   static_cast<double>(call_s.size() * w.requests()), ledger);
  if (sim_p99.empty()) return res;
  res.add("sim_request_s", runner->pool().pcu(0).request_time_serial(),
          "sim_s");
  res.add("sim_latency_p99_s", stats::median(sim_p99), "sim_s",
          sim_p99.size());
  res.add("sim_slo_attainment",
          std::accumulate(sim_slo.begin(), sim_slo.end(), 0.0) /
              static_cast<double>(sim_slo.size()),
          "ratio", sim_slo.size());
  // Timing-only serving classifies no image, so no argmax can disagree.
  res.add("argmax_agreement", 1.0, "ratio");
  return res;
}

/// Per-layer samples of one traced call.
struct TracedCall {
  double admission_us = 0.0;
  double report_us = 0.0;
  double served = 0.0;
  double shed = 0.0;
  double rng_ns = 0.0;
  double coverage = 0.0;
};

Result run_traced(const Admission& w, const Args& args) {
  Result res;
  stats::CallLedger ledger;
  Spans spans;

  std::unique_ptr<runtime::BatchRunner> runner = w.make_runner();
  {
    const Admission::Stream warm = w.stream(*runner, 0);
    runner->simulate_open_loop(warm.arrivals, warm.slos);
  }
  runtime::PcuPool& pool = runner->pool();
  const runtime::BatchRunnerOptions& opts = w.options();

  const std::vector<double> pcu_build_us =
      time_pcu_builds(pool, w.net(), w.weights());

  runtime::AdmissionOptions admission_options;
  admission_options.double_buffer = opts.double_buffer;
  admission_options.policy = opts.dispatch;
  admission_options.shed_expired = opts.shed_expired;

  std::vector<TracedCall> samples;
  const double per_request = 1.0 / static_cast<double>(w.requests());
  const auto trace_one = [&](std::size_t call) {
    const Admission::Stream s = w.stream(*runner, call);
    TracedCall t;
    const Clock::time_point t0 = Clock::now();
    const runtime::OpenLoopReport untraced =
        runner->simulate_open_loop(s.arrivals, s.slos);
    const double call_s = seconds_between(t0, Clock::now());

    std::vector<runtime::InferenceRequest> requests(s.arrivals.size());
    for (std::size_t id = 0; id < requests.size(); ++id) {
      requests[id].id = id;
      requests[id].seed = runtime::derive_request_seed(opts.seed, id);
      requests[id].arrival_time = s.arrivals[id];
      if (!s.slos.empty()) {
        requests[id].tenant = s.slos[id].tenant;
        requests[id].priority = s.slos[id].priority;
        requests[id].deadline = s.slos[id].deadline;
      }
    }
    runtime::AdmissionResult admission;
    const auto admit = [&] {
      runtime::RequestQueue queue;
      for (const runtime::InferenceRequest& request : requests)
        queue.push(request);
      queue.close();
      return spans.time(Module::kRuntime, "simulate_admission", call, [&] {
        admission = pool.simulate_admission(queue, admission_options);
      });
    };
    runtime::OpenLoopReport traced;
    bool same_traced = true;
    const auto traced_call = [&] {
      const double dt =
          spans.time(Module::kRuntime, "simulate_open_loop", call, [&] {
            traced = runner->simulate_open_loop(s.arrivals, s.slos);
          });
      same_traced = same_traced && same(untraced, traced);
      return dt;
    };
    // A-B-B-A order cancels drift between the two measurements, whose
    // difference (report assembly) is small next to either.
    double admission_s = admit();
    double traced_s = traced_call();
    traced_s = 0.5 * (traced_s + traced_call());
    admission_s = 0.5 * (admission_s + admit());

    const bool ok =
        conserved(untraced, w.requests()) && same_traced &&
        admission.schedule.size() == untraced.served_requests &&
        admission.shed.shed == untraced.shed_requests &&
        admission.fault.losses.size() == untraced.failed_requests;
    t.admission_us = 1e6 * per_request * admission_s;
    t.report_us = 1e6 * per_request * (traced_s - admission_s);
    t.served = static_cast<double>(admission.schedule.size());
    t.shed = static_cast<double>(admission.shed.shed);
    // Layer spans of the call: admission plus report assembly (the traced
    // call minus its admission), against the untraced call.
    t.coverage = stats::coverage(traced_s, call_s, 1);
    t.rng_ns = time_rng_normal_ns(spans, call, kRngDraws);
    if (ok) samples.push_back(t);
    return ok;
  };
  closed_loop(args.seconds, kMinTracedCalls, res, ledger, trace_one);
  res.attempted = ledger.attempted;
  res.failed = ledger.failed;
  if (!args.trace_out.empty() &&
      !spans.write_chrome_trace(args.trace_out, args.workload))
    res.fail("could not write the Chrome trace to " + args.trace_out);
  if (samples.empty()) return res;

  const auto med = [&](double TracedCall::*field) {
    std::vector<double> v;
    for (const TracedCall& t : samples) v.push_back(t.*field);
    return stats::median(v);
  };
  const std::size_t n = samples.size();
  res.add("runtime.admission_us_per_request", med(&TracedCall::admission_us),
          "us", n);
  res.add("runtime.report_us_per_request", med(&TracedCall::report_us), "us",
          n);
  res.add("runtime.pcu_build_us", stats::median(pcu_build_us), "us",
          pcu_build_us.size());
  res.add("runtime.served", med(&TracedCall::served), "count", n);
  res.add("runtime.shed", med(&TracedCall::shed), "count", n);
  res.add("runtime.shed_fraction", med(&TracedCall::shed) * per_request,
          "ratio", n);
  res.add("common.rng_normal_ns", med(&TracedCall::rng_ns), "ns", n);
  res.add("trace.coverage", med(&TracedCall::coverage), "ratio", n);
  return res;
}

} // namespace

Result run_admission(const Args& args) {
  const Admission w(args.workload, args.seed);
  return args.trace ? run_traced(w, args) : run_untraced(w, args);
}

} // namespace perfbench
