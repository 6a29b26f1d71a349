// Host-time benchmark of the PCNNA simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// Builds the workload's inputs from the seed, measures for S seconds, checks
// the outputs, and prints one line per metric followed by a JSON result
// line. --trace 0 reports the end-to-end metrics of an untraced run;
// --trace 1 reports the per-layer metrics of a traced run of the same seed
// and writes its host spans as Chrome-trace JSON to PATH.
//
// Refuses (exit code 3, no result) to report timings from a build that is
// not Release or from a workload configured with more threads than the
// host's CPUs.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

struct WorkloadInfo {
  const char* name;
  bool functional;
  /// Host threads the workload runs at most (PCUs x engine threads).
  std::size_t threads;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"lenet_t4", true, 1 * 4},
    {"widefm_2x2", true, 2 * 2},
    {"admit_edf_1k", false, 1},
    {"admit_ll_mixed16", false, 1},
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload's untraced run.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_requests_per_s", "1/s"},
    {"call_ms_p50", "ms"},
    {"call_ms_p90", "ms"},
    {"peak_rss_mb", "MiB"},
    {"sim_request_s", "sim_s"},
    {"sim_latency_p99_s", "sim_s"},
    {"sim_slo_attainment", "ratio"},
    {"argmax_agreement", "ratio"},
};

/// Per-layer metrics, reported by every workload's traced run; 0 for a
/// layer the workload does not exercise.
constexpr MetricDef kPerLayer[] = {
    {"runtime.admission_us_per_request", "us"},
    {"runtime.report_us_per_request", "us"},
    {"runtime.pcu_build_us", "us"},
    {"runtime.serve_ms_per_image", "ms"},
    {"runtime.shard_efficiency", "ratio"},
    {"runtime.served", "count"},
    {"runtime.shed", "count"},
    {"runtime.shed_fraction", "ratio"},
    {"core.conv_ms.c1", "ms"},
    {"core.conv_ms.c3", "ms"},
    {"core.conv_ms.c5", "ms"},
    {"core.conv_ms.w1", "ms"},
    {"core.conv_ms.w2", "ms"},
    {"core.banks_built", "count"},
    {"core.patches_streamed", "count"},
    {"core.optical_passes", "count"},
    {"core.noise_draws", "count"},
    {"core.noise_share.c1", "ratio"},
    {"core.noise_share.c3", "ratio"},
    {"core.noise_share.c5", "ratio"},
    {"core.noise_share.w1", "ratio"},
    {"core.noise_share.w2", "ratio"},
    {"photonics.bank_program_ms.c1", "ms"},
    {"photonics.bank_program_ms.c3", "ms"},
    {"photonics.bank_program_ms.c5", "ms"},
    {"photonics.bank_program_ms.w1", "ms"},
    {"photonics.bank_program_ms.w2", "ms"},
    {"photonics.bank_share.c1", "ratio"},
    {"photonics.bank_share.c3", "ratio"},
    {"photonics.bank_share.c5", "ratio"},
    {"photonics.bank_share.w1", "ratio"},
    {"photonics.bank_share.w2", "ratio"},
    {"photonics.calibrate_us", "us"},
    {"common.rng_normal_ns", "ns"},
    {"nn.electronic_ms", "ms"},
    {"nn.golden_forward_ms", "ms"},
    {"trace.coverage", "ratio"},
};

const char* module_name(Module m) {
  switch (m) {
    case Module::kRuntime: return "runtime";
    case Module::kCore: return "core";
    case Module::kPhotonics: return "photonics";
    case Module::kCommon: return "common";
    case Module::kNn: return "nn";
  }
  return "?";
}

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

} // namespace

bool Spans::write_chrome_trace(const std::string& path,
                               const std::string& workload) const {
  constexpr std::uint32_t kPid = 1;
  pcnna::TraceWriter writer;
  writer.set_process_name(kPid, "perfbench host " + workload);
  for (Module m : {Module::kRuntime, Module::kCore, Module::kPhotonics,
                   Module::kCommon, Module::kNn})
    writer.set_thread_name(kPid, static_cast<std::uint32_t>(m),
                           module_name(m));
  for (const Span& s : spans_) {
    const double call = static_cast<double>(s.call);
    writer.complete(kPid, static_cast<std::uint32_t>(s.module), s.name,
                    module_name(s.module), seconds_between(origin_, s.start),
                    seconds_between(origin_, s.end),
                    {pcnna::TraceArg::num("call", call)});
  }
  std::ofstream out(path);
  writer.write(out);
  return static_cast<bool>(out);
}

void add_host_metrics(Result& res, const std::vector<double>& setup_s,
                      const std::vector<double>& call_s, double work,
                      const stats::CallLedger& ledger) {
  res.attempted = ledger.attempted;
  res.failed = ledger.failed;
  if (!stats::tail_resolved(call_s.size(), 90)) {
    res.fail("too few successful calls to resolve p90");
    return;
  }
  double busy_s = 0.0;
  for (double s : call_s) busy_s += s;
  const std::size_t n = call_s.size();
  res.add("setup_s", stats::median(setup_s), "s", setup_s.size());
  res.add("host_requests_per_s", work / busy_s, "1/s", n);
  res.add("call_ms_p50", 1e3 * stats::percentile(call_s, 50), "ms", n);
  res.add("call_ms_p90", 1e3 * stats::percentile(call_s, 90), "ms", n);
  res.add("peak_rss_mb", peak_rss_mb(), "MiB");
  res.add("error_rate", ledger.error_rate(), "ratio", ledger.attempted);
}

std::vector<double> time_pcu_builds(const pcnna::runtime::PcuPool& pool,
                                    const pcnna::nn::Network& net,
                                    const pcnna::nn::NetWeights& weights) {
  std::vector<double> us;
  for (std::size_t i = 0; i < std::max<std::size_t>(pool.size(), 32); ++i) {
    const pcnna::runtime::Pcu& like = pool.pcu(i % pool.size());
    const Clock::time_point t0 = Clock::now();
    const pcnna::runtime::Pcu pcu(i, like.config(), like.fidelity(), net,
                                  weights, like.warmup_policy(), like.tag());
    us.push_back(1e6 * seconds_between(t0, Clock::now()));
  }
  return us;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double time_rng_normal_ns(Spans& spans, std::size_t call, std::size_t draws) {
  pcnna::Rng rng(call + 1);
  double sum = 0.0;
  const double s = spans.time(Module::kCommon, "rng_normal", call, [&] {
    for (std::size_t i = 0; i < draws; ++i) sum += rng.normal();
  });
  // Checking the sum also keeps the draws from being optimized away.
  if (!std::isfinite(sum))
    throw std::runtime_error("Rng::normal drew a non-finite value");
  return 1e9 * s / static_cast<double>(draws);
}

} // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);

  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : kWorkloads)
    if (args.workload == w.name) info = &w;
  if (!info) usage("unknown workload " + args.workload);

  const std::size_t cpus = host_cpus();
  std::cout << "perfbench workload=" << info->name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n"
            << "build_type=" << PERFBENCH_BUILD_TYPE << " nproc=" << cpus
            << " threads=" << info->threads << "\n";
#ifndef NDEBUG
  const bool optimized = false;
#else
  const bool optimized = true;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || !optimized) {
    std::cerr << "perfbench: refusing to report timings from a non-Release "
                 "build\n";
    return 3;
  }
  if (info->threads > cpus) {
    std::cerr << "perfbench: refusing to run " << info->name << " with "
              << info->threads << " threads on " << cpus << " CPUs\n";
    return 3;
  }

  Result res;
  try {
    res = info->functional ? run_functional(args) : run_admission(args);
  } catch (const std::exception& e) {
    res.attempted = std::max<std::size_t>(res.attempted, 1);
    res.failed = res.attempted;
    res.fail(std::string("workload threw: ") + e.what());
  }

  // Every declared metric, in declaration order. A traced run fills layers
  // the workload does not exercise with 0; a missing end-to-end metric or a
  // unit that disagrees with its declaration fails the run.
  std::map<std::string, const Metric*> measured;
  for (const Metric& m : res.metrics) measured[m.name] = &m;
  std::vector<Metric> reported;
  const std::span<const MetricDef> declared =
      args.trace ? std::span<const MetricDef>(kPerLayer)
                 : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& def : declared) {
    const auto it = measured.find(def.name);
    if (it == measured.end()) {
      if (!args.trace) res.fail(std::string("no value for ") + def.name);
      reported.push_back({def.name, 0.0, def.unit, 0});
      continue;
    }
    if (it->second->unit != def.unit)
      res.fail(std::string("unit of ") + def.name + " is " + it->second->unit);
    if (!std::isfinite(it->second->value))
      res.fail(std::string("non-finite value for ") + def.name);
    reported.push_back(*it->second);
    measured.erase(it);
  }
  // error_rate is printed but not part of the result: attempted/failed
  // carry the same accounting.
  std::vector<Metric> extras;
  for (const auto& [name, m] : measured) {
    if (name == "error_rate")
      extras.push_back(*m);
    else
      res.fail("undeclared metric " + name);
  }

  for (const std::string& note : res.notes) std::cout << note << "\n";
  for (const std::vector<Metric>* list : {&reported, &extras}) {
    for (const Metric& m : *list) {
      std::cout << "  " << m.name << " = " << json_number(m.value) << " "
                << m.unit;
      if (m.samples) std::cout << " (n=" << m.samples << ")";
      std::cout << "\n";
    }
  }

  std::ostringstream json;
  json << "{\"correct\": " << (res.correct ? "true" : "false")
       << ", \"attempted\": " << res.attempted
       << ", \"failed\": " << res.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = reported[i];
    json << (i ? ", " : "") << "\"" << m.name
         << "\": {\"value\": "
         << (std::isfinite(m.value) ? json_number(m.value) : "0")
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
