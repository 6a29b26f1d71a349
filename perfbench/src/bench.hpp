// Shared pieces of the host-time benchmark: run arguments, the metric
// record, the per-module host span recorder, and the workload entry points.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common/trace_writer.hpp"
#include "nn/network.hpp"
#include "nn/tensor.hpp"
#include "runtime/pcu_pool.hpp"
#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Fleet set-ups per untraced run; setup_s is their median.
inline constexpr std::size_t kSetups = 5;
/// Calls per run at least: enough for ten samples beyond p90.
inline constexpr std::size_t kMinCalls = stats::min_samples_for(90);
/// The simulated metrics read the first kSimCalls calls only, so they do
/// not depend on how many calls the host managed in the window.
inline constexpr std::size_t kSimCalls = kMinCalls;
inline constexpr std::size_t kMinTracedCalls = 3;
/// Draws timed per traced call for common.rng_normal_ns.
inline constexpr std::size_t kRngDraws = 200000;
/// The model weights are fixed; the run seed varies only the inputs.
inline constexpr std::uint64_t kModelSeed = 2026;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome-trace output of the traced run (empty: do not write one).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (0 for exact counts and derived ratios).
  std::size_t samples = 0;
};

struct Result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the metrics (failed checks, ...).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Record a failed check: the run is no longer correct.
  void fail(std::string why) {
    correct = false;
    notes.push_back("FAIL: " + std::move(why));
  }
};

/// The src/ module a host span belongs to; each gets one Chrome-trace track.
enum class Module : std::uint32_t {
  kRuntime = 1,
  kCore,
  kPhotonics,
  kCommon,
  kNn,
};

/// Host-time spans kept in memory during the traced run and written out as
/// Chrome-trace JSON when it ends.
class Spans {
 public:
  Spans() : origin_(Clock::now()) {}

  /// Run `f`, record it as span `name` on `module`'s track for call `call`,
  /// and return its host seconds.
  template <class F>
  double time(Module module, std::string name, std::size_t call, F&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    const Clock::time_point t1 = Clock::now();
    spans_.push_back({module, std::move(name), call, t0, t1});
    return seconds_between(t0, t1);
  }

  /// Write every span through pcnna::TraceWriter; false on I/O failure.
  bool write_chrome_trace(const std::string& path,
                          const std::string& workload) const;

 private:
  struct Span {
    Module module;
    std::string name;
    std::size_t call;
    Clock::time_point start;
    Clock::time_point end;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Bitwise equality of two tensors (shape and every double's bits).
inline bool bits_equal(const pcnna::nn::Tensor& a, const pcnna::nn::Tensor& b) {
  return a.shape() == b.shape() && a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

/// Make one top-level call, named `what` in failure notes, and record it
/// in `ledger`. `call` returns false when a check on it fails; a throw also
/// fails the call.
template <class Call>
void checked_call(const std::string& what, Result& res,
                  stats::CallLedger& ledger, Call&& call) {
  bool ok = false;
  try {
    ok = call();
  } catch (const std::exception& e) {
    res.notes.push_back(what + " threw: " + e.what());
  }
  if (!ok) res.fail(what + " failed its checks");
  ledger.record(ok);
}

/// Closed loop with one caller: call(0), call(1), ... until at least
/// `min_calls` calls were made and `seconds` have passed.
template <class Call>
void closed_loop(double seconds, std::size_t min_calls, Result& res,
                 stats::CallLedger& ledger, Call&& call) {
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;
       i < min_calls || seconds_between(start, Clock::now()) < seconds; ++i)
    checked_call("call " + std::to_string(i), res, ledger,
                 [&] { return call(i); });
}

/// Record the ledger in `res` and add the host-time end-to-end metrics of
/// an untraced run: setup_s, host_requests_per_s (`work` completed per
/// second of call time), call_ms_p50/p90, peak_rss_mb, and error_rate.
void add_host_metrics(Result& res, const std::vector<double>& setup_s,
                      const std::vector<double>& call_s, double work,
                      const stats::CallLedger& ledger);

/// Host microseconds of each of max(pool size, 32) runtime::Pcu
/// constructions, each built like a PCU of `pool` serving `net`.
std::vector<double> time_pcu_builds(const pcnna::runtime::PcuPool& pool,
                                    const pcnna::nn::Network& net,
                                    const pcnna::nn::NetWeights& weights);

/// Peak resident memory of this process [MiB].
double peak_rss_mb();

/// Host nanoseconds per Rng::normal() draw, timed over `draws` draws.
double time_rng_normal_ns(Spans& spans, std::size_t call, std::size_t draws);

Result run_functional(const Args& args);
Result run_admission(const Args& args);

} // namespace perfbench
