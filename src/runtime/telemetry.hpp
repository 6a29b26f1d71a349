// Fleet telemetry: per-request spans, a metrics registry, and exporters.
//
// Opt-in observability for the serving runtime. A Telemetry instance hangs
// off AdmissionOptions / BatchRunnerOptions as a raw pointer (nullptr —
// the default — means off); when present, the admission loop feeds it
// cheap read-only hooks (queue-depth samples at each dispatch opportunity,
// dispatch-decision counters) and hands it the finished AdmissionResult,
// from which the per-request spans are derived in virtual time:
//
//   queue-wait        arrival -> service start (tenant track)
//   service           start -> completion on the serving PCU, with the
//                     swap / warmup charges rendered as leading sub-slices
//   stage / pin /     per-stage spans of pipelined requests on the PCU
//     hand-off        that ran each stage
//   lost attempt      PCU time a fault destroyed (retried or not)
//   shed / failed     instants on the tenant track
//
// Engine-phase counters (patches streamed, bank passes, noise draws,
// DAC/ADC conversions) arrive via record_results: each functional
// RequestResult carries its own EngineWork (a pure function of the request,
// filled by hooks in OpticalConvEngine), and the fleet totals are summed in
// request-id order — bit-stable regardless of engine_threads or host
// scheduling.
//
// Contract: observation, not perturbation. Telemetry never writes anything
// the admission loop or the engine reads, so every schedule, output, and
// report is bitwise identical with telemetry on or off (pinned by the
// telemetry property tests — the same contract the fault and pipeline
// layers obey). All recording happens on the orchestration thread; a
// Telemetry instance is not thread-safe and must not be shared between
// concurrently-running fleets.
//
// Exporters:
//   write_chrome_trace  Chrome trace-event JSON (one track per PCU, one
//                       per tenant class, a fleet queue-depth counter, and
//                       an "otherData" section embedding the
//                       OpenLoopReport per-PCU totals so
//                       scripts/trace_summary.py can reconcile the file
//                       against the report exactly). Loads in Perfetto /
//                       chrome://tracing.
//   write_prometheus    Prometheus text-exposition snapshot of the
//                       metrics registry.
//
// See docs/observability.md for the span model, the metric catalog, and
// the exporter formats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "runtime/batch_runner.hpp"
#include "runtime/pcu_pool.hpp"

namespace pcnna::runtime {

/// Monotonically increasing exact integer counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed log-spaced-bucket histogram with Kahan-compensated sum. The
/// bucket edges are fixed at construction (log-spaced between `lo` and
/// `hi`), observations accumulate exact integer bucket counts plus a
/// compensated double sum, and every accessor is a pure read — so two
/// identical observation sequences produce bit-identical snapshots.
class Histogram {
 public:
  /// `buckets` finite buckets with upper bounds log-spaced over [lo, hi]
  /// (bound i = lo * (hi/lo)^((i+1)/buckets)), plus an implicit +Inf
  /// overflow bucket. Requires 0 < lo < hi and buckets >= 1.
  Histogram(double lo, double hi, std::size_t buckets);

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Ascending finite upper bounds (size = buckets).
  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket counts; index i counts v <= bounds()[i] (and above the
  /// previous bound); the final extra slot is the +Inf overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double compensation_ = 0.0; // Kahan correction term
};

/// Insertion-ordered registry of named metrics. Re-requesting a name
/// returns the existing instrument (the kind must match; histograms must
/// also match bucket shape). Names may carry Prometheus-style labels
/// (`pcnna_pcu_busy_seconds{pcu="0"}`); the text exporter emits one
/// HELP/TYPE header per family (the name up to the label brace).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help);
  Histogram& histogram(const std::string& name, const std::string& help,
                       double lo, double hi, std::size_t buckets);

  /// Prometheus text exposition format, metrics in registration order.
  void write_prometheus(std::ostream& os) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;
    std::string help;
    std::size_t index; ///< into the store of its kind
  };

  const Entry* find(const std::string& name) const;

  std::vector<Entry> entries_;
  // deques: stable references across later registrations.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

/// What one RequestSpan describes.
enum class SpanKind : unsigned char {
  kService,     ///< whole-request service span on its PCU
  kStage,       ///< one pipeline stage span on its PCU
  kLostAttempt, ///< PCU time destroyed by a fault
  kShed,        ///< load-shed decision (instant, tenant track)
  kFailed,      ///< permanent fault loss (instant, tenant track)
};

/// One virtual-time span (or instant: start == end), derived from the
/// AdmissionResult after the run. Recording stores one span per service /
/// stage / shed / loss; the redundant trace events (queue-wait on the
/// tenant track, swap / warmup / pin / hand-off overhead slices) are pure
/// functions of these fields and are derived at export time, keeping the
/// in-run recording cost minimal.
struct RequestSpan {
  /// Track sentinel: the span lives on its tenant's track, not a PCU's.
  static constexpr std::size_t kNoPcu = std::numeric_limits<std::size_t>::max();

  SpanKind kind = SpanKind::kService;
  std::uint64_t id = 0;
  std::size_t pcu = kNoPcu;
  std::uint32_t tenant = 0;
  std::uint32_t model = 0;
  PriorityClass priority = PriorityClass::kStandard;
  std::uint32_t attempts = 1;
  std::uint32_t stage = 0; ///< stage index (kStage)
  /// Request arrival time; with `start` it yields the queue-wait span.
  double arrival = 0.0;
  double start = 0.0;
  double end = 0.0;
  /// kService: the warmup charge; kStage: the stage pin. Exact doubles,
  /// exported in the trace args so trace_summary.py reconciles bitwise.
  double warmup = 0.0;
  /// kService: the swap charge; kStage: the hand-off charge.
  double swap = 0.0;
  /// kService only: this dispatch reprogrammed the PCU (swap may still be
  /// 0 under TimingFidelity::kPaper, where recalibration is free).
  bool swapped = false;
};

class Telemetry {
 public:
  Telemetry();

  // --- in-loop hooks (called by PcuPool::simulate_admission) ---

  /// Pending-queue depth at a deferred dispatch opportunity (a request
  /// dispatched at admission never waits, so it records none).
  void on_queue_depth(double t, std::size_t depth);
  /// One committed dispatch decision.
  void on_dispatch(bool swapped, bool pipelined);

  // --- post-run recording ---

  /// Derive spans and admission metrics from a finished admission run.
  /// Accumulates: serving the same Telemetry to several runs concatenates
  /// their spans (the trace then shows them back to back).
  void record_admission(const AdmissionResult& result, const PcuPool& pool,
                        const AdmissionOptions& options);
  /// Fold per-request engine-phase counters into the fleet totals,
  /// summing in request-id order (results as returned by BatchRunner).
  void record_results(const std::vector<RequestResult>& results);
  /// Capture the finished report: per-PCU breakdown gauges plus the
  /// reconciliation totals embedded in the Chrome trace.
  void record_report(const OpenLoopReport& report);

  // --- access ---

  MetricsRegistry& metrics() { return registry_; }
  const MetricsRegistry& metrics() const { return registry_; }
  const std::vector<RequestSpan>& spans() const { return spans_; }
  const std::vector<std::pair<double, std::uint64_t>>& queue_depth_samples()
      const {
    return queue_depth_samples_;
  }

  // --- exporters ---

  /// Chrome trace-event JSON; see the file comment. Byte-deterministic:
  /// two identical runs write identical files.
  void write_chrome_trace(std::ostream& os) const;
  /// Prometheus text-exposition snapshot of the metrics registry.
  void write_prometheus(std::ostream& os) const;

 private:
  MetricsRegistry registry_;

  // Canonical instruments, registered once in the constructor.
  Counter* dispatches_ = nullptr;
  Counter* dispatch_swaps_ = nullptr;
  Counter* pipeline_dispatches_ = nullptr;
  Counter* served_ = nullptr;
  Counter* shed_ = nullptr;
  Counter* failed_ = nullptr;
  Counter* fault_injections_ = nullptr;
  Counter* retries_ = nullptr;
  Counter* lost_attempts_ = nullptr;
  Counter* quarantines_ = nullptr;
  Counter* repairs_ = nullptr;
  Counter* engine_patches_ = nullptr;
  Counter* engine_bank_passes_ = nullptr;
  Counter* engine_noise_draws_ = nullptr;
  Counter* engine_dac_ = nullptr;
  Counter* engine_adc_ = nullptr;
  Gauge* queue_depth_last_ = nullptr;
  Gauge* makespan_ = nullptr;
  Gauge* mean_active_ = nullptr;
  Histogram* queue_wait_ = nullptr;
  Histogram* latency_ = nullptr;
  Histogram* queue_depth_ = nullptr;

  std::vector<RequestSpan> spans_;
  std::vector<std::pair<double, std::uint64_t>> queue_depth_samples_;

  // Fleet shape, captured at record_admission.
  std::size_t num_pcus_ = 0;
  std::vector<std::string> pcu_tags_;
  std::string policy_name_;

  // Report capture for the trace's reconciliation section.
  bool have_report_ = false;
  OpenLoopReport report_;
};

} // namespace pcnna::runtime
