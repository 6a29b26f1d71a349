#include "runtime/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/trace_writer.hpp"

namespace pcnna::runtime {

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(double lo, double hi, std::size_t buckets) {
  PCNNA_CHECK_MSG(lo > 0.0 && hi > lo && buckets >= 1,
                  "Histogram needs 0 < lo < hi and >= 1 bucket, got lo="
                      << lo << " hi=" << hi << " buckets=" << buckets);
  bounds_.reserve(buckets);
  const double ratio = std::log(hi / lo);
  for (std::size_t i = 0; i < buckets; ++i) {
    const double frac =
        static_cast<double>(i + 1) / static_cast<double>(buckets);
    bounds_.push_back(i + 1 == buckets ? hi : lo * std::exp(ratio * frac));
  }
  counts_.assign(buckets + 1, 0); // +1: the +Inf overflow bucket
}

void Histogram::observe(double v) {
  // Kahan-compensated accumulation: the sum of N observations is the same
  // bits regardless of magnitude disparities piling up error.
  const double y = v - compensation_;
  const double t = sum_ + y;
  compensation_ = (t - sum_) - y;
  sum_ = t;
  count_ += 1;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  counts_[static_cast<std::size_t>(it - bounds_.begin())] += 1;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

const MetricsRegistry::Entry* MetricsRegistry::find(
    const std::string& name) const {
  for (const Entry& e : entries_)
    if (e.name == name) return &e;
  return nullptr;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  if (const Entry* e = find(name)) {
    PCNNA_CHECK_MSG(e->kind == Kind::kCounter,
                    "metric '" << name << "' already registered as a "
                               << "different kind");
    return counters_[e->index];
  }
  entries_.push_back({Kind::kCounter, name, help, counters_.size()});
  counters_.emplace_back();
  return counters_.back();
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  if (const Entry* e = find(name)) {
    PCNNA_CHECK_MSG(e->kind == Kind::kGauge,
                    "metric '" << name << "' already registered as a "
                               << "different kind");
    return gauges_[e->index];
  }
  entries_.push_back({Kind::kGauge, name, help, gauges_.size()});
  gauges_.emplace_back();
  return gauges_.back();
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help, double lo,
                                      double hi, std::size_t buckets) {
  if (const Entry* e = find(name)) {
    PCNNA_CHECK_MSG(e->kind == Kind::kHistogram,
                    "metric '" << name << "' already registered as a "
                               << "different kind");
    Histogram& h = histograms_[e->index];
    PCNNA_CHECK_MSG(h.upper_bounds().size() == buckets &&
                        h.upper_bounds().back() == hi,
                    "histogram '" << name
                                  << "' re-registered with different buckets");
    return h;
  }
  entries_.push_back({Kind::kHistogram, name, help, histograms_.size()});
  histograms_.emplace_back(lo, hi, buckets);
  return histograms_.back();
}

namespace {

/// Family name: everything before the label brace (Prometheus HELP/TYPE
/// headers apply per family, not per labeled series).
std::string family_of(const std::string& name) {
  const std::size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

/// Insert-or-extend labels: "f{a=\"1\"}" + (le, v) -> "f{a=\"1\",le=\"v\"}".
std::string with_label(const std::string& name, const std::string& label,
                       const std::string& value) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos)
    return name + "{" + label + "=\"" + value + "\"}";
  std::string out = name.substr(0, name.size() - 1); // drop '}'
  out += "," + label + "=\"" + value + "\"}";
  return out;
}

/// Prometheus sample value: %.17g doubles, "+Inf" for infinity.
std::string prom_value(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Suffix-aware name split: "f_total{labels}" -> f_total, labels part.
void emit_header(std::ostream& os, std::set<std::string>& done,
                 const std::string& family, const std::string& help,
                 const char* type) {
  if (!done.insert(family).second) return;
  os << "# HELP " << family << " " << help << "\n";
  os << "# TYPE " << family << " " << type << "\n";
}

} // namespace

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::set<std::string> headered;
  for (const Entry& e : entries_) {
    const std::string family = family_of(e.name);
    switch (e.kind) {
      case Kind::kCounter:
        emit_header(os, headered, family, e.help, "counter");
        os << e.name << " " << counters_[e.index].value() << "\n";
        break;
      case Kind::kGauge:
        emit_header(os, headered, family, e.help, "gauge");
        os << e.name << " " << prom_value(gauges_[e.index].value()) << "\n";
        break;
      case Kind::kHistogram: {
        emit_header(os, headered, family, e.help, "histogram");
        const Histogram& h = histograms_[e.index];
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.upper_bounds().size(); ++i) {
          cumulative += h.bucket_counts()[i];
          os << with_label(e.name + "_bucket", "le",
                           prom_value(h.upper_bounds()[i]))
             << " " << cumulative << "\n";
        }
        cumulative += h.bucket_counts().back();
        os << with_label(e.name + "_bucket", "le", "+Inf") << " "
           << cumulative << "\n";
        os << e.name << "_sum " << prom_value(h.sum()) << "\n";
        os << e.name << "_count " << h.count() << "\n";
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Telemetry

Telemetry::Telemetry() {
  dispatches_ = &registry_.counter(
      "pcnna_dispatches_total",
      "Dispatch decisions the admission loop committed");
  dispatch_swaps_ = &registry_.counter(
      "pcnna_dispatch_swaps_total",
      "Dispatches that reprogrammed a PCU from a different model");
  pipeline_dispatches_ = &registry_.counter(
      "pcnna_pipeline_dispatches_total",
      "Dispatches routed through a pipeline group");
  served_ = &registry_.counter("pcnna_requests_served_total",
                               "Requests that completed service");
  shed_ = &registry_.counter("pcnna_requests_shed_total",
                             "Requests load shedding rejected");
  failed_ = &registry_.counter(
      "pcnna_requests_failed_total",
      "Requests injected faults permanently destroyed");
  fault_injections_ = &registry_.counter("pcnna_fault_injections_total",
                                         "Fault events applied to the run");
  retries_ = &registry_.counter("pcnna_retries_total",
                                "Re-enqueues the retry policy issued");
  lost_attempts_ = &registry_.counter(
      "pcnna_lost_attempts_total",
      "Service attempts destroyed by injected faults");
  quarantines_ = &registry_.counter("pcnna_quarantines_total",
                                    "PCU quarantine entries");
  repairs_ = &registry_.counter("pcnna_repairs_total",
                                "Completed PCU quarantine repairs");
  engine_patches_ = &registry_.counter(
      "pcnna_engine_patches_streamed_total",
      "Pixel patches the streaming engine pushed through a weight bank");
  engine_bank_passes_ = &registry_.counter(
      "pcnna_engine_bank_passes_total",
      "Optical weight-bank passes (segments x per-channel passes)");
  engine_noise_draws_ = &registry_.counter(
      "pcnna_engine_noise_draws_total",
      "Gaussian noise draws the photonic noise model consumed");
  engine_dac_ = &registry_.counter("pcnna_engine_dac_conversions_total",
                                   "Input DAC conversions");
  engine_adc_ = &registry_.counter("pcnna_engine_adc_conversions_total",
                                   "Output ADC conversions");
  queue_depth_last_ = &registry_.gauge(
      "pcnna_queue_depth_last",
      "Pending-queue depth at the last dispatch opportunity");
  makespan_ = &registry_.gauge("pcnna_makespan_seconds",
                               "Last completion time of the run [s]");
  mean_active_ = &registry_.gauge(
      "pcnna_mean_active_pcus",
      "Time-averaged active-set size (fleet size without autoscaling)");
  queue_wait_ = &registry_.histogram(
      "pcnna_queue_wait_seconds",
      "Queueing delay (service start - arrival) of served requests [s]",
      1e-6, 1e3, 36);
  latency_ = &registry_.histogram(
      "pcnna_request_latency_seconds",
      "Sojourn latency (completion - arrival) of served requests [s]",
      1e-6, 1e3, 36);
  queue_depth_ = &registry_.histogram(
      "pcnna_queue_depth",
      "Pending-queue depth sampled at dispatch opportunities", 1.0, 1e4, 16);
}

void Telemetry::on_queue_depth(double t, std::size_t depth) {
  queue_depth_samples_.emplace_back(t, static_cast<std::uint64_t>(depth));
  queue_depth_last_->set(static_cast<double>(depth));
  queue_depth_->observe(static_cast<double>(depth));
}

void Telemetry::on_dispatch(bool swapped, bool pipelined) {
  dispatches_->add();
  if (swapped) dispatch_swaps_->add();
  if (pipelined) pipeline_dispatches_->add();
}

void Telemetry::record_admission(const AdmissionResult& result,
                                 const PcuPool& pool,
                                 const AdmissionOptions& options) {
  num_pcus_ = pool.size();
  pcu_tags_.clear();
  for (std::size_t p = 0; p < pool.size(); ++p)
    pcu_tags_.push_back(pool.pcu(p).tag());
  policy_name_ = dispatch_policy_name(options.policy);

  // One span per served request (or per stage for pipelined requests),
  // one instant per shed decision / destroyed attempt / permanent loss.
  // The queue-wait and overhead trace events are derived from these at
  // export time, so this — the only per-request recording on the run
  // path — stays inside the bench's telemetry-overhead budget.
  std::size_t worst = result.shed.decisions.size() +
                      result.fault.attempts.size() +
                      result.fault.losses.size();
  for (const ScheduledService& s : result.schedule)
    worst += s.stages.empty() ? 1 : s.stages.size();
  spans_.reserve(spans_.size() + worst);

  double makespan = 0.0;
  for (const ScheduledService& s : result.schedule) {
    served_->add();
    latency_->observe(s.completion - s.arrival);
    queue_wait_->observe(s.start - s.arrival);
    makespan = std::max(makespan, s.completion);

    RequestSpan base;
    base.id = s.id;
    base.tenant = s.tenant;
    base.model = s.model;
    base.priority = s.priority;
    base.attempts = s.attempts;
    base.arrival = s.arrival;

    if (s.stages.empty()) {
      RequestSpan svc = base;
      svc.kind = SpanKind::kService;
      svc.pcu = s.pcu;
      svc.start = s.start;
      svc.end = s.completion;
      svc.warmup = s.warmup;
      svc.swap = s.swap;
      svc.swapped = s.swapped;
      spans_.push_back(svc);
    } else {
      for (const StageService& st : s.stages) {
        RequestSpan stage = base;
        stage.kind = SpanKind::kStage;
        stage.pcu = st.pcu;
        stage.stage = static_cast<std::uint32_t>(st.stage);
        stage.start = st.start;
        stage.end = st.completion;
        stage.warmup = st.pin;    // stage pin rides the warmup slot
        stage.swap = st.handoff;  // hand-off rides the swap slot
        spans_.push_back(stage);
        makespan = std::max(makespan, st.completion);
      }
    }
  }

  shed_->add(result.shed.shed);
  for (const ShedDecision& d : result.shed.decisions) {
    RequestSpan span;
    span.kind = SpanKind::kShed;
    span.id = d.id;
    span.tenant = d.tenant;
    span.priority = d.priority;
    span.start = span.end = d.decision_time;
    spans_.push_back(span);
  }

  fault_injections_->add(result.fault.injections);
  retries_->add(result.fault.retries);
  quarantines_->add(result.fault.quarantines);
  repairs_->add(result.fault.repairs);
  lost_attempts_->add(result.fault.attempts.size());
  for (const FaultedAttempt& a : result.fault.attempts) {
    RequestSpan span;
    span.kind = SpanKind::kLostAttempt;
    span.id = a.id;
    span.pcu = a.pcu;
    span.attempts = a.attempt;
    span.start = a.start;
    span.end = a.end;
    spans_.push_back(span);
  }
  failed_->add(result.fault.losses.size());
  for (const RequestLoss& l : result.fault.losses) {
    RequestSpan span;
    span.kind = SpanKind::kFailed;
    span.id = l.id;
    span.tenant = l.tenant;
    span.priority = l.priority;
    span.attempts = l.attempts;
    span.start = span.end = l.time;
    spans_.push_back(span);
  }

  makespan_->set(makespan);
  mean_active_->set(result.autoscaler.mean_active);
}

void Telemetry::record_results(const std::vector<RequestResult>& results) {
  // Results arrive ordered by request id (the BatchRunner contract), so the
  // fold below is the same sequence of exact integer additions every run.
  EngineWork total;
  for (const RequestResult& r : results) total += r.work;
  engine_patches_->add(total.patches_streamed);
  engine_bank_passes_->add(total.bank_passes);
  engine_noise_draws_->add(total.noise_draws);
  engine_dac_->add(total.dac_conversions);
  engine_adc_->add(total.adc_conversions);
}

void Telemetry::record_report(const OpenLoopReport& report) {
  report_ = report;
  have_report_ = true;
  makespan_->set(report.makespan);
  mean_active_->set(report.autoscaler.mean_active);
  for (std::size_t p = 0; p < report.per_pcu.size(); ++p) {
    const PcuBreakdown& b = report.per_pcu[p];
    const std::string label = "{pcu=\"" + std::to_string(p) + "\"}";
    registry_
        .gauge("pcnna_pcu_busy_seconds" + label,
               "Simulated time each PCU spent in service [s]")
        .set(b.busy_time);
    registry_
        .gauge("pcnna_pcu_utilization" + label,
               "Per-PCU busy fraction of the makespan")
        .set(b.utilization);
    registry_
        .gauge("pcnna_pcu_requests" + label,
               "Requests the deterministic schedule placed on each PCU")
        .set(static_cast<double>(b.requests));
  }
}

void Telemetry::write_prometheus(std::ostream& os) const {
  registry_.write_prometheus(os);
}

namespace {

std::string track_name(std::size_t p, const std::string& tag) {
  std::string name = "pcu " + std::to_string(p);
  if (!tag.empty()) name += " (" + tag + ")";
  return name;
}

} // namespace

void Telemetry::write_chrome_trace(std::ostream& os) const {
  TraceWriter writer;
  constexpr std::uint32_t kFleetPid = 1;
  constexpr std::uint32_t kTenantPid = 2;

  writer.set_process_name(kFleetPid, "pcnna fleet");
  for (std::size_t p = 0; p < num_pcus_; ++p) {
    const std::string tag = p < pcu_tags_.size() ? pcu_tags_[p] : "";
    writer.set_thread_name(kFleetPid, static_cast<std::uint32_t>(p),
                           track_name(p, tag));
  }

  // Tenant tracks host the derived queue-wait spans of every served
  // request (head stage for pipelined ones) plus shed/failed instants.
  std::set<std::uint32_t> tenants;
  for (const RequestSpan& s : spans_) {
    if (s.kind == SpanKind::kStage && s.stage != 0) continue;
    if (s.kind == SpanKind::kLostAttempt) continue;
    tenants.insert(s.tenant);
  }
  if (!tenants.empty()) {
    writer.set_process_name(kTenantPid, "pcnna tenants");
    for (std::uint32_t t : tenants)
      writer.set_thread_name(kTenantPid, t, "tenant " + std::to_string(t));
  }

  for (const RequestSpan& s : spans_) {
    const auto pcu_tid = static_cast<std::uint32_t>(s.pcu);
    // Derived tenant-track queue-wait span: arrival -> service start of a
    // whole request or the head stage of a pipelined one.
    if (s.kind == SpanKind::kService ||
        (s.kind == SpanKind::kStage && s.stage == 0)) {
      writer.complete(kTenantPid, s.tenant, "queue", "queue", s.arrival,
                      s.start,
                      {TraceArg::num("id", static_cast<double>(s.id)),
                       TraceArg::num("model", s.model),
                       TraceArg::str("priority",
                                     priority_class_name(s.priority))});
    }
    switch (s.kind) {
      case SpanKind::kService:
        writer.complete(
            kFleetPid, pcu_tid, "req " + std::to_string(s.id), "service",
            s.start, s.end,
            {TraceArg::num("id", static_cast<double>(s.id)),
             TraceArg::num("tenant", s.tenant),
             TraceArg::num("model", s.model),
             TraceArg::str("priority", priority_class_name(s.priority)),
             TraceArg::num("attempts", s.attempts),
             // Exact simulated-seconds copies: ts/dur are scaled to
             // microseconds, these survive the file bit for bit and are
             // what trace_summary.py reconciles against the report.
             TraceArg::num("start", s.start), TraceArg::num("end", s.end),
             TraceArg::num("warmup", s.warmup),
             TraceArg::num("swap", s.swap),
             TraceArg::num("swapped", s.swapped ? 1.0 : 0.0)});
        // Derived overhead slices at the head of the service span.
        if (s.swap > 0.0) {
          writer.complete(kFleetPid, pcu_tid, "swap", "overhead", s.start,
                          s.start + s.swap,
                          {TraceArg::num("id", static_cast<double>(s.id))});
        }
        if (s.warmup > 0.0) {
          writer.complete(kFleetPid, pcu_tid, "warmup", "overhead",
                          s.start + s.swap, s.start + s.swap + s.warmup,
                          {TraceArg::num("id", static_cast<double>(s.id))});
        }
        break;
      case SpanKind::kStage:
        writer.complete(
            kFleetPid, pcu_tid,
            "req " + std::to_string(s.id) + " stage " +
                std::to_string(s.stage),
            "stage", s.start, s.end,
            {TraceArg::num("id", static_cast<double>(s.id)),
             TraceArg::num("tenant", s.tenant),
             TraceArg::num("model", s.model),
             TraceArg::num("stage", s.stage),
             TraceArg::num("start", s.start), TraceArg::num("end", s.end),
             TraceArg::num("pin", s.warmup),
             TraceArg::num("handoff", s.swap)});
        // Derived hand-off (activations arriving) and one-time pin slices.
        if (s.swap > 0.0) {
          writer.complete(kFleetPid, pcu_tid, "handoff", "overhead",
                          s.start - s.swap, s.start,
                          {TraceArg::num("id", static_cast<double>(s.id)),
                           TraceArg::num("stage", s.stage)});
        }
        if (s.warmup > 0.0) {
          writer.complete(kFleetPid, pcu_tid, "pin", "overhead", s.start,
                          s.start + s.warmup,
                          {TraceArg::num("id", static_cast<double>(s.id)),
                           TraceArg::num("stage", s.stage)});
        }
        break;
      case SpanKind::kLostAttempt:
        writer.complete(kFleetPid, pcu_tid, "lost attempt", "fault", s.start,
                        s.end,
                        {TraceArg::num("id", static_cast<double>(s.id)),
                         TraceArg::num("attempt", s.attempts),
                         TraceArg::num("start", s.start),
                         TraceArg::num("end", s.end)});
        break;
      case SpanKind::kShed:
        writer.instant(kTenantPid, s.tenant, "shed", "shed", s.start,
                       {TraceArg::num("id", static_cast<double>(s.id)),
                        TraceArg::str("priority",
                                      priority_class_name(s.priority))});
        break;
      case SpanKind::kFailed:
        writer.instant(kTenantPid, s.tenant, "failed", "fault", s.start,
                       {TraceArg::num("id", static_cast<double>(s.id)),
                        TraceArg::num("attempts", s.attempts)});
        break;
    }
  }

  // Queue-depth counter track: one sample per change (the viewer holds the
  // level between samples, so repeats add bytes without information).
  bool have_depth = false;
  std::uint64_t last_depth = 0;
  for (const auto& [t, depth] : queue_depth_samples_) {
    if (have_depth && depth == last_depth) continue;
    writer.counter(kFleetPid, "queue depth", t, "pending",
                   static_cast<double>(depth));
    have_depth = true;
    last_depth = depth;
  }

  writer.write(os, [this](JsonWriter& json) {
    json.key("otherData");
    json.begin_object();
    json.kv("policy", policy_name_);
    json.kv("pcus", static_cast<std::uint64_t>(num_pcus_));
    json.kv("spans", static_cast<std::uint64_t>(spans_.size()));
    json.kv("queue_depth_samples",
            static_cast<std::uint64_t>(queue_depth_samples_.size()));
    if (have_report_) {
      json.kv("makespan", report_.makespan);
      json.kv("requests", static_cast<std::uint64_t>(report_.requests));
      json.kv("served_requests",
              static_cast<std::uint64_t>(report_.served_requests));
      json.kv("shed_requests",
              static_cast<std::uint64_t>(report_.shed_requests));
      json.kv("failed_requests",
              static_cast<std::uint64_t>(report_.failed_requests));
      json.key("per_pcu");
      json.begin_array();
      for (std::size_t p = 0; p < report_.per_pcu.size(); ++p) {
        const PcuBreakdown& b = report_.per_pcu[p];
        json.begin_object();
        json.kv("pcu", static_cast<std::uint64_t>(p));
        json.kv("tag", b.tag);
        json.kv("requests", static_cast<std::uint64_t>(b.requests));
        json.kv("busy_time", b.busy_time);
        json.kv("warmup_time", b.warmup_time);
        json.kv("swap_time", b.swap_time);
        json.kv("swaps", static_cast<std::uint64_t>(b.swaps));
        json.kv("lost_attempts",
                static_cast<std::uint64_t>(b.lost_attempts));
        json.kv("lost_time", b.lost_time);
        json.kv("utilization", b.utilization);
        json.end_object();
      }
      json.end_array();
    }
    json.end_object();
  });
}

} // namespace pcnna::runtime
