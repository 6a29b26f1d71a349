// The virtual-time admission loop behind PcuPool::simulate_admission (see
// its header comment for the semantics). One AdmissionRun object holds all
// per-run state and runs one event loop over it, reading the pool only
// through its public API. Requests dispatched at admission and deferred
// ones share the per-policy scorer and the commit; they differ only in
// which PCUs are candidates (AdmissionRun::candidate). Every scorer reads
// the PCUs' timing constants from a dense per-run table. Deferred runs index
// the fleet by free time, so their scans over candidates touch only the
// PCUs free at `now` (see AdmissionRun::set_free_at), and score only one
// untouched PCU per class of equal static inputs (see AdmissionRun::touch).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "runtime/pcu_pool.hpp"
#include "runtime/telemetry.hpp"

namespace pcnna::runtime {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Scheduling-relevant slice of an InferenceRequest, parked in the pending
/// set between arrival and dispatch (the input tensor never affects
/// timing, so it is not carried).
struct PendingRequest {
  std::uint64_t id = 0;
  double arrival = 0.0;
  std::uint32_t tenant = 0;
  PriorityClass priority = PriorityClass::kStandard;
  double deadline = kInf;
  std::uint32_t model = 0;
  /// 1-based service attempt the next dispatch of this request will be;
  /// bumped by the fault machinery's retry path, 1 everywhere else.
  std::uint32_t attempts = 1;
};

/// Sentinel for a PCU whose weight banks have never been programmed: its
/// first dispatch programs them as part of the normal pipeline fill, so no
/// swap is charged — there is no outgoing model to tear down.
constexpr std::uint32_t kNoModel = std::numeric_limits<std::uint32_t>::max();

/// One PCU's timing constants for one model, copied from the Pcu accessors
/// of the same names once per run.
struct ModelTiming {
  double request_time_serial;
  double request_interval_overlapped;
  double warmup_time;
  double swap_time;
};

/// PCUs with equal static inputs (AdmissionRun::classify), ascending;
/// members[next] is the lowest-index one still untouched.
struct PcuClass {
  std::vector<std::size_t> members;
  std::size_t next = 0;
  bool active = false; ///< every member's initial active_
};

/// Dispatch order of the pending set. Under kEdf: strict PriorityClass
/// precedence, then earliest absolute deadline (class-partitioned EDF —
/// a near-expiry best-effort request must not overtake fresh interactive
/// traffic). Every other policy keeps FIFO order. (arrival, id) always
/// closes the ordering, so the set is a strict weak order with unique keys.
struct UrgencyOrder {
  bool edf = false;
  bool operator()(const PendingRequest& a, const PendingRequest& b) const {
    if (edf) {
      if (a.priority != b.priority) return a.priority < b.priority;
      if (a.deadline != b.deadline) return a.deadline < b.deadline;
    }
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.id < b.id;
  }
};

/// Pending health-system action on one PCU (at most one at a time; a crash
/// supersedes whatever was pending).
enum class TimerKind : unsigned char {
  kNone,
  kDetectCrash,   ///< crash noticed: pull the dead PCU from dispatch
  kDetectDegrade, ///< drift noticed: enter quarantine, schedule the repair
  kRepairDone,    ///< quarantine repair complete: rejoin healthy
};

/// Outcome of a scan over the fleet: the lowest-scoring PCU (ties toward
/// the lowest index; the fleet size when none qualified) and its score.
struct Pick {
  std::size_t pcu;
  double score;
};

/// Calls f(pcu, start, completion) on each PCU span of a schedule entry
/// (one, or one per pipeline stage) until f returns true; returns whether
/// it did.
template <class F>
bool any_span(const ScheduledService& s, F&& f) {
  if (s.stages.empty()) return f(s.pcu, s.start, s.completion);
  for (const StageService& st : s.stages)
    if (f(st.pcu, st.start, st.completion)) return true;
  return false;
}

void validate_options(const PcuPool& pool, const AdmissionOptions& options) {
  const auto check = [](double value, double min, const char* what) {
    PCNNA_CHECK_MSG(std::isfinite(value) && value >= min,
                    what << " must be finite and >= " << min << ", got "
                         << value);
  };
  const AutoscalerPolicy& scaler = options.autoscaler;
  if (scaler.enabled) {
    const std::size_t max_active =
        scaler.max_active > 0 ? std::min(scaler.max_active, pool.size())
                              : pool.size();
    PCNNA_CHECK_MSG(scaler.min_active >= 1 && scaler.min_active <= max_active,
                    "autoscaler needs 1 <= min_active <= max_active, got ["
                        << scaler.min_active << ", " << max_active << "]");
    check(scaler.backlog_per_pcu, 0.0, "autoscaler backlog_per_pcu");
    // A threshold <= 0 means never shrink, as does +inf.
    PCNNA_CHECK_MSG(!std::isnan(scaler.shrink_after_idle),
                    "autoscaler shrink_after_idle must not be NaN, got "
                        << scaler.shrink_after_idle);
  }
  const FaultOptions& faults = options.faults;
  if (!faults.enabled()) return;
  validate_fault_schedule(faults.schedule);
  for (std::size_t i = 0; i < faults.schedule.size(); ++i) {
    PCNNA_CHECK_MSG(faults.schedule[i].pcu < pool.size(),
                    "fault event " << i << " targets PCU "
                                   << faults.schedule[i].pcu
                                   << " but the fleet has " << pool.size()
                                   << " PCUs");
  }
  check(faults.detection_latency, 0.0, "fault detection latency");
  check(faults.repair_time, 0.0, "fault repair time");
  check(faults.retry.backoff_base, 0.0, "retry backoff base");
  check(faults.retry.backoff_factor, 1.0, "retry backoff factor");
}

class AdmissionRun {
 public:
  AdmissionRun(const PcuPool& pool, RequestQueue& queue,
               const AdmissionOptions& options)
      : pool_(pool),
        queue_(queue),
        options_(options),
        faults_(options.faults),
        scaler_(options.autoscaler),
        n_(pool.size()),
        policy_(options.policy),
        fault_active_(faults_.enabled()),
        pipelined_(policy_ == DispatchPolicy::kPipeline),
        at_admission_(policy_ != DispatchPolicy::kEdf &&
                      policy_ != DispatchPolicy::kModelAffinity &&
                      !pipelined_ && !options.shed_expired &&
                      !scaler_.enabled && !fault_active_),
        min_active_(scaler_.enabled ? scaler_.min_active : n_),
        max_active_(scaler_.enabled && scaler_.max_active > 0
                        ? std::min(scaler_.max_active, n_)
                        : n_),
        // kModelAffinity and kPipeline reuse the EDF urgency order: with
        // SLO metadata the most urgent request gets first pick of the
        // fleet; without it the order degenerates to FIFO.
        pending_(UrgencyOrder{policy_ == DispatchPolicy::kEdf ||
                              policy_ == DispatchPolicy::kModelAffinity ||
                              pipelined_}) {
    timing_.reserve(n_ * models_);
    for (std::size_t p = 0; p < n_; ++p) {
      const Pcu& pcu = pool.pcu(p);
      warmup_policy_[p] = pcu.warmup_policy();
      for (std::uint32_t m = 0; m < models_; ++m) {
        timing_.push_back({pcu.request_time_serial(m),
                           pcu.request_interval_overlapped(m),
                           pcu.warmup_time(m), pcu.swap_time(m)});
        if (capable(p, m)) capable_any_[p] = 1;
      }
    }
    for (std::size_t p = 0; p < active_count_; ++p) active_[p] = 1;
    if (pipelined_) {
      for (std::size_t g = 0; g < pool.num_pipelines(); ++g) {
        groups_.push_back(pool.pipeline(g));
        pinned_.emplace_back(groups_.back().stages.size(), 0);
        last_healthy_.push_back(groups_.back().members);
        // Members are statically placed; parking one would stall the
        // whole group, so they are always active (shrink_idle skips them).
        for (std::size_t p : groups_.back().members) {
          reserved_[p] = 1;
          active_count_ += active_[p] ? 0 : 1;
          active_[p] = 1;
        }
      }
    }
    result_.pipeline.groups = groups_.size();
    if (fault_active_) result_.fault.per_pcu.resize(n_);
    // Every PCU starts free, and untouched, at t = 0.
    if (!at_admission_) {
      free_bits_.assign((n_ + 63) / 64, ~std::uint64_t{0});
      if (n_ % 64 != 0) free_bits_.back() >>= 64 - n_ % 64;
      untouched_bits_ = free_bits_;
      classify();
    }
  }

  /// Events are arrivals, PCU-free instants, retry expiries and health
  /// events; the clock only moves forward, so the schedule is
  /// deterministic. Dispatching at admission, the pending set stays empty
  /// and the loop just walks the arrival timeline.
  AdmissionResult run() {
    InferenceRequest request;
    while (true) {
      // Retries whose backoff has expired re-enter the pending set with
      // their original arrival (and id, hence seed) and compete under the
      // normal urgency order.
      while (!retries_.empty() && next_retry() <= now_) {
        pending_.insert(retries_.begin()->second);
        retries_.erase(retries_.begin());
      }
      while (queue_.pop_arrived(now_, request)) admit(request);

      if (pending_.empty()) {
        double next = std::min(next_arrival(), next_retry());
        // Faults can still destroy work in flight: process health events
        // up to the latest in-flight completion. Events past it are past
        // the end of the simulated timeline and never fire.
        const double ev = next_health_event();
        if (std::isfinite(ev) && ev <= in_flight_until())
          next = std::min(next, ev);
        if (!wait_until(next)) break; // drained: done
        continue;
      }
      if (!serve_pending()) break;
    }
    return finish();
  }

 private:
  // --- per-PCU queries ---

  const ModelTiming& timing(std::size_t p, std::uint32_t m) const {
    return timing_[p * models_ + m];
  }

  /// Per-model capability: under kCapabilityAware (and kModelAffinity's
  /// least-loaded-capable fallback) a PCU must map the request's model
  /// with the fleet-minimum number of segmented bank passes.
  bool capable(std::size_t p, std::uint32_t m) const {
    if (policy_ != DispatchPolicy::kCapabilityAware &&
        policy_ != DispatchPolicy::kModelAffinity)
      return true;
    return pool_.pcu(p).channel_split_passes(m) == pool_.min_split_passes(m);
  }

  /// The one place the two dispatch modes still differ. A request
  /// dispatched at admission may commit to a busy PCU: its start waits
  /// for the PCU to free, and no later arrival can change the choice,
  /// because FIFO scores depend only on deterministic free times. A
  /// deferred dispatch happens at a PCU-free instant and considers only
  /// PCUs free at `now`. kEarliestFree picks the same PCU either way;
  /// kLeastLoaded and kCapabilityAware may not on a mixed fleet (a busy
  /// fast PCU can still finish first).
  bool candidate(std::size_t p) const {
    return at_admission_ || free_at_[p] <= now_;
  }

  /// Dispatch eligibility of PCU p for a model-m request. Reduces exactly
  /// to active && capable when no faults are injected.
  bool dispatchable(std::size_t p, std::uint32_t m,
                    bool allow_degraded) const {
    if (!active_[p] || !capable(p, m)) return false;
    if (!fault_active_) return true;
    if (excluded_[p]) return false;
    return allow_degraded || health_[p] != HealthState::kDegraded;
  }

  /// Health-aware capability downgrade: under the capability-sensitive
  /// policies a degraded PCU no longer meets the bar — unless no
  /// fully-healthy capable PCU is dispatchable for this model at all, in
  /// which case degraded capacity beats none.
  bool degraded_allowed(std::uint32_t m) const {
    if (!fault_active_ || (policy_ != DispatchPolicy::kCapabilityAware &&
                           policy_ != DispatchPolicy::kModelAffinity))
      return true;
    for (std::size_t p = 0; p < n_; ++p) {
      if (active_[p] && !excluded_[p] && capable(p, m) &&
          health_[p] == HealthState::kHealthy)
        return false;
    }
    return true;
  }

  /// A PCU the free-event scan may wait on: active, not health-excluded,
  /// and capable of some registered model.
  bool schedulable(std::size_t p) const {
    return active_[p] && !excluded_[p] && capable_any_[p];
  }

  /// Lowest-scoring PCU passing `filter` (ties toward the lowest index).
  template <class Filter, class Score>
  Pick argmin(Filter&& filter, Score&& score) const {
    Pick best{n_, kInf};
    for (std::size_t p = 0; p < n_; ++p) {
      if (!filter(p)) continue;
      const double s = score(p);
      if (s < best.score) best = {p, s};
    }
    return best;
  }

  /// argmin over the candidates passing `filter`. At admission every PCU
  /// is a candidate and this is the plain scan. Deferred, it walks the
  /// touched free PCUs and the lowest-index untouched PCU of each class
  /// that has one: untouched PCUs of a class filter and score bitwise
  /// alike, so the full scan would pick none of the others. Candidates
  /// come out of index order, so they combine under the full scan's two
  /// rules: the lowest index among equal scores, and never a +inf score.
  template <class Filter, class Score>
  Pick argmin_candidate(Filter&& filter, Score&& score) const {
    if (at_admission_) return argmin(filter, score);
    Pick best{n_, kInf};
    const auto consider = [&](std::size_t p) {
      if (!filter(p)) return;
      const double s = score(p);
      if (s < best.score || (s == best.score && s < kInf && p < best.pcu))
        best = {p, s};
    };
    for (std::size_t w = 0; w < free_bits_.size(); ++w)
      for (std::uint64_t bits = free_bits_[w] & ~untouched_bits_[w]; bits != 0;
           bits &= bits - 1)
        consider(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    for (const std::size_t c : open_classes_)
      consider(classes_[c].members[classes_[c].next]);
    PCNNA_DCHECK(same_pick(
        best,
        argmin([&](std::size_t p) { return candidate(p) && filter(p); },
               score)));
    return best;
  }

  // --- free-time index (deferred runs only) ---

  /// Calls f(p) on each PCU free at `now`, in ascending index order, until
  /// f returns true; returns whether it did.
  template <class F>
  bool any_free(F&& f) const {
    for (std::size_t w = 0; w < free_bits_.size(); ++w)
      for (std::uint64_t bits = free_bits_[w]; bits != 0; bits &= bits - 1)
        if (f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits))))
          return true;
    return false;
  }

  static std::uint64_t bit(std::size_t p) {
    return std::uint64_t{1} << (p % 64);
  }

  bool is_free(std::size_t p) const {
    return (free_bits_[p / 64] & bit(p)) != 0;
  }

  /// Earliest free time of a busy schedulable PCU (kInf when none): the
  /// head of the busy set, past any unschedulable entries.
  double next_busy_free_time() const {
    for (const auto& [t, p] : busy_)
      if (schedulable(p)) return t;
    return kInf;
  }

  bool is_untouched(std::size_t p) const {
    return (untouched_bits_[p / 64] & bit(p)) != 0;
  }

  /// Group the PCUs by their static inputs: every model's timing row and
  /// capability, the warmup policy, reservation and initial activity.
  /// Untouched PCUs of one class filter and score bitwise alike.
  void classify() {
    std::map<std::vector<std::uint64_t>, std::size_t> ids;
    std::vector<std::uint64_t> key;
    for (std::size_t p = 0; p < n_; ++p) {
      key.clear();
      for (std::uint32_t m = 0; m < models_; ++m) {
        const ModelTiming& t = timing(p, m);
        for (const double v : {t.request_time_serial,
                               t.request_interval_overlapped, t.warmup_time,
                               t.swap_time})
          key.push_back(std::bit_cast<std::uint64_t>(v));
        key.push_back(capable(p, m));
      }
      key.push_back(static_cast<std::uint64_t>(warmup_policy_[p]));
      key.push_back(reserved_[p]);
      key.push_back(active_[p]);
      const auto [it, fresh] = ids.try_emplace(key, classes_.size());
      if (fresh) {
        open_classes_.push_back(classes_.size());
        classes_.push_back({{}, 0, active_[p] != 0});
      }
      classes_[it->second].members.push_back(p);
      class_of_[p] = it->second;
    }
  }

  /// Mark PCU p touched: it may leave its initial state, so from now on
  /// the scan scores it on its own. Every writer of a per-PCU field calls
  /// this first; a bit once cleared is never set again. Dispatching at
  /// admission keeps no classes.
  void touch(std::size_t p) {
    if (at_admission_ || !is_untouched(p)) return;
    untouched_bits_[p / 64] &= ~bit(p);
    PcuClass& c = classes_[class_of_[p]];
    while (c.next < c.members.size() && !is_untouched(c.members[c.next]))
      ++c.next;
    if (c.next == c.members.size()) std::erase(open_classes_, class_of_[p]);
  }

  /// The one writer of free_at_ after construction. A deferred run keeps
  /// the index in step; dispatching at admission never reads it, so it
  /// skips the upkeep.
  void set_free_at(std::size_t p, double t) {
    touch(p);
    if (!at_admission_) {
      if (is_free(p)) {
        free_bits_[p / 64] &= ~bit(p);
      } else {
        busy_.erase(std::pair{free_at_[p], p});
      }
      if (t <= now_) {
        free_bits_[p / 64] |= bit(p);
      } else {
        busy_.emplace(t, p);
      }
    }
    free_at_[p] = t;
  }

  /// Debug oracle for the index: bit p set <=> free_at_[p] <= now_, no bit
  /// past the fleet, busy_ holds exactly (free_at_[p], p) for every PCU
  /// whose bit is clear, and every untouched PCU still holds the initial
  /// value of every per-PCU field the filters and scorers read.
  bool index_consistent() const {
    if (n_ % 64 != 0 && (free_bits_.back() >> (n_ % 64)) != 0) return false;
    std::size_t busy = 0;
    for (std::size_t p = 0; p < n_; ++p) {
      if (is_free(p) != (free_at_[p] <= now_)) return false;
      busy += is_free(p) ? 0 : 1;
      if (is_untouched(p) &&
          (free_at_[p] != 0.0 || served_[p] != 0 ||
           programmed_[p] != kNoModel || force_cold_[p] ||
           degrade_mult_[p] != 1.0 || excluded_[p] ||
           health_[p] != HealthState::kHealthy ||
           (active_[p] != 0) != classes_[class_of_[p]].active))
        return false;
    }
    if (busy != busy_.size()) return false;
    for (const auto& [t, p] : busy_)
      if (is_free(p) || !same_bits(t, free_at_[p])) return false;
    return true;
  }

  static bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  }

  static bool same_pick(Pick a, Pick b) {
    return a.pcu == b.pcu && same_bits(a.score, b.score);
  }

  /// Pipeline-fill charge for dispatching model m to PCU p at `start`, per
  /// that PCU's warmup policy. Zero on the serial schedule: without double
  /// buffering every layer pays its recalibration inline. A PCU the
  /// autoscaler just (re)activated is cold regardless of policy.
  double warmup_charge(std::size_t p, std::uint32_t m, double start) const {
    if (!options_.double_buffer) return 0.0;
    bool cold = true;
    switch (warmup_policy_[p]) {
      case WarmupPolicy::kRechargeAfterIdle:
        // An idle gap drains the double-buffer pipeline, so the next
        // request pays the pipeline-fill warmup again; within a
        // back-to-back streak only the steady-state interval is charged.
        // start == free_at is back-to-back — the comparison must stay
        // strictly greater-than, or a request landing exactly when the
        // PCU frees would be double-charged warmup.
        cold = served_[p] == 0 || start > free_at_[p];
        break;
      case WarmupPolicy::kPinnedAfterFirst:
        cold = served_[p] == 0;
        break;
      case WarmupPolicy::kAlwaysCold:
        cold = true;
        break;
    }
    return (cold || force_cold_[p]) ? timing(p, m).warmup_time : 0.0;
  }

  /// True when dispatching model m to PCU p would reprogram its banks from
  /// a *different* model — the swap event. Only meaningful on the
  /// double-buffered schedule (serial requests reprogram inline anyway),
  /// and never on a PCU's very first programming.
  bool would_swap(std::size_t p, std::uint32_t m) const {
    return options_.double_buffer && programmed_[p] != kNoModel &&
           programmed_[p] != m;
  }

  /// Service span of a model-m request on PCU p starting at `start`,
  /// stretched by the PCU's calibration drift (1.0 without faults). With
  /// `swap_aware` it is exactly what a dispatch charges — a swap replaces
  /// the warmup when the banks switch models — and it prices shedding and
  /// kModelAffinity's scores. Without it the span is model-blind: the
  /// legacy policies deliberately ignore the swap (least-loaded is a
  /// *load* balancer, not a placement policy — the blindness
  /// kModelAffinity fixes and the multi-model bench measures). The two
  /// agree on a single-model stream.
  double service(std::size_t p, std::uint32_t m, double start,
                 bool swap_aware) const {
    const ModelTiming& t = timing(p, m);
    if (!options_.double_buffer)
      return t.request_time_serial * degrade_mult_[p];
    const double fill = swap_aware && would_swap(p, m)
                            ? t.swap_time
                            : warmup_charge(p, m, start);
    return (t.request_interval_overlapped + fill) * degrade_mult_[p];
  }

  // --- dispatch ---

  void admit(const InferenceRequest& request) {
    PCNNA_CHECK_MSG(request.model_id < pool_.num_models(),
                    "request " << request.id << " targets model "
                               << request.model_id << " but only "
                               << pool_.num_models()
                               << " models are registered");
    // A NaN deadline ranks equivalent to every key in the urgency order,
    // so the pending set would silently drop the request.
    PCNNA_CHECK_MSG(!std::isnan(request.deadline),
                    "request " << request.id << " has a NaN deadline");
    const PendingRequest r{request.id,       request.arrival_time,
                           request.tenant,   request.priority,
                           request.deadline, request.model_id};
    // At admission every PCU is a candidate, so the request always lands.
    if (at_admission_) {
      try_dispatch(r, r.arrival);
    } else {
      pending_.insert(r);
    }
  }

  /// Act on `r`, which can start no earlier than `t` (its arrival at
  /// admission, `now` when deferred): dispatch it, or shed it if the
  /// dispatch would blow its deadline. Returns false when `r` waits.
  bool try_dispatch(const PendingRequest& r, double t) {
    if (pipelined_) {
      const std::size_t g = group_of(r.model);
      if (g < groups_.size() && !groups_[g].stages.empty())
        return dispatch_pipelined(r, g);
      // No group for this model, or the group lost every member: fall
      // back to least-loaded over the unreserved fleet (see choose).
    }
    const std::size_t p = choose(r, t);
    if (p == n_) return false;
    dispatch_whole(r, p, std::max(t, free_at_[p]));
    return true;
  }

  /// The PCU `policy_` picks for `r`, or n_ when `r` should wait: under
  /// kModelAffinity for a busy PCU programmed with its model, otherwise
  /// when no candidate is capable of it (multi-model kCapabilityAware, or
  /// the unreserved remainder under kPipeline).
  ///
  /// Kept out of line: GCC 12 otherwise inlines it, both scans of all six
  /// policies included, into try_dispatch, which slowed the
  /// dispatch-at-admission path (perfbench admit_ll_mixed16, 4-vCPU
  /// x86-64 host) by 3.7-7 %.
  [[gnu::noinline]] std::size_t choose(const PendingRequest& r,
                                       double t) const {
    const std::uint32_t m = r.model;
    const bool allow_degraded = degraded_allowed(m);
    // Not filtered on candidate(p): argmin_candidate walks only candidates.
    const auto eligible = [&](std::size_t p) {
      return dispatchable(p, m, allow_degraded);
    };
    // Predicted completion if r starts on p as soon as both are ready.
    const auto completion = [&](std::size_t p, bool swap_aware) {
      const double start = std::max(t, free_at_[p]);
      return start + service(p, m, start, swap_aware);
    };
    const auto blind = [&](std::size_t p) { return completion(p, false); };
    const auto truthful = [&](std::size_t p) { return completion(p, true); };

    Pick best{n_, kInf};
    switch (policy_) {
      case DispatchPolicy::kEarliestFree:
        // Longest-free wins, blind to per-PCU speed.
        best = argmin_candidate(eligible,
                                [&](std::size_t p) { return free_at_[p]; });
        break;
      case DispatchPolicy::kLeastLoaded:
      case DispatchPolicy::kCapabilityAware:
      case DispatchPolicy::kEdf:
        best = argmin_candidate(eligible, blind);
        break;
      case DispatchPolicy::kPipeline:
        best = argmin_candidate(
            [&](std::size_t p) { return !reserved_[p] && eligible(p); },
            blind);
        break;
      case DispatchPolicy::kModelAffinity: {
        // (a) A candidate already programmed with m: no swap.
        best = argmin_candidate(
            [&](std::size_t p) { return eligible(p) && programmed_[p] == m; },
            truthful);
        if (best.pcu < n_) return best.pcu;
        // (b) Every affine PCU is busy (or none exists). Waiting for the
        // soonest busy affine PCU predicts completion at its free time
        // plus a warm steady-state interval; falling back means swapping
        // onto the best candidate now. Wait only when waiting both meets
        // the deadline and is at least as fast — otherwise the affinity
        // queue would blow the SLO (or just lose throughput) for a swap.
        // (A linear scan over busy PCUs: no large-fleet workload runs it.)
        const Pick affine = argmin(
            [&](std::size_t p) {
              return eligible(p) && programmed_[p] == m && !candidate(p);
            },
            [&](std::size_t p) {
              return free_at_[p] + timing(p, m).request_interval_overlapped *
                                       degrade_mult_[p];
            });
        best = argmin_candidate(eligible, truthful);
        if (std::isfinite(affine.score) && affine.score <= r.deadline &&
            affine.score <= best.score)
          return n_; // hold out for the busy affine PCU
        break;
      }
    }
    if (best.pcu == n_) require_capable(m);
    return best.pcu;
  }

  /// A request without a candidate may wait for a busy capable PCU; one
  /// with no capable PCU at all (outside the pipeline groups) would wait
  /// forever. Faults excuse that: a repair or recovery may bring one back.
  void require_capable(std::uint32_t m) const {
    if (fault_active_) return;
    for (std::size_t p = 0; p < n_; ++p)
      if (!reserved_[p] && active_[p] && capable(p, m)) return;
    throw Error("no active PCU capable of model " + std::to_string(m) +
                (pipelined_ ? " outside the pipeline groups" : ""));
  }

  /// Commit `r` whole on PCU p from `start` — swap or warmup per the
  /// programmed state — unless it is shed.
  void dispatch_whole(const PendingRequest& r, std::size_t p, double start) {
    const double completion =
        start + service(p, r.model, start, /*swap_aware=*/true);
    if (shed_late(r, completion)) return;
    const bool swapped = would_swap(p, r.model);
    const double swap = swapped ? timing(p, r.model).swap_time : 0.0;
    const double warmup = swapped ? 0.0 : warmup_charge(p, r.model, start);
    occupy(p, r.model, completion);
    commit({r.id, p, r.arrival, start, completion, warmup, r.tenant,
            r.priority, r.deadline, r.model, swap, swapped, r.attempts,
            /*stages=*/{}});
  }

  /// Route `r` through pipeline group g. The head PCU gates admission: a
  /// new image enters when stage 0 frees, and downstream stages chain from
  /// the hand-off instants. Returns false (wait) while the head is busy.
  bool dispatch_pipelined(const PendingRequest& r, std::size_t g) {
    const PipelineGroup& group = groups_[g];
    if (!candidate(group.stages.front().pcu)) return false;
    // Stage j starts once the previous stage's activation has crossed the
    // inter-stage link AND the stage's PCU is free (busy with image i-1).
    std::vector<StageService> spans;
    spans.reserve(group.stages.size());
    double prev = now_;
    double total_pin = 0.0;
    double total_handoff = 0.0;
    for (std::size_t j = 0; j < group.stages.size(); ++j) {
      const PipelineStage& st = group.stages[j];
      const double handoff = j == 0 ? 0.0 : group.handoff_time;
      const double start = std::max(prev + handoff, free_at_[st.pcu]);
      // The pin — the stage range's first-layer recalibration — is paid
      // once per placement; afterwards the stage's banks never change
      // (the whole point of pipelining: zero swaps).
      const double pin =
          (pinned_[g][j] ? 0.0 : st.timings.pin) * degrade_mult_[st.pcu];
      const double span = st.timings.interval * degrade_mult_[st.pcu] + pin;
      spans.push_back({j, st.pcu, st.op_begin, st.op_end, start,
                       start + span, pin, handoff});
      total_pin += pin;
      total_handoff += handoff;
      prev = start + span;
    }
    const double completion = spans.back().completion;
    if (shed_late(r, completion)) return true;
    for (std::size_t j = 0; j < spans.size(); ++j) {
      occupy(spans[j].pcu, r.model, spans[j].completion);
      pinned_[g][j] = 1;
    }
    result_.pipeline.pipelined_requests += 1;
    result_.pipeline.stage_spans += spans.size();
    result_.pipeline.pin_time += total_pin;
    result_.pipeline.handoff_time += total_handoff;
    const double start = spans.front().start;
    commit({r.id, group.stages.front().pcu, r.arrival, start, completion,
            total_pin, r.tenant, r.priority, r.deadline, r.model,
            /*swap=*/0.0, /*swapped=*/false, r.attempts, std::move(spans)});
    return true;
  }

  void occupy(std::size_t p, std::uint32_t m, double until) {
    set_free_at(p, until);
    served_[p] += 1;
    force_cold_[p] = 0;
    programmed_[p] = m;
  }

  /// Append one dispatched attempt, whole or pipelined, to the schedule.
  /// With faults it becomes a live attempt — or, when a PCU it runs on is
  /// already dead, a black hole: the dispatcher (fault-blind, or inside
  /// the detection window) only learns at the predicted completion that
  /// the request never came back.
  void commit(ScheduledService entry) {
    if (options_.telemetry)
      options_.telemetry->on_dispatch(entry.swapped, !entry.stages.empty());
    result_.schedule.push_back(std::move(entry));
    if (!fault_active_) return;
    cancelled_.push_back(0);
    const std::size_t idx = result_.schedule.size() - 1;
    std::size_t dead = n_;
    if (any_span(result_.schedule[idx], [&](std::size_t q, double, double) {
          dead = q;
          return health_[q] == HealthState::kFailed;
        })) {
      const double completion = result_.schedule[idx].completion;
      lose_attempt(idx, dead, FaultKind::kCrash, completion, completion);
    } else {
      live_.push_back(idx);
    }
  }

  /// Load shedding: a dispatch whose predicted completion blows the
  /// request's deadline is rejected now, at the moment the decision is
  /// made, instead of serving uselessly late. Returns whether `r` was shed.
  bool shed_late(const PendingRequest& r, double completion) {
    if (!options_.shed_expired || !(completion > r.deadline)) return false;
    result_.shed.shed += 1;
    result_.shed.per_tenant[r.tenant] += 1;
    result_.shed.decisions.push_back(
        {r.id, r.tenant, r.priority, r.arrival, r.deadline, now_});
    return true;
  }

  std::size_t group_of(std::uint32_t model) const {
    for (std::size_t g = 0; g < groups_.size(); ++g)
      if (groups_[g].model == model) return g;
    return groups_.size();
  }

  // --- the loop ---

  /// One deferred dispatch step: wait for the next PCU-free instant (or an
  /// earlier event that may change the picture), then walk the pending
  /// set in urgency order and act on the first request that can. Returns
  /// false once nothing can ever be dispatched again.
  bool serve_pending() {
    if (scaler_.enabled) {
      shrink_idle();
      grow_on_backlog();
    }
    // The earliest instant a schedulable PCU is free: `now` if one is.
    const auto schedulable_pcu = [&](std::size_t p) { return schedulable(p); };
    const double free_time =
        any_free(schedulable_pcu) ? now_ : next_busy_free_time();
    PCNNA_DCHECK(same_bits(
        free_time,
        argmin(schedulable_pcu, [&](std::size_t p) {
          return std::max(now_, free_at_[p]);
        }).score));
    if (!std::isfinite(free_time)) {
      PCNNA_CHECK_MSG(fault_active_,
                      "no active capable PCU to dispatch to — autoscaler "
                      "min_active excludes every capable PCU");
      // The whole fleet is dead or quarantined. Wait for whatever event
      // can change that (a repair, a recovery, more arrivals).
      return wait_until(next_event());
    }
    // An arrival before (or exactly when) a PCU frees is admitted first:
    // under EDF it may be more urgent than anything already pending. With
    // faults the same holds for a retry expiry or a health event — a
    // fault could kill the very PCU the dispatch below would pick.
    const double arrival = next_arrival();
    const double event = std::min(next_health_event(), next_retry());
    if (arrival <= free_time || event <= free_time) {
      step_to(arrival <= free_time ? arrival : event);
      return true;
    }
    step_to(free_time);

    // A request may wait instead — under kModelAffinity for a busy PCU
    // programmed with its model, under multi-model kCapabilityAware when
    // every PCU capable of its model is busy — and then the next pending
    // request gets its chance. On a single-model stream nothing waits
    // (the free event guarantees a free capable PCU).
    if (options_.telemetry)
      options_.telemetry->on_queue_depth(now_, pending_.size());
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (try_dispatch(*it, now_)) {
        pending_.erase(it);
        return true;
      }
    }
    // Every pending request waits: advance to the next event that can
    // change the picture — an arrival, the next strictly-later free time
    // of an eligible PCU, or (with faults) a retry expiry or health event.
    const double busy_free_time = next_busy_free_time();
    PCNNA_DCHECK(same_bits(
        busy_free_time,
        argmin([&](std::size_t p) { return schedulable(p) && !candidate(p); },
               [&](std::size_t p) { return free_at_[p]; })
            .score));
    const double next = std::min(next_event(), busy_free_time);
    PCNNA_CHECK_MSG(std::isfinite(next) || fault_active_,
                    "admission deadlock: every pending request is deferred "
                    "with no future event");
    return wait_until(next);
  }

  /// Advance the clock to `next`; when no event will ever come, record
  /// everything still waiting as lost and report the run over.
  bool wait_until(double next) {
    if (!std::isfinite(next)) {
      drain_all_lost();
      return false;
    }
    step_to(next);
    return true;
  }

  /// Earliest arrival, retry expiry or health event.
  double next_event() const {
    return std::min(std::min(next_arrival(), next_retry()),
                    next_health_event());
  }

  double next_arrival() const {
    double next = 0.0;
    return queue_.next_arrival(next) ? next : kInf;
  }

  double next_retry() const {
    return retries_.empty() ? kInf : retries_.begin()->first.first;
  }

  /// The only writer of now_. A deferred run moves every PCU that frees
  /// by the new `now` from the busy set to the free set.
  void advance_to(double t) {
    if (t > last_event_) {
      active_integral_ +=
          static_cast<double>(active_count_) * (t - last_event_);
      last_event_ = t;
    }
    now_ = std::max(now_, t);
    if (at_admission_) return;
    while (!busy_.empty() && busy_.begin()->first <= now_) {
      const std::size_t p = busy_.begin()->second;
      free_bits_[p / 64] |= bit(p);
      busy_.erase(busy_.begin());
    }
    PCNNA_DCHECK(index_consistent());
  }

  /// Every clock advance goes through here so faults strike in order, at
  /// their own timestamps, before the loop acts at `t`.
  void step_to(double t) {
    if (fault_active_) process_events_to(t);
    advance_to(t);
  }

  /// Record everything still waiting as lost — the fleet died (or stayed
  /// incapable) with it pending and no future event can change that.
  void drain_all_lost() {
    const auto lose = [&](const PendingRequest& r) {
      result_.fault.lost_requests += 1;
      result_.fault.losses.push_back(
          {r.id, r.tenant, r.priority, r.arrival, now_, r.attempts - 1});
    };
    for (const PendingRequest& r : pending_) lose(r);
    pending_.clear();
    for (const auto& [key, r] : retries_) lose(r);
    retries_.clear();
  }

  AdmissionResult finish() {
    if (fault_active_) {
      // Repairs complete even after the last request — fire every
      // remaining health timer for the availability/repair accounting.
      // (Remaining fault *events* are past the end of the timeline.)
      for (Pick timer = next_timer(); timer.pcu < n_; timer = next_timer()) {
        advance_to(timer.score);
        fire_timer(timer.pcu, timer.score);
      }
      // Drop destroyed attempts from the schedule (stable), keeping only
      // the attempt that actually served each request.
      std::vector<ScheduledService> kept;
      kept.reserve(result_.schedule.size());
      for (std::size_t i = 0; i < result_.schedule.size(); ++i)
        if (!cancelled_[i]) kept.push_back(std::move(result_.schedule[i]));
      result_.schedule = std::move(kept);
      for (const ScheduledService& s : result_.schedule)
        if (s.attempts > 1) result_.fault.recovered_requests += 1;
    }
    // Dispatching at admission never changes the active set, so it
    // reports the pool size itself. The deferred loop reports the
    // integral, which can miss the pool size in the last bits even
    // without the autoscaler.
    result_.autoscaler.mean_active = static_cast<double>(n_);
    if (!at_admission_) close_at_makespan();
    if (options_.telemetry)
      options_.telemetry->record_admission(result_, pool_, options_);
    return std::move(result_);
  }

  /// Close the mean-active integral and the health dwell buckets at the
  /// makespan: the last completion — destroyed attempts included — or the
  /// last event when everything was shed.
  void close_at_makespan() {
    double makespan = last_event_;
    for (const ScheduledService& s : result_.schedule)
      makespan = std::max(makespan, s.completion);
    for (const FaultedAttempt& a : result_.fault.attempts)
      makespan = std::max(makespan, a.end);
    advance_to(makespan);
    result_.autoscaler.mean_active =
        makespan > 0.0 ? active_integral_ / makespan
                       : static_cast<double>(active_count_);
    // Per-PCU availability: the in-service fraction of the run.
    for (std::size_t p = 0; p < result_.fault.per_pcu.size(); ++p) {
      PcuHealthStats& hs = result_.fault.per_pcu[p];
      enter_health(p, health_[p], makespan);
      hs.availability =
          makespan > 0.0 ? (hs.healthy_time + hs.degraded_time) / makespan
                         : 1.0;
    }
  }

  // --- autoscaler ---

  /// Deactivate PCUs idle at least shrink_after_idle, highest index first,
  /// never below min_active. A busy PCU (free_at > now) has negative idle
  /// time and is never touched.
  void shrink_idle() {
    if (scaler_.shrink_after_idle <= 0.0) return;
    for (std::size_t i = n_; i-- > 0 && active_count_ > min_active_;) {
      // A pipeline group member is never parked: the group admits work at
      // the head's pace and any member going cold would stall the chain.
      if (!active_[i] || reserved_[i]) continue;
      const double idle_from = std::max(free_at_[i], activated_at_[i]);
      if (now_ - idle_from >= scaler_.shrink_after_idle) {
        touch(i);
        active_[i] = 0;
        active_count_ -= 1;
        result_.autoscaler.scale_downs += 1;
      }
    }
  }

  /// Activate the lowest-indexed inactive PCU while the pending backlog
  /// exceeds the per-PCU budget.
  void grow_on_backlog() {
    while (active_count_ < max_active_ &&
           static_cast<double>(pending_.size()) >
               scaler_.backlog_per_pcu * static_cast<double>(active_count_)) {
      // Skip health-excluded PCUs: activating a quarantined or
      // detected-dead PCU would waste the slot.
      std::size_t p = 0;
      while (p < n_ && (active_[p] || excluded_[p])) ++p;
      if (p == n_) break; // every inactive PCU is unhealthy
      activate(p);
    }
    // Under kPipeline, reserved group members inflate the active count
    // but never serve group-less models, so the backlog threshold alone
    // can park every unreserved PCU forever. If a pending request's model
    // has no (surviving) group while no unreserved PCU is awake, force one
    // up — the fallback path must never starve behind the reserved fleet.
    if (!pipelined_ || active_count_ >= max_active_) return;
    const bool groupless_pending = std::any_of(
        pending_.begin(), pending_.end(), [&](const PendingRequest& r) {
          const std::size_t g = group_of(r.model);
          return g == groups_.size() || groups_[g].stages.empty();
        });
    if (!groupless_pending) return;
    for (std::size_t p = 0; p < n_; ++p)
      if (active_[p] && !reserved_[p] && !excluded_[p]) return;
    for (std::size_t p = 0; p < n_; ++p) {
      if (!active_[p] && !excluded_[p] && !reserved_[p]) {
        activate(p);
        return;
      }
    }
  }

  /// Activation forces a cold start: the pipeline of a parked PCU has
  /// drained no matter its WarmupPolicy.
  void activate(std::size_t p) {
    touch(p);
    active_[p] = 1;
    force_cold_[p] = 1;
    activated_at_[p] = now_;
    active_count_ += 1;
    result_.autoscaler.scale_ups += 1;
  }

  // --- faults ---

  /// Process every health timer and fault event due by `t`, each at its
  /// own timestamp (timers first on exact ties: detection/repair outcomes
  /// must be visible to a fault striking at the same instant).
  void process_events_to(double t) {
    while (true) {
      const Pick timer = next_timer();
      const double ft = next_fault_time();
      if (timer.score <= ft) {
        if (timer.score > t) break;
        advance_to(timer.score);
        fire_timer(timer.pcu, timer.score);
      } else {
        if (ft > t) break;
        advance_to(ft);
        apply_fault(faults_.schedule[fault_cursor_]);
        fault_cursor_ += 1;
      }
      // Either branch may have changed a PCU's exclusion; pipeline groups
      // re-place over their surviving members immediately.
      refresh_pipelines();
    }
  }

  /// Earliest pending health timer (ties: lowest PCU index).
  Pick next_timer() const {
    return argmin([](std::size_t) { return true; },
                  [&](std::size_t p) { return timer_at_[p]; });
  }

  double next_fault_time() const {
    return fault_cursor_ < faults_.schedule.size()
               ? faults_.schedule[fault_cursor_].time
               : kInf;
  }

  /// Earliest instant the health system acts next (timer or injection);
  /// never, without faults.
  double next_health_event() const {
    if (!fault_active_) return kInf;
    return std::min(next_timer().score, next_fault_time());
  }

  void set_timer(std::size_t p, TimerKind kind, double at) {
    timer_kind_[p] = kind;
    timer_at_[p] = at;
  }

  /// Fire the pending health-system timer of PCU p at its due time t.
  void fire_timer(std::size_t p, double t) {
    touch(p);
    const TimerKind kind = timer_kind_[p];
    set_timer(p, TimerKind::kNone, kInf);
    switch (kind) {
      case TimerKind::kNone:
        return;
      case TimerKind::kDetectCrash:
        // The health system notices the crash: pull the dead PCU from
        // dispatch. (A recovery before detection clears this timer.)
        if (health_[p] == HealthState::kFailed) excluded_[p] = 1;
        return;
      case TimerKind::kDetectDegrade: {
        if (health_[p] != HealthState::kDegraded) return;
        // Quarantine: out of dispatch, drain the in-flight request, then
        // pay the full repair recalibration (fixed repair time plus the
        // full serial reprogram of whatever model is in the banks).
        enter_health(p, HealthState::kQuarantined, t);
        excluded_[p] = 1;
        result_.fault.quarantines += 1;
        result_.fault.per_pcu[p].quarantines += 1;
        const std::uint32_t m =
            programmed_[p] == kNoModel ? 0u : programmed_[p];
        const double repair_start = std::max(t, free_at_[p]);
        const double repair_end =
            repair_start + faults_.repair_time + timing(p, m).swap_time;
        result_.fault.repair_time += repair_end - repair_start;
        set_free_at(p, std::max(free_at_[p], repair_end));
        set_timer(p, TimerKind::kRepairDone, repair_end);
        return;
      }
      case TimerKind::kRepairDone:
        rejoin(p, t);
        return;
    }
    throw Error("invalid TimerKind");
  }

  /// Apply one FaultEvent at its timestamp.
  void apply_fault(const FaultEvent& e) {
    result_.fault.injections += 1;
    const std::size_t p = e.pcu;
    switch (e.kind) {
      case FaultKind::kTransient:
        result_.fault.per_pcu[p].transients += 1;
        if (health_[p] == HealthState::kFailed) return; // nothing to corrupt
        strike(p, FaultKind::kTransient, e.time);
        return;
      case FaultKind::kDegrade:
        if (health_[p] == HealthState::kFailed) return; // dead already
        result_.fault.per_pcu[p].degrades += 1;
        touch(p);
        degrade_mult_[p] = std::max(degrade_mult_[p], e.severity);
        if (health_[p] == HealthState::kHealthy)
          enter_health(p, HealthState::kDegraded, e.time);
        // Already-quarantined PCUs are being repaired anyway; an earlier
        // pending detection keeps its (earlier) due time.
        if (faults_.health_aware && health_[p] == HealthState::kDegraded &&
            timer_kind_[p] == TimerKind::kNone)
          set_timer(p, TimerKind::kDetectDegrade,
                    e.time + faults_.detection_latency);
        return;
      case FaultKind::kCrash:
        result_.fault.per_pcu[p].crashes += 1;
        if (health_[p] == HealthState::kFailed) return; // dead already
        enter_health(p, HealthState::kFailed, e.time);
        // A crash supersedes any pending detection and aborts a repair in
        // progress (the repair never completes and does not count: the
        // banks were never re-trimmed).
        set_timer(p, faults_.health_aware ? TimerKind::kDetectCrash
                                          : TimerKind::kNone,
                  faults_.health_aware ? e.time + faults_.detection_latency
                                       : kInf);
        strike(p, FaultKind::kCrash, e.time);
        return;
      case FaultKind::kRecover:
        // External repair: a mid-quarantine recover completes the repair
        // early; a recover on a healthy PCU is an external re-trim.
        rejoin(p, e.time);
        set_free_at(p, std::max(free_at_[p], e.time));
        set_timer(p, TimerKind::kNone, kInf);
        return;
    }
    throw Error("invalid FaultKind");
  }

  /// Drop live attempts that died or completed by `now`: no fault still to
  /// come can strike them, because every one lies after `now`.
  void prune_live() {
    std::erase_if(live_, [&](std::size_t i) {
      return cancelled_[i] || result_.schedule[i].completion <= now_;
    });
  }

  /// Destroy, in dispatch order, every live attempt a fault of `kind` on
  /// PCU p at time t hits. A crash kills every attempt with a span on p
  /// not yet complete — future pipeline spans included, whose activation
  /// would arrive at a dead PCU — at t, noticed after the detection
  /// latency. A transient corrupts the attempt whose span on p covers t;
  /// it runs to its scheduled completion (occupying the PCU), where the
  /// corruption is detected (a pipelined attempt's earlier stages hand off
  /// silently).
  void strike(std::size_t p, FaultKind kind, double t) {
    const bool crash = kind == FaultKind::kCrash;
    prune_live();
    for (const std::size_t i : live_) {
      if (cancelled_[i] ||
          !any_span(result_.schedule[i],
                    [&](std::size_t q, double start, double end) {
                      return q == p &&
                             (crash ? end > t : start <= t && t < end);
                    }))
        continue;
      const double end = crash ? t : result_.schedule[i].completion;
      lose_attempt(i, p, kind, end,
                   crash ? t + faults_.detection_latency : end);
    }
  }

  /// Latest completion among live attempts; -inf when none.
  double in_flight_until() {
    prune_live();
    double until = -kInf;
    for (const std::size_t i : live_)
      until = std::max(until, result_.schedule[i].completion);
    return until;
  }

  /// Back in service healthy with freshly re-trimmed, unprogrammed banks,
  /// after a quarantine repair or a kRecover: the next dispatch
  /// recalibrates from cold.
  void rejoin(std::size_t p, double t) {
    touch(p);
    enter_health(p, HealthState::kHealthy, t);
    excluded_[p] = 0;
    degrade_mult_[p] = 1.0;
    programmed_[p] = kNoModel;
    force_cold_[p] = 1;
    result_.fault.repairs += 1;
    result_.fault.per_pcu[p].repairs += 1;
  }

  /// Move PCU p into `state` at time t, closing the dwell bucket of the
  /// state it leaves.
  void enter_health(std::size_t p, HealthState state, double t) {
    touch(p);
    const double dt = t - health_since_[p];
    if (dt > 0.0) {
      PcuHealthStats& hs = result_.fault.per_pcu[p];
      switch (health_[p]) {
        case HealthState::kHealthy: hs.healthy_time += dt; break;
        case HealthState::kDegraded: hs.degraded_time += dt; break;
        case HealthState::kQuarantined: hs.quarantined_time += dt; break;
        case HealthState::kFailed: hs.failed_time += dt; break;
      }
      health_since_[p] = t;
    }
    health_[p] = state;
  }

  /// Re-place every pipeline group whose healthy member set changed — a
  /// member got quarantined or declared dead (excluded) or repaired back
  /// in. place_pipeline is a pure function of the surviving members, so
  /// the re-placement is deterministic; pins reset because new stage
  /// ranges mean freshly reprogrammed banks.
  void refresh_pipelines() {
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      std::vector<std::size_t> healthy_members;
      for (std::size_t p : groups_[g].members)
        if (!excluded_[p]) healthy_members.push_back(p);
      if (healthy_members == last_healthy_[g]) continue;
      last_healthy_[g] = healthy_members;
      pool_.place_pipeline(groups_[g], healthy_members);
      pinned_[g].assign(groups_[g].stages.size(), 0);
      result_.pipeline.replacements += 1;
    }
  }

  /// Destroy the dispatched attempt at schedule index i: tombstone it,
  /// record it, and route its request into retry (or permanent loss).
  /// `end` is when the PCU time was wasted until; `detect` is when the
  /// loss becomes known (the retry clock's start).
  void lose_attempt(std::size_t i, std::size_t p, FaultKind kind,
                    double end, double detect) {
    cancelled_[i] = 1;
    const ScheduledService& s = result_.schedule[i];
    const PendingRequest req{s.id,       s.arrival, s.tenant,  s.priority,
                             s.deadline, s.model,   s.attempts};
    result_.fault.attempts.push_back(
        {req.id, p, s.start, end, kind, req.attempts});
    result_.fault.per_pcu[p].lost_attempts += 1;
    result_.fault.per_pcu[p].lost_time += end - s.start;
    if (kind == FaultKind::kCrash) {
      result_.fault.crash_losses += 1;
    } else {
      result_.fault.transient_corruptions += 1;
    }
    schedule_retry(req, detect);
  }

  /// Re-enqueue a destroyed attempt of `req`, detected at `detect`, with
  /// exponential backoff if the budget allows, else record the permanent
  /// loss. The backoff is capped so the retry could still start early
  /// enough to meet a finite deadline on the fastest PCU (a retry
  /// sleeping past the deadline minus the fleet's fastest base service
  /// can never succeed).
  void schedule_retry(const PendingRequest& req, double detect) {
    if (!faults_.health_aware || req.attempts > faults_.retry.max_retries) {
      result_.fault.lost_requests += 1;
      result_.fault.losses.push_back({req.id, req.tenant, req.priority,
                                      req.arrival, detect, req.attempts});
      return;
    }
    double delay = faults_.retry.backoff_base;
    for (std::uint32_t k = 1; k < req.attempts; ++k)
      delay *= faults_.retry.backoff_factor;
    double ready = detect + delay;
    if (std::isfinite(req.deadline)) {
      const double fastest =
          argmin([](std::size_t) { return true; },
                 [&](std::size_t p) {
                   const ModelTiming& t = timing(p, req.model);
                   return options_.double_buffer ? t.request_interval_overlapped
                                                 : t.request_time_serial;
                 })
              .score;
      ready = std::max(detect, std::min(ready, req.deadline - fastest));
    }
    PendingRequest next = req;
    next.attempts += 1;
    retries_.emplace(std::pair{ready, next.id}, next);
    result_.fault.retries += 1;
  }

  const PcuPool& pool_;
  RequestQueue& queue_;
  const AdmissionOptions& options_;
  const FaultOptions& faults_;
  const AutoscalerPolicy& scaler_;
  const std::size_t n_;
  const DispatchPolicy policy_;
  const bool fault_active_;
  const bool pipelined_;
  /// FIFO policy with nothing that needs the fleet state at a later
  /// instant: each request is dispatched the moment it is admitted.
  const bool at_admission_;
  const std::size_t min_active_;
  const std::size_t max_active_;
  const std::uint32_t models_ = pool_.num_models();

  AdmissionResult result_;

  template <class T>
  using PerPcu = std::vector<T>;
  /// timing(p, m): row p * models_ + m.
  std::vector<ModelTiming> timing_;
  PerPcu<WarmupPolicy> warmup_policy_ =
      PerPcu<WarmupPolicy>(n_, WarmupPolicy::kRechargeAfterIdle);
  PerPcu<unsigned char> capable_any_ = PerPcu<unsigned char>(n_, 0);
  /// When each PCU finishes its committed work; written only through
  /// set_free_at.
  PerPcu<double> free_at_ = PerPcu<double>(n_, 0.0);
  PerPcu<std::size_t> served_ = PerPcu<std::size_t>(n_, 0);
  /// Model whose weights sit in the banks (kNoModel before the first
  /// dispatch); a dispatch that switches it pays the swap.
  PerPcu<std::uint32_t> programmed_ = PerPcu<std::uint32_t>(n_, kNoModel);
  /// Autoscaler state; without it every PCU stays active.
  PerPcu<unsigned char> active_ = PerPcu<unsigned char>(n_, 0);
  PerPcu<unsigned char> force_cold_ = PerPcu<unsigned char>(n_, 0);
  PerPcu<double> activated_at_ = PerPcu<double>(n_, 0.0);
  std::size_t active_count_ = min_active_;
  /// Pipeline group member: never a target for group-less dispatch and
  /// exempt from autoscaler shrink. All zero unless pipelined.
  PerPcu<unsigned char> reserved_ = PerPcu<unsigned char>(n_, 0);
  // Health state (inert without faults). degrade_mult_ is the worst
  // unrepaired degrade severity — 1.0, a bit-exact no-op, otherwise.
  PerPcu<HealthState> health_ = PerPcu<HealthState>(n_, HealthState::kHealthy);
  PerPcu<double> degrade_mult_ = PerPcu<double>(n_, 1.0);
  /// Pulled from dispatch: quarantined, or failed once detection fires.
  PerPcu<unsigned char> excluded_ = PerPcu<unsigned char>(n_, 0);
  PerPcu<double> health_since_ = PerPcu<double>(n_, 0.0);
  PerPcu<TimerKind> timer_kind_ = PerPcu<TimerKind>(n_, TimerKind::kNone);
  PerPcu<double> timer_at_ = PerPcu<double>(n_, kInf);

  // Pipeline state (kPipeline only). A copy of the pool's groups:
  // quarantine-driven re-placement mutates them mid-run, and a run must
  // stay a pure function of the pool's built state.
  std::vector<PipelineGroup> groups_;
  /// pinned_[g][j]: stage j of group g has paid its one-time pin.
  std::vector<std::vector<unsigned char>> pinned_;
  /// The member subset each group is currently placed over.
  std::vector<std::vector<std::size_t>> last_healthy_;

  // Fault state. Destroyed attempts stay in the schedule as tombstones
  // until the final stable compaction, so live attempts can index it.
  std::vector<unsigned char> cancelled_;
  /// Schedule indices of committed attempts a fault may still destroy (a
  /// whole request, or a chain of pipeline stage spans), in dispatch
  /// order; pruned lazily once dead or complete.
  std::vector<std::size_t> live_;
  /// Requests between loss detection and re-enqueue, keyed by (virtual
  /// time the backoff expires, id) — ids are unique, so the order is total.
  std::map<std::pair<double, std::uint64_t>, PendingRequest> retries_;
  std::size_t fault_cursor_ = 0;

  std::set<PendingRequest, UrgencyOrder> pending_;
  /// Free-time index of a deferred run (empty when dispatching at
  /// admission), kept by set_free_at and advance_to: bit p of free_bits_
  /// is set iff free_at_[p] <= now_, and busy_ holds (free_at_[p], p) for
  /// every other PCU, soonest first.
  std::vector<std::uint64_t> free_bits_;
  std::set<std::pair<double, std::size_t>> busy_;
  /// Untouched PCUs of a deferred run: bit p stays set until touch(p),
  /// before the first write to any of PCU p's fields, so a set bit means
  /// p holds its initial state (and is free).
  std::vector<std::uint64_t> untouched_bits_;
  std::vector<PcuClass> classes_;
  PerPcu<std::size_t> class_of_ = PerPcu<std::size_t>(n_, 0);
  /// Classes with an untouched member.
  std::vector<std::size_t> open_classes_;
  double now_ = 0.0;
  double last_event_ = 0.0;
  double active_integral_ = 0.0; ///< ∫ active count dt, for mean_active
};

} // namespace

AdmissionResult PcuPool::simulate_admission(RequestQueue& queue,
                                            const AdmissionOptions& options) {
  PCNNA_CHECK_MSG(queue.closed(),
                  "simulate_admission needs a closed request stream");
  validate_options(*this, options);
  return AdmissionRun(*this, queue, options).run();
}

} // namespace pcnna::runtime
