// Deterministic fault injection for the serving runtime.
//
// The device layer already models *fabrication* failures (stuck microring
// heaters, WeightBank::fail_ring, measured_usable_range); this header adds
// the *operational* hazards the paper's calibration story implies for a
// long-running fleet: thermal drift that inflates service time until the
// banks are re-trimmed, transient corruption of a single inference, and
// outright PCU loss. Mirroring arrival.hpp, a FaultSchedule is a timestamped
// event list that is reproducible bit-for-bit from its arguments alone —
// generated from a seeded per-PCU Poisson MTBF process (poisson_faults) or
// replayed from a trace file (parse/load_fault_trace).
//
// The admission loop (PcuPool::simulate_admission) consumes a FaultSchedule
// through AdmissionOptions::faults and reacts with health tracking, retry
// with deadline-aware exponential backoff, and quarantine/repair — all in
// virtual time, so every outcome in the FaultReport is deterministic. An
// EMPTY FaultSchedule is the contract for "no fault machinery at all":
// every dispatch policy's schedule stays bit-identical to a run without
// these options (pinned by test_admission_properties.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "runtime/request_queue.hpp"

namespace pcnna::runtime {

/// What a FaultEvent does to its PCU when the virtual clock reaches it.
enum class FaultKind : std::uint8_t {
  /// One-shot corruption: the request in flight on the PCU (if any)
  /// completes on schedule but its output is corrupt, detected at
  /// completion — the classic silent-data-corruption-with-checksum model.
  /// The PCU itself stays healthy.
  kTransient,
  /// Calibration drift: from this instant the PCU's service times are
  /// inflated by FaultEvent::severity and its capability is downgraded
  /// (capability-sensitive policies stop counting it as fully capable).
  /// Persists until quarantine/repair (health-aware mode) or a kRecover
  /// event re-trims it.
  kDegrade,
  /// The PCU dies: the request in flight is lost at fault time, and the
  /// PCU serves nothing until a kRecover event repairs it. Requests
  /// dispatched to it while dead (fault-blind dispatch, or health-aware
  /// dispatch inside the detection-latency window) are lost too.
  kCrash,
  /// External repair completes: the PCU returns to service healthy, banks
  /// freshly re-trimmed (unprogrammed — its next dispatch recalibrates).
  kRecover,
};

const char* fault_kind_name(FaultKind kind);

/// Inverse of fault_kind_name; throws pcnna::Error on an unknown token.
FaultKind parse_fault_kind(const std::string& token);

/// One timed fault on one PCU of the fleet.
struct FaultEvent {
  double time = 0.0;   ///< virtual seconds
  std::size_t pcu = 0; ///< target PCU index (validated against the fleet)
  FaultKind kind = FaultKind::kTransient;
  /// Service-time inflation factor while degraded (>= 1; only meaningful
  /// for kDegrade — generators and the trace format default it to 1).
  double severity = 1.0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Timestamped fault timeline for a whole fleet, sorted by (time, pcu).
/// Valid schedules have finite nonnegative nondecreasing times, severities
/// >= 1, and severity exactly 1 on every event but kDegrade
/// (validate_fault_schedule checks all of these).
using FaultSchedule = std::vector<FaultEvent>;

/// Throw pcnna::Error unless `faults` is sorted by time with finite
/// nonnegative timestamps and severities >= 1, and only kDegrade events
/// carry a severity other than 1. PCU indices are validated
/// against the fleet size by simulate_admission (a schedule is fleet-size
/// agnostic until it meets a pool).
void validate_fault_schedule(const FaultSchedule& faults);

/// Knobs of the seeded Poisson fault generator (poisson_faults).
struct FaultModel {
  /// Mean time between faults per PCU [s]; +inf (the default) generates an
  /// empty schedule. Each PCU runs an independent exponential-gap process.
  double mtbf = std::numeric_limits<double>::infinity();
  /// Generate events in [0, horizon) — typically the arrival schedule's
  /// last timestamp. <= 0 generates an empty schedule.
  double horizon = 0.0;
  /// Relative mix of generated kinds (>= 0 each, sum > 0). kRecover is
  /// never drawn directly — every kCrash emits its own paired kRecover.
  double transient_weight = 1.0;
  double degrade_weight = 1.0;
  double crash_weight = 1.0;
  /// Severity stamped on generated kDegrade events (>= 1).
  double degrade_severity = 1.5;
  /// Mean time to repair a crash [s] (> 0 when crash_weight > 0): each
  /// kCrash is followed by a kRecover after an exponential downtime draw,
  /// during which the dead PCU generates no further faults.
  double mean_time_to_repair = 0.0;
};

/// Seeded per-PCU Poisson fault process: each PCU p draws exponential
/// inter-fault gaps at rate 1/mtbf from its own Rng stream (seed mixed with
/// p via derive_request_seed, so fleets of different sizes share per-PCU
/// streams), picks the kind by a weighted draw, and pairs every crash with
/// a kRecover after an exponential mean_time_to_repair downtime. The merged
/// schedule is deterministic in (num_pcus, model, seed) alone.
FaultSchedule poisson_faults(std::size_t num_pcus, const FaultModel& model,
                             std::uint64_t seed);

/// Parse a fault trace: one event per line as
///   <time> <pcu> <kind> [severity]
/// with kind in {transient, degrade, crash, recover}; blank lines and lines
/// starting with '#' are ignored. Throws pcnna::Error naming the offending
/// line number on malformed lines, a PCU index that is not a nonnegative
/// integer, out-of-order timestamps, invalid severities, or a severity
/// other than 1 on a non-degrade event — so every accepted trace writes
/// back (write_fault_trace) to one that parses to the same bits.
FaultSchedule parse_fault_trace(std::istream& in);

/// parse_fault_trace over the contents of `path`. Throws on I/O failure.
FaultSchedule load_fault_trace(const std::string& path);

/// Write `faults` in the format parse_fault_trace reads, with full
/// round-trip precision (max_digits10), preceded by a '#' header comment.
void write_fault_trace(std::ostream& out, const FaultSchedule& faults);

/// Retry discipline for lost or corrupted requests, charged in virtual
/// time. Attempt k's re-enqueue is delayed by backoff_base *
/// backoff_factor^(k-1) after the loss is detected, capped so the retry
/// could still start early enough to meet a finite deadline on the fastest
/// capable PCU (deadline-aware backoff — sleeping past the point of no
/// return is never useful). A request that exhausts max_retries is
/// permanently lost (FaultReport::losses); one whose retry still cannot
/// meet its deadline flows into the ordinary shed_expired path at dispatch.
struct RetryPolicy {
  /// Re-dispatch budget per request beyond the first attempt.
  std::size_t max_retries = 3;
  /// First-retry delay [s]; 0 retries the instant the loss is detected.
  double backoff_base = 0.0;
  /// Multiplier per additional attempt (>= 1).
  double backoff_factor = 2.0;
};

/// Fault-tolerance configuration of one admission run. Default-constructed
/// (empty schedule) means every fault code path is bypassed entirely —
/// the bit-identity contract.
struct FaultOptions {
  /// The fault timeline to inject. Empty disables all fault machinery.
  FaultSchedule schedule;
  /// Health-aware dispatch: detected-crashed and quarantined PCUs are
  /// pulled from dispatch, lost/corrupted requests are retried (per
  /// `retry`), and detected degrades trigger quarantine/repair. False is
  /// the fault-blind baseline: faults still strike, but the dispatcher
  /// keeps routing to dead PCUs, nothing is retried or quarantined, and
  /// every request a crash touches is permanently lost. Only an external
  /// kRecover event repairs a PCU (and counts as a repair) in a blind run.
  bool health_aware = true;
  /// Delay [s] between a fault striking and the health system acting on
  /// it: a crash's loss is noticed (and its retry clock started) only at
  /// detection, and dispatches inside the window still go to — and die
  /// on — the failed PCU; a degrade is quarantined only at detection.
  double detection_latency = 0.0;
  /// Retry discipline for lost/corrupted requests (health-aware only).
  RetryPolicy retry;
  /// Fixed extra repair time [s] a quarantined PCU pays on top of the full
  /// recalibration (Pcu::swap_time of its programmed model).
  double repair_time = 0.0;

  bool enabled() const { return !schedule.empty(); }
};

/// Health of one PCU as tracked by the admission loop.
enum class HealthState : std::uint8_t {
  kHealthy,     ///< in service, nominal timing
  kDegraded,    ///< in service, service inflated / capability downgraded
  kQuarantined, ///< pulled from dispatch, draining + paying repair
  kFailed,      ///< dead (crash) until its kRecover event
};

const char* health_state_name(HealthState state);

/// One service attempt a fault destroyed: the span the PCU was (believed)
/// occupied and the kind of fault that killed it.
struct FaultedAttempt {
  std::uint64_t id = 0;
  std::size_t pcu = 0;
  double start = 0.0; ///< [s]
  double end = 0.0;   ///< loss time: crash instant or corrupt completion [s]
  FaultKind fault = FaultKind::kTransient;
  /// 1-based attempt number of the destroyed attempt.
  std::uint32_t attempt = 1;
};

/// One permanently lost request: every attempt (within the retry budget)
/// was destroyed, or the fleet died with it still pending.
struct RequestLoss {
  std::uint64_t id = 0;
  std::uint32_t tenant = 0;
  PriorityClass priority = PriorityClass::kStandard;
  double arrival = 0.0; ///< [s]
  double time = 0.0;    ///< virtual time the loss became final [s]
  /// Service attempts that were made (0 when the fleet died first).
  std::uint32_t attempts = 0;
};

/// Per-PCU health outcome of one admission run. Durations partition the
/// makespan; availability is the dispatchable fraction.
struct PcuHealthStats {
  std::size_t transients = 0;  ///< kTransient events applied to this PCU
  std::size_t degrades = 0;    ///< kDegrade events that took effect
  std::size_t crashes = 0;     ///< kCrash events that took effect
  std::size_t quarantines = 0; ///< detected degrades pulled from dispatch
  std::size_t repairs = 0;     ///< completed repairs (quarantine + recover)
  double healthy_time = 0.0;     ///< [s]
  double degraded_time = 0.0;    ///< [s]
  double quarantined_time = 0.0; ///< [s]
  double failed_time = 0.0;      ///< [s]
  /// (healthy_time + degraded_time) / makespan; 1 when the makespan is 0.
  double availability = 1.0;
  std::size_t lost_attempts = 0; ///< service attempts destroyed on this PCU
  double lost_time = 0.0;        ///< PCU time those attempts wasted [s]
};

/// Fault-tolerance outcome of one admission run, threaded into
/// OpenLoopReport. Trivial (all zero / empty) when no faults were injected.
struct FaultReport {
  /// Fault events the run applied (events past the end of the simulated
  /// timeline are never reached and not counted).
  std::size_t injections = 0;
  /// Requests whose output a kTransient corrupted (detected at completion).
  std::size_t transient_corruptions = 0;
  /// Service attempts destroyed by a dead PCU (in flight at the crash, or
  /// dispatched to it while down).
  std::size_t crash_losses = 0;
  /// Re-enqueues the retry policy issued.
  std::size_t retries = 0;
  /// Requests served successfully after at least one destroyed attempt.
  std::size_t recovered_requests = 0;
  /// Requests permanently lost (retry budget exhausted, or fleet death).
  std::size_t lost_requests = 0;
  std::size_t quarantines = 0; ///< fleet-total quarantine entries
  std::size_t repairs = 0;     ///< fleet-total completed repairs
  /// Virtual time PCUs spent paying quarantine repairs [s].
  double repair_time = 0.0;
  /// Every destroyed attempt, in loss order.
  std::vector<FaultedAttempt> attempts;
  /// Every permanent loss, in loss order.
  std::vector<RequestLoss> losses;
  /// Per-PCU health breakdown, aligned with PCU indices (empty when no
  /// faults were injected).
  std::vector<PcuHealthStats> per_pcu;
};

} // namespace pcnna::runtime
