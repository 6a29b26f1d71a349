// Fleet of PCUs draining a shared RequestQueue — homogeneous or
// heterogeneous.
//
// A PcuPool is built from a vector of PcuSpec, one per PCU: its own
// PcnnaConfig (engine threads included), warmup policy, and capability tag.
// PCNNA's throughput is set by per-device budgets — ring counts per weight
// bank, DAC counts, WDM channel limits — so a realistic fleet mixes
// big-budget PCUs for wide layers with small cheap ones.
//
// Two jobs, deliberately separated:
//
//  * Physical simulation (serve_all / serve_scheduled): worker threads do
//    the functional inference work on the host. Each Pcu is owned by
//    exactly one worker thread for the duration of a call — workers never
//    share a Pcu, so Pcu::serve needs no locking; distinct Pcus serve
//    concurrently. In the homogeneous serve_all mode, workers pull
//    requests off the queue dynamically (a slow host thread simply grabs
//    fewer) — safe because every request carries its own engine seed, so
//    sharding changes only *who* computes a result, never the result.
//    serve_scheduled instead follows the deterministic virtual-time
//    schedule — whole requests and pipeline stage spans alike — because
//    PCUs with different device models produce different (all valid)
//    outputs, and because shedding, faults, and pipelines decide which
//    PCU runs what.
//
//  * Timing accounting (simulate_admission): a single-threaded,
//    deterministic virtual-time loop that replays the request stream
//    against its arrival timestamps, charges each request its queueing
//    delay, and dispatches by a pluggable DispatchPolicy. All reported
//    latency/throughput numbers come from this schedule, never from host
//    thread interleaving.
#pragma once

#include <cstddef>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "nn/network.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/pcu.hpp"
#include "runtime/request_queue.hpp"

namespace pcnna::runtime {

class Telemetry;

/// Construction recipe for one PCU of a (possibly heterogeneous) fleet.
struct PcuSpec {
  /// This PCU's hardware model: ring/WDM budgets, DAC/ADC counts,
  /// fidelity-limiting impairments, and its intra-image engine threads —
  /// everything core::PcnnaConfig holds.
  core::PcnnaConfig config;
  /// Pipeline-fill accounting for this PCU on the double-buffered schedule.
  WarmupPolicy warmup = WarmupPolicy::kRechargeAfterIdle;
  /// Free-form capability label ("big", "edge", ...) surfaced in per-PCU
  /// report breakdowns; never interpreted by the runtime.
  std::string tag;
};

/// How simulate_admission picks a PCU for each admitted request. Every
/// policy is deterministic: candidates are scored from the (deterministic)
/// virtual-time state only, ties break toward the lowest PCU index.
enum class DispatchPolicy {
  /// Dispatch to the PCU whose previous work finishes earliest — the
  /// pre-heterogeneous behavior, and the bit-compatibility default. Blind
  /// to per-PCU speed: on a mixed fleet an idle slow PCU wins over a
  /// nearly-free fast one even when the fast one would complete sooner.
  kEarliestFree,
  /// Dispatch to the PCU that would *complete* the request earliest,
  /// scoring max(arrival, free) + service (warmup included per the PCU's
  /// policy). On a homogeneous fleet of equal state this matches
  /// kEarliestFree; on a mixed fleet it routes work to fast PCUs until
  /// their backlog makes a slow PCU competitive.
  kLeastLoaded,
  /// kLeastLoaded restricted to *capable* PCUs: those whose WDM/ring
  /// budget maps the served network with the fleet-minimum number of
  /// segmented bank passes (Pcu::channel_split_passes). PCUs that would
  /// need extra splits — and therefore extra passes, ADC samples, and
  /// time — are skipped entirely.
  kCapabilityAware,
  /// Class-partitioned earliest-deadline-first: among every request that
  /// has *arrived but not yet started*, dispatch the most urgent one —
  /// strictly by PriorityClass, then by earliest absolute deadline, then
  /// by arrival and id — to the free PCU with the earliest predicted
  /// completion, as soon as one is free. Unlike the FIFO policies above, a
  /// later arrival with a tighter deadline overtakes queued work, so
  /// dispatch commitments are deferred to the moment a PCU actually frees
  /// (deferred dispatch; see simulate_admission).
  kEdf,
  /// Swap-aware multi-model dispatch. Prefers a free PCU already
  /// programmed with the request's model (zero swap); when every affine
  /// PCU is busy, the request *waits for one* as long as waiting neither
  /// blows its deadline nor finishes later than swapping onto the best
  /// free capable PCU right now — otherwise it falls back to
  /// least-loaded-capable and pays the swap. Requests are considered in
  /// the same urgency order as kEdf (class, deadline, arrival, id), so a
  /// run without SLO metadata degenerates to FIFO with model reordering;
  /// shedding and the autoscaler compose unchanged. The only policy whose
  /// completion predictions include the swap charge — the legacy policies
  /// are deliberately model-blind (that asymmetry is what the multi-model
  /// bench measures). Always deferred: deferral decisions need the
  /// fleet state at the moment a PCU frees.
  kModelAffinity,
  /// Pipeline-parallel serving. A request whose model has a PipelineGroup
  /// (see PcuPool::build_pipeline) is routed to the group's head stage as
  /// soon as the head PCU is free; its service is the chain of per-stage
  /// spans — stage n of image i overlapping stage n-1 of image i+1 — with
  /// the inter-stage activation hand-off charged at every boundary. Stage
  /// banks are pinned: the first image through a stage pays its pin and
  /// the group never swaps afterwards. Requests whose model has no group
  /// (or whose group lost every healthy member) fall back to least-loaded
  /// over the PCUs no group reserves. Pending requests are considered in
  /// EDF urgency order, and shedding, the autoscaler (reserved PCUs are
  /// held active), and fault quarantine compose — a quarantined or
  /// crashed stage PCU triggers a deterministic re-placement of the group
  /// over its remaining healthy members. Always deferred.
  kPipeline,
};

const char* dispatch_policy_name(DispatchPolicy policy);

/// All built-in policies, in enum order (for sweeps over policies).
inline constexpr DispatchPolicy kAllDispatchPolicies[] = {
    DispatchPolicy::kEarliestFree, DispatchPolicy::kLeastLoaded,
    DispatchPolicy::kCapabilityAware, DispatchPolicy::kEdf,
    DispatchPolicy::kModelAffinity, DispatchPolicy::kPipeline};

/// One pinned stage of a PipelineGroup: a contiguous op range of the
/// group's model resident on one PCU. Timing constants come from that
/// PCU's Pcu::stage_timings and are refreshed on re-placement.
struct PipelineStage {
  std::size_t pcu = 0;
  std::size_t op_begin = 0;
  std::size_t op_end = 0;
  /// Partitioner balance cost of the range (channel_split_passes share).
  std::size_t cost = 0;
  StageTimings timings;
};

/// A model pinned across a chain of PCUs, one contiguous layer range each.
/// Built by PcuPool::build_pipeline; DispatchPolicy::kPipeline routes the
/// model's requests through it head-first.
struct PipelineGroup {
  std::uint32_t model = 0;
  /// Inter-stage activation hand-off charged at each stage boundary [s]
  /// (the feature map leaves stage n's DRAM and enters stage n+1's).
  double handoff_time = 0.0;
  /// The PCUs this group may place stages on (the build-time set, fixed).
  std::vector<std::size_t> members;
  /// Per-op partition weights (priced on the strongest member at build).
  std::vector<std::size_t> op_costs;
  /// Current placement, head first. Re-placement after quarantine keeps
  /// `members`/`op_costs` and rebuilds this vector deterministically;
  /// empty when no member is healthy (the group is down).
  std::vector<PipelineStage> stages;
};

/// One stage's span inside a pipelined request's service — the per-stage
/// breakdown of a ScheduledService whose model ran on a PipelineGroup.
struct StageService {
  std::size_t stage = 0; ///< stage index within the group
  std::size_t pcu = 0;   ///< PCU the stage ran on
  std::size_t op_begin = 0; ///< op range the stage ran
  std::size_t op_end = 0;
  double start = 0.0;      ///< [s]
  double completion = 0.0; ///< [s]
  /// One-time bank pin charged inside this span [s]; 0 once the stage is
  /// warm (a pinned stage never re-pays it and never swaps).
  double pin = 0.0;
  /// Activation hand-off charged between the previous stage's completion
  /// and this span's start [s]; 0 for the head stage.
  double handoff = 0.0;
};

/// Pipeline outcome of one admission run (zeros without pipeline groups).
struct PipelineStats {
  std::size_t groups = 0;            ///< groups configured on the pool
  std::size_t pipelined_requests = 0;///< requests served through a group
  std::size_t stage_spans = 0;       ///< total per-stage spans committed
  std::size_t replacements = 0;      ///< deterministic stage re-placements
  double pin_time = 0.0;             ///< Σ pins charged [s]
  double handoff_time = 0.0;         ///< Σ hand-offs charged [s]
};

/// One request's place in the deterministic virtual-time schedule.
/// All times are simulated seconds; queueing delay is start - arrival,
/// sojourn (reported request latency) is completion - arrival.
struct ScheduledService {
  std::uint64_t id = 0;
  std::size_t pcu = 0;     ///< virtual PCU the request was dispatched to
  double arrival = 0.0;    ///< [s]
  double start = 0.0;      ///< service start: max(arrival, PCU free) [s]
  double completion = 0.0; ///< [s]
  /// Pipeline-fill warmup charged inside [start, completion] [s]; 0 on the
  /// serial (non-double-buffered) schedule and within warm streaks.
  double warmup = 0.0;
  // Serving metadata carried through from the InferenceRequest so reports
  // can break the schedule down per tenant / priority / SLO.
  std::uint32_t tenant = 0;
  PriorityClass priority = PriorityClass::kStandard;
  double deadline = std::numeric_limits<double>::infinity(); ///< [s]
  /// Registered model the request ran (InferenceRequest::model_id).
  std::uint32_t model = 0;
  /// Weight-bank swap charged inside [start, completion] because this
  /// dispatch switched the PCU's programmed model [s]; 0 when the PCU was
  /// already programmed with `model` (or on the serial schedule, which
  /// pays every recalibration inline).
  double swap = 0.0;
  /// True when this dispatch reprogrammed the PCU from a *different*
  /// model. Distinct from swap > 0: under TimingFidelity::kPaper
  /// recalibration is free, so a real switch can charge zero seconds.
  bool swapped = false;
  /// 1-based service attempt this entry records. > 1 means injected faults
  /// destroyed earlier attempts and this is the retry that finally served
  /// the request (always 1 without fault injection).
  std::uint32_t attempts = 1;
  /// Per-stage spans when this request ran on a PipelineGroup (pcu is then
  /// the head stage's PCU, start/completion the chain's ends, and warmup
  /// the total pin charged across stages). Empty for non-pipelined
  /// service.
  std::vector<StageService> stages;
};

/// Elastic fleet sizing for the admission loop. When enabled, dispatch
/// sees only the *active* subset of the pool: the loop grows the set
/// (lowest inactive index first) when the pending backlog exceeds
/// backlog_per_pcu requests per active PCU, and shrinks it (highest
/// active index first, never below min_active) when a PCU has sat idle
/// for shrink_after_idle simulated seconds. A (re)activated PCU is forced
/// cold: its next request pays the pipeline-fill warmup regardless of its
/// WarmupPolicy — the cold-start cost the autoscaler has to reason about.
/// Enabling the autoscaler defers dispatch (see simulate_admission).
struct AutoscalerPolicy {
  bool enabled = false;
  /// Lower bound on the active set; the initial active set is the
  /// min_active lowest-indexed PCUs. Must be >= 1 and <= max_active.
  std::size_t min_active = 1;
  /// Upper bound on the active set; 0 means the whole pool.
  std::size_t max_active = 0;
  /// Scale up when pending requests > backlog_per_pcu * active count.
  double backlog_per_pcu = 2.0;
  /// Deactivate a PCU idle at least this long [s]; <= 0 disables
  /// shrinking. Idleness is evaluated at admission events, so an idle PCU
  /// is deactivated at the first event past the threshold.
  double shrink_after_idle = 0.0;
};

/// Everything that shapes one admission-loop run of simulate_admission.
struct AdmissionOptions {
  /// Price service as the double-buffered steady-state interval plus
  /// warmup (true) or the serial request time (false).
  bool double_buffer = true;
  DispatchPolicy policy = DispatchPolicy::kEarliestFree;
  /// Load shedding: reject a request at the moment it would be dispatched
  /// if the predicted completion of that dispatch would exceed the
  /// request's deadline, instead of serving it late. Shed requests occupy
  /// no PCU time and are reported in AdmissionResult::shed. Requests
  /// without a deadline (+inf) are never shed. Forces deferred dispatch.
  bool shed_expired = false;
  AutoscalerPolicy autoscaler;
  /// Fault injection and tolerance: a timed FaultSchedule to replay plus
  /// health-aware dispatch, retry-with-backoff, and quarantine/repair
  /// knobs (see fault_plan.hpp). The default (empty schedule) bypasses
  /// every fault code path — the resulting schedule is bit-identical to a
  /// run without fault machinery for every dispatch policy. A non-empty
  /// schedule forces deferred dispatch.
  FaultOptions faults;
  /// Opt-in observability (runtime/telemetry.hpp). Borrowed; may be null
  /// (the default — telemetry off). When set, the loop feeds it read-only
  /// hooks and records the finished result; the schedule itself is
  /// bitwise identical either way (observation, not perturbation).
  Telemetry* telemetry = nullptr;
};

/// One load-shedding decision: the request that was rejected and when.
struct ShedDecision {
  std::uint64_t id = 0;
  std::uint32_t tenant = 0;
  PriorityClass priority = PriorityClass::kStandard;
  double arrival = 0.0;       ///< [s]
  double deadline = 0.0;      ///< the SLO it would have missed [s]
  double decision_time = 0.0; ///< virtual time the shed was decided [s]
};

/// Load-shedding outcome of one admission run.
struct ShedReport {
  std::size_t shed = 0; ///< total rejected requests
  /// Rejections per tenant id (only tenants with at least one shed).
  std::map<std::uint32_t, std::size_t> per_tenant;
  /// Every decision, in shed order.
  std::vector<ShedDecision> decisions;
};

/// Elastic-sizing outcome of one admission run.
struct AutoscalerStats {
  std::size_t scale_ups = 0;   ///< PCU activations (cold starts charged)
  std::size_t scale_downs = 0; ///< PCU deactivations
  /// Time-averaged active-set size over [0, makespan]. Without the
  /// autoscaler: exactly the pool size when requests are dispatched at
  /// admission; a deferred run integrates the constant, which can round
  /// in the last bits.
  double mean_active = 0.0;
};

/// Full result of one admission-loop run: the deterministic virtual-time
/// schedule of the *served* requests plus shedding and sizing outcomes.
struct AdmissionResult {
  std::vector<ScheduledService> schedule;
  ShedReport shed;
  AutoscalerStats autoscaler;
  /// Fault-tolerance outcome (trivial when AdmissionOptions::faults is
  /// empty). Requests in `fault.losses` appear in no schedule entry.
  FaultReport fault;
  /// Pipeline-parallel outcome (zeros unless groups are configured and
  /// the policy is DispatchPolicy::kPipeline).
  PipelineStats pipeline;
};

class PcuPool {
 public:
  /// Build one PCU per spec, serving `net`. `net`/`weights` are borrowed
  /// and must outlive the pool; `specs` is consumed. `fidelity` applies
  /// fleet-wide (it selects the timing *model*, not a device budget).
  /// Throws if `specs` is empty, `weights` do not fit `net`
  /// (nn::validate_weights) or a spec fails PcnnaConfig::validate ("PCU 3:
  /// bank.ring.q_factor = 0.5 must be > 1"), all checked before any PCU is
  /// built, or if any spec's config cannot map the network (SRAM overflow).
  PcuPool(std::vector<PcuSpec> specs, core::TimingFidelity fidelity,
          const nn::Network& net, const nn::NetWeights& weights);

  std::size_t size() const { return pcus_.size(); }
  const Pcu& pcu(std::size_t i) const { return pcus_[i]; }
  Pcu& pcu(std::size_t i) { return pcus_[i]; }

  /// Register another model on every PCU of the fleet (borrowed;
  /// net/weights must outlive the pool). Returns the new model id — dense,
  /// starting at 1; id 0 is the primary model the pool was built with.
  /// Requests carry their target via InferenceRequest::model_id, and the
  /// admission loop charges a weight-bank swap whenever a dispatch
  /// switches a PCU's programmed model (see Pcu::swap_time). Throws,
  /// registering nothing, if `weights` do not fit `net`.
  std::uint32_t register_model(const nn::Network& net,
                               const nn::NetWeights& weights);

  /// Number of registered models (>= 1).
  std::size_t num_models() const { return min_split_passes_.size(); }

  /// True when every PCU was built from the same device model (spec
  /// configs equal up to engine threads). Homogeneous pools may shard
  /// functional work dynamically; heterogeneous ones must serve on the
  /// scheduled PCU (serve_scheduled).
  bool homogeneous() const { return homogeneous_; }

  /// Fleet-minimum Pcu::channel_split_passes for one model — the bar a
  /// PCU must meet to be *capable* of that model under
  /// DispatchPolicy::kCapabilityAware and for kModelAffinity's
  /// least-loaded-capable fallback.
  std::size_t min_split_passes(std::uint32_t model = 0) const {
    return min_split_passes_.at(model);
  }

  /// Build a pipeline group for `model` over `pcus`: core::StagePartitioner
  /// splits the model into pcus.size() contiguous op ranges balanced by
  /// channel_split_passes (costs priced on the strongest member), and the
  /// capability assignment gives the heaviest stage to the strongest PCU —
  /// steering small-core members to light stages. `handoff_time` is the
  /// activation hand-off charged per stage boundary [s]. Returns the group
  /// index. At most one group per model; a PCU may belong to at most one
  /// group (its banks are pinned to that group's stage). Only
  /// DispatchPolicy::kPipeline consults groups — every other policy
  /// ignores them entirely.
  std::size_t build_pipeline(std::uint32_t model,
                             const std::vector<std::size_t>& pcus,
                             double handoff_time = 0.0);

  std::size_t num_pipelines() const { return groups_.size(); }
  const PipelineGroup& pipeline(std::size_t group) const {
    return groups_.at(group);
  }
  /// The group serving `model`, or nullptr if none was built for it.
  const PipelineGroup* pipeline_for_model(std::uint32_t model) const;

  /// Re-place a group's stages over `candidates` (healthy members):
  /// re-partition op_costs into min(members, candidates) ranges, reassign
  /// heaviest-stage-to-strongest-PCU, and refresh stage timings from the
  /// owning PCUs. Clears g.stages when `candidates` is empty. Pure
  /// function of (g.members ∩ candidates) — the deterministic
  /// re-placement the admission loop runs when a stage PCU is quarantined
  /// (on a *copy* of the group; the pool's own groups never mutate).
  void place_pipeline(PipelineGroup& g,
                      const std::vector<std::size_t>& candidates) const;

  /// Drain `queue` with one worker thread per PCU and return the results
  /// ordered by request id. Work is sharded dynamically, which is only
  /// output-safe on a homogeneous pool (any PCU computes the same bits for
  /// a given request); throws pcnna::Error on a heterogeneous pool — use
  /// serve_scheduled there. Requests must have dense ids in
  /// [0, expected_requests); the queue must already be closed (or be
  /// closed by a concurrent producer) for the call to terminate. Rethrows
  /// the first worker exception after all threads join.
  std::vector<RequestResult> serve_all(RequestQueue& queue,
                                       std::size_t expected_requests,
                                       bool simulate_values);

  /// Serve `requests` on exactly the PCUs the virtual-time `schedule`
  /// assigned (one worker thread per PCU). An entry without stage spans
  /// runs whole on its PCU; an entry with stage spans runs as a chain —
  /// every stage executes on exactly the PCU its span names, handing the
  /// activation to the next stage (Pcu::serve_stage), so stage n of image
  /// i really does overlap stage n-1 of image i+1 on the host. Each worker
  /// walks its own work in virtual span-start order (ties in schedule
  /// order), which the admission loop makes acyclic. Deterministic even on
  /// a heterogeneous pool: the schedule is deterministic, so the same PCU —
  /// hence the same device model — produces each output every run.
  ///
  /// `schedule` must reference request ids in [0, requests.size()), each
  /// at most once; ids absent from the schedule (load-shed or fault-lost
  /// requests) come back as empty placeholder results that still carry
  /// their id, model_id, and tenant (so per-tenant / per-model accounting
  /// stays correct). Results come back ordered by request id. Rethrows the
  /// first worker exception after all threads join.
  std::vector<RequestResult> serve_scheduled(
      std::vector<InferenceRequest> requests,
      const std::vector<ScheduledService>& schedule, bool simulate_values);

  /// Clocked admission loop in virtual time — the single source of truth
  /// for every reported latency/throughput number.
  ///
  /// Advances a virtual clock along the arrival timeline; at each step it
  /// admits (pop_arrived) every request that has arrived and dispatches it
  /// to the PCU `policy` selects (ties broken toward the lowest index),
  /// charging the queueing delay start - arrival before service begins.
  /// Service time per request:
  ///
  ///  * double_buffer: the dispatched PCU's steady-state overlapped
  ///    interval, plus its pipeline-fill warmup when its WarmupPolicy says
  ///    the pipeline is cold — by default on the PCU's first request and
  ///    again after any idle gap (start > previous free time), because the
  ///    recalibration overlap only spans back-to-back requests.
  ///  * !double_buffer: the PCU's serial request time, no warmup (each
  ///    layer pays its own recalibration inline).
  ///
  /// Preconditions: `queue` is closed and holds requests in nondecreasing
  /// arrival_time order (push() enforces this). The queue is drained.
  /// Single-threaded and deterministic: identical inputs and options yield
  /// a bitwise-identical schedule.
  ///
  /// One event loop (runtime/admission.cpp) with one per-policy scorer
  /// and one commit; only the moment of dispatch depends on the options:
  ///
  ///  * At admission (kEarliestFree, kLeastLoaded, kCapabilityAware with
  ///    no shedding, autoscaler or faults): each request is dispatched the
  ///    moment it is admitted. Exact because FIFO dispatch scores depend
  ///    only on deterministic per-PCU free times — a later arrival can
  ///    never change an earlier commitment.
  ///  * Deferred (kEdf, kModelAffinity, kPipeline, shed_expired,
  ///    autoscaler.enabled, or a non-empty fault schedule): arrived
  ///    requests wait in a pending set and commitments are deferred to the
  ///    moment a PCU frees, because EDF lets a later tighter-deadline
  ///    arrival overtake, affinity may hold a request for a busy PCU
  ///    programmed with its model, shedding is decided at the would-start
  ///    moment, the active PCU set itself varies over time, and faults
  ///    change PCU health mid-run.
  ///
  /// The one remaining difference is which PCUs are candidates: a
  /// dispatch at admission may commit to a busy PCU (the request then
  /// starts when that PCU frees), a deferred one considers only PCUs free
  /// at that instant. kEarliestFree picks the same PCU either way.
  /// kLeastLoaded and kCapabilityAware may not on a mixed fleet — a busy
  /// fast PCU can still finish first — so an option that only defers
  /// (shedding with no deadlines, say) can move their work.
  ///
  /// Cost: a deferred run indexes the PCUs by free time (a bitset of the
  /// PCUs free now plus an ordered set of the busy ones), so a dispatch
  /// scans only the free PCUs: O(free PCUs + log n) per request, which is
  /// O(log n) on an overloaded fleet (under 1 µs per request on 1,024
  /// PCUs under kEdf with shedding, 4-vCPU x86-64 host). Dispatch at
  /// admission keeps the O(n) scan, because every PCU is a candidate
  /// there. kModelAffinity's scan for a busy affine PCU, the
  /// degraded-capability check and the next health timer under faults,
  /// and the autoscaler's shrink/grow scans stay linear too; no workload
  /// runs them on a large fleet.
  ///
  /// Fault tolerance (options.faults, see fault_plan.hpp): the loop
  /// replays the FaultSchedule against the same virtual clock. Transients
  /// corrupt the in-flight request (detected at its completion); crashes
  /// lose the in-flight request at fault time and kill the PCU until its
  /// kRecover; degrades inflate the PCU's service times (and downgrade its
  /// capability under the capability-sensitive policies) until detection
  /// quarantines it for a full recalibration repair. Lost/corrupted
  /// requests re-enqueue with deadline-aware exponential backoff and
  /// re-dispatch to a healthy capable PCU, keeping their id (hence their
  /// per-request seed: a successful retry is bit-identical to an
  /// undisturbed serve). Retries that cannot meet
  /// their deadline flow into the ordinary shed_expired path; requests
  /// that exhaust the retry budget — or outlive the whole fleet — land in
  /// AdmissionResult::fault.losses and appear in no schedule entry.
  ///
  /// Multi-model accounting (any mode): each PCU tracks its programmed
  /// model; a dispatch that switches it charges Pcu::swap_time(model)
  /// instead of the warmup (the swap is the full serial reprogram and
  /// subsumes the pipeline fill). A PCU's very first programming is free
  /// of swap — there is no outgoing model to tear down — and the serial
  /// (!double_buffer) schedule never charges swaps at all, because every
  /// layer already pays its recalibration inline on every request.
  ///
  /// Returns the schedule of *served* requests in dispatch order plus the
  /// shed, autoscaler, and fault outcomes; without shedding or fault
  /// injection the schedule covers every request.
  AdmissionResult simulate_admission(RequestQueue& queue,
                                     const AdmissionOptions& options);

 private:
  std::vector<Pcu> pcus_;
  bool homogeneous_ = true;
  /// Fleet-minimum split passes, one entry per registered model.
  std::vector<std::size_t> min_split_passes_;
  /// Pipeline groups (at most one per model; see build_pipeline).
  std::vector<PipelineGroup> groups_;
};

} // namespace pcnna::runtime
