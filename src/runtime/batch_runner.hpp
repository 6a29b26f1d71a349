// Batch-parallel inference runner: the top-level serving API.
//
// A BatchRunner owns one model (Network + NetWeights) and a PcuPool —
// either N identical accelerator replicas (homogeneous constructor) or an
// arbitrary mixed fleet built from a PcuSpec vector (heterogeneous
// constructor: per-PCU PcnnaConfig, warmup policy, capability tag). Two
// entry points share the machinery:
//
//  * run() — closed batch: the whole workload is present at t = 0. Returns
//    outputs in request order plus a fleet-level FleetReport.
//
//  * run_open_loop() / simulate_open_loop() — open loop: each request
//    carries an arrival timestamp (runtime/arrival.hpp generates Poisson,
//    trace-replay, or uniform schedules) and optionally SLO metadata and a
//    model target; the admission loop charges its queueing delay in
//    virtual time, and the OpenLoopReport summarizes the latency
//    distribution (p50/p90/p99/p999), per-PCU utilization, mean queue
//    depth, and offered vs. achieved throughput. The closed batch is
//    exactly the degenerate all-at-t=0 arrival schedule.
//
// Two clocks are deliberately separated:
//
//  * Host wall-clock decides which physical worker simulates which request.
//    On a homogeneous fleet without shedding, faults, or pipelines this is
//    dynamic sharding (PcuPool::serve_all: a slow host core simply grabs
//    fewer requests) and affects nothing but load balancing of the
//    simulation work itself. Otherwise the physical assignment follows the
//    deterministic virtual-time schedule (PcuPool::serve_scheduled),
//    because PCUs with different device models produce different — all
//    valid — output bits, "which PCU served request i" must not depend on
//    host timing, and the schedule decides which requests run at all.
//
//  * Simulated hardware time is accounted by the deterministic virtual-time
//    admission loop (PcuPool::simulate_admission): requests are admitted in
//    arrival order (or by deadline urgency under kEdf) and dispatched by
//    BatchRunnerOptions::dispatch (earliest-free, least-loaded,
//    capability-aware, EDF, model affinity, or pipeline). With
//    shed_expired the loop load-sheds requests that cannot meet their
//    deadline; with options.autoscaler the active fleet grows and shrinks
//    against backlog. All reported latency / throughput / energy numbers
//    come from this schedule, so reports are reproducible run to run and
//    machine to machine.
//
// Every serving-configuration knob on this page is cataloged in
// docs/configuration.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/report.hpp"
#include "core/config.hpp"
#include "nn/network.hpp"
#include "nn/tensor.hpp"
#include "runtime/arrival.hpp"
#include "runtime/pcu_pool.hpp"

namespace pcnna::runtime {

struct BatchRunnerOptions {
  /// Number of replicated photonic conv units (and host worker threads).
  /// Used by the homogeneous constructor only; the heterogeneous
  /// constructor takes its fleet size from the PcuSpec vector.
  std::size_t num_pcus = 1;
  /// Timing fidelity of every PCU's accelerator model. kFull exposes the
  /// weight-load / settle costs that double buffering hides; under kPaper
  /// recalibration is free and the overlap is a no-op.
  core::TimingFidelity fidelity = core::TimingFidelity::kFull;
  /// Push values through the photonic functional model (true) or compute
  /// them on the golden CPU path while still pricing the hardware (false).
  bool simulate_values = true;
  /// Account weight-bank recalibration as double-buffered against optical
  /// compute (the Fig. 4 overlap lifted to the request stream).
  bool double_buffer = true;
  /// How the admission loop picks a PCU for each admitted request
  /// (see runtime::DispatchPolicy). The default reproduces the
  /// pre-heterogeneous earliest-free behavior bit for bit.
  DispatchPolicy dispatch = DispatchPolicy::kEarliestFree;
  /// Load shedding: reject a request whose predicted completion would
  /// exceed its deadline instead of serving it late
  /// (AdmissionOptions::shed_expired). Shed requests come back as id-only
  /// placeholder results with RequestResult::shed set.
  bool shed_expired = false;
  /// Elastic fleet sizing of the admission loop (see AutoscalerPolicy);
  /// disabled by default — the whole fleet is always active.
  AutoscalerPolicy autoscaler;
  /// Fault injection + tolerance (runtime/fault_plan.hpp): a non-empty
  /// faults.schedule turns on health tracking, retry with backoff, and
  /// quarantine/repair in the admission loop. The default (empty schedule)
  /// keeps every serving path bit-identical to a fault-free build.
  FaultOptions faults;
  /// Opt-in observability (runtime/telemetry.hpp). Borrowed; may be null
  /// (the default — telemetry off). When set, open-loop runs record
  /// per-request spans, dispatch/engine metrics, and the finished report
  /// into it; every schedule, output, and report stays bitwise identical
  /// either way. One Telemetry per concurrently running fleet.
  Telemetry* telemetry = nullptr;
  /// Base seed; per-request engine seeds derive from it (SplitMix64), so
  /// the whole batch is reproducible from this one number.
  std::uint64_t seed = 1;
  /// Intra-image engine threads per PCU (> 0 overrides each spec's
  /// config.engine_threads for every PCU; 0 keeps them). Outputs are
  /// bit-identical for any value; this trades host cores
  /// between request-level sharding (one worker per PCU) and per-image
  /// latency. The host runs up to num_pcus * engine_threads simulation
  /// threads at once.
  std::size_t engine_threads = 0;
};

/// Per-PCU slice of the deterministic virtual-time schedule, reported by
/// both FleetReport and OpenLoopReport so fleet skew is observable. All
/// times are simulated seconds.
struct PcuBreakdown {
  /// The PcuSpec's capability tag (empty for the homogeneous constructor).
  std::string tag;
  /// Requests this virtual PCU served.
  std::size_t requests = 0;
  /// Total time in service (completion - start summed over its requests).
  double busy_time = 0.0;
  /// Portion of busy_time spent re-filling the double-buffer pipeline
  /// (warmup charges; 0 without double buffering).
  double warmup_time = 0.0;
  /// busy_time / makespan, in [0, 1]. 0 when the makespan is 0.
  double utilization = 0.0;
  /// Weight-bank swaps this PCU paid: dispatches that reprogrammed it
  /// from a different model (ScheduledService::swapped).
  std::size_t swaps = 0;
  /// Portion of busy_time spent on those swaps [s].
  double swap_time = 0.0;
  /// Service attempts injected faults destroyed on this PCU (crash losses
  /// plus corrupted transients; 0 on fault-free runs).
  std::size_t lost_attempts = 0;
  /// Service time those lost attempts burned before dying [s]. Not part of
  /// busy_time: the schedule only keeps attempts that completed.
  double lost_time = 0.0;
};

/// Fleet-level serving summary. All times are simulated hardware seconds
/// unless suffixed _wall. The single-request reference fields
/// (request_time_serial, request_interval, overlap_speedup,
/// makespan_sequential) are computed from PCU 0 — on a heterogeneous fleet
/// put the flagship spec first.
struct FleetReport {
  std::size_t pcus = 1;
  std::size_t requests = 0;
  core::TimingFidelity fidelity = core::TimingFidelity::kFull;
  bool double_buffer = true;
  DispatchPolicy dispatch = DispatchPolicy::kEarliestFree;

  /// One request on one PCU, serial schedule (Σ layer full_system_time).
  double request_time_serial = 0.0;
  /// Steady-state completion interval with double-buffered recalibration.
  double request_interval = 0.0;
  /// request_time_serial / request_interval (1.0 when not double buffered).
  double overlap_speedup = 1.0;
  /// Images per simulated second of one PCU on the serial schedule
  /// (1 / request_time_serial) — the per-image rate the deleted
  /// Accelerator::run_batch used to report.
  double sequential_rps = 0.0;

  /// Whole batch on 1 PCU, serial schedule — the baseline.
  double makespan_sequential = 0.0;
  /// Whole batch on the fleet (virtual-time schedule).
  double makespan = 0.0;
  /// Served requests / makespan (requests lost to injected faults are not
  /// throughput).
  double throughput_rps = 0.0;
  /// makespan_sequential / makespan (sharding x overlap gains).
  double speedup_vs_sequential = 1.0;
  /// speedup normalized by fleet size.
  double scaling_efficiency = 1.0;

  /// Latency of the served requests under all-at-once arrival (queueing +
  /// service).
  double mean_latency = 0.0;
  double max_latency = 0.0;

  double total_energy = 0.0;      ///< [J]
  double energy_per_request = 0.0;///< [J]

  /// Per-PCU schedule breakdown (requests, busy/warmup time, utilization,
  /// tag), aligned with PCU indices.
  std::vector<PcuBreakdown> per_pcu;

  /// Host seconds spent actually simulating the batch (informational; on a
  /// multi-core host this is where N worker threads pay off).
  double wall_seconds = 0.0;
};

/// Per-tenant slice of an SLO-aware open-loop run. A request meets its SLO
/// when it is served and completes by its deadline (+inf deadlines always
/// count as met); shed requests always count as missed.
struct TenantBreakdown {
  std::uint32_t tenant = 0;
  /// Offered requests (served + shed).
  std::size_t requests = 0;
  std::size_t served = 0;
  std::size_t shed = 0;
  /// Requests injected faults permanently destroyed (0 without faults).
  std::size_t failed = 0;
  /// Served-late plus shed plus fault-failed.
  std::size_t slo_misses = 0;
  /// (requests - slo_misses) / requests; 1.0 for an empty tenant.
  double slo_attainment = 1.0;
  /// Sojourn latency of the *served* requests [s].
  DistributionSummary latency;
};

/// Open-loop serving summary. All times are simulated hardware seconds
/// unless suffixed _wall; all rates are requests per simulated second.
struct OpenLoopReport {
  std::size_t pcus = 1;
  std::size_t requests = 0;
  core::TimingFidelity fidelity = core::TimingFidelity::kFull;
  bool double_buffer = true;
  DispatchPolicy dispatch = DispatchPolicy::kEarliestFree;

  /// Offered load of the arrival schedule (requests / last arrival time
  /// [req/s]; +inf for the degenerate closed batch).
  double offered_rps = 0.0;
  /// served_requests / makespan [req/s]. Tracks offered_rps below
  /// saturation and pins at fleet_capacity_rps above it (shed requests
  /// never count as achieved work).
  double achieved_rps = 0.0;
  /// Steady-state saturation throughput: sum over PCUs of
  /// 1 / steady-state service interval [req/s]. On a heterogeneous fleet
  /// each PCU contributes its own rate.
  double fleet_capacity_rps = 0.0;
  /// offered_rps / fleet_capacity_rps (the load factor rho; 0 when offered
  /// load is infinite, i.e. a closed batch).
  double load_factor = 0.0;

  /// Last completion time [s].
  double makespan = 0.0;
  /// Request latency (sojourn: completion - arrival) distribution [s].
  DistributionSummary latency;
  /// Queueing delay (start - arrival) distribution [s].
  DistributionSummary queue_wait;
  /// Time-averaged number of requests waiting for a PCU (Little's law:
  /// total queue wait / makespan) [requests].
  double mean_queue_depth = 0.0;

  /// Per-PCU schedule breakdown (requests, busy/warmup time, utilization,
  /// tag), aligned with PCU indices.
  std::vector<PcuBreakdown> per_pcu;

  double total_energy = 0.0;       ///< [J]
  double energy_per_request = 0.0; ///< [J]

  // --- SLO-aware serving (meaningful when the run carried tenants,
  // deadlines, or shedding; trivial defaults otherwise) ---

  /// Requests that actually completed on a PCU
  /// (= requests - shed_requests - failed_requests).
  std::size_t served_requests = 0;
  /// Requests load shedding rejected.
  std::size_t shed_requests = 0;
  /// shed_requests / requests (0 when nothing was offered).
  double shed_rate = 0.0;
  /// Fleet-wide SLO attainment: requests served by their deadline over
  /// offered requests (+inf deadlines count as met, shed as missed).
  double slo_attainment = 1.0;
  /// Per-tenant attainment/shed slices, ordered by tenant id. Populated
  /// only for SLO-aware runs (some request carried a tenant, a non-default
  /// priority, a finite deadline — or something was shed).
  std::vector<TenantBreakdown> per_tenant;
  /// Elastic-sizing outcome (mean_active == pcus when disabled).
  AutoscalerStats autoscaler;

  // --- Multi-model serving (trivial on a single-model run) ---

  /// Fleet-total weight-bank swaps: dispatches that reprogrammed a PCU
  /// from a different model (sum of per_pcu[p].swaps).
  std::size_t model_swaps = 0;
  /// Fleet-total time spent on those swaps [s].
  double model_swap_time = 0.0;

  // --- Pipeline-parallel serving (trivial without pipeline groups) ---

  /// Pipeline outcome: groups configured, requests routed through one,
  /// stage spans committed, quarantine-driven re-placements, and the total
  /// pin / hand-off time charged. All zero unless the run dispatched with
  /// DispatchPolicy::kPipeline on a runner with built pipeline groups.
  PipelineStats pipeline;

  // --- Fault tolerance (trivial on a run without injected faults) ---

  /// Requests injected faults permanently destroyed — every budgeted retry
  /// was lost (or the whole fleet died). Placeholder results carry
  /// RequestResult::failed. requests = served + shed + failed.
  std::size_t failed_requests = 0;
  /// Sojourn latency of served requests that needed at least one retry [s]
  /// — the tail the fault tolerance machinery adds.
  DistributionSummary retry_latency;
  /// Full fault-injection outcome: injections, losses, retries,
  /// quarantine/repair counts, and per-PCU health/availability.
  FaultReport fault;

  /// Host seconds spent on the call (0 for simulate_open_loop, which does
  /// no functional work).
  double wall_seconds = 0.0;
};

class BatchRunner {
 public:
  /// Homogeneous fleet: options.num_pcus identical replicas of `config`.
  /// Copies of net/weights are taken so the runner is self-contained.
  BatchRunner(core::PcnnaConfig config, nn::Network net,
              nn::NetWeights weights, BatchRunnerOptions options = {});

  /// Heterogeneous fleet: one PCU per spec (options.num_pcus is ignored;
  /// the fleet size is specs.size()). A spec vector whose entries are all
  /// identical behaves bit-identically to the homogeneous constructor.
  /// FleetReport's single-request reference fields read PCU 0, so put the
  /// flagship spec first.
  BatchRunner(std::vector<PcuSpec> specs, nn::Network net,
              nn::NetWeights weights, BatchRunnerOptions options = {});

  // The pool's Pcus hold references into this object's net_/weights_, so
  // the runner must stay at one address for its lifetime.
  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;
  BatchRunner(BatchRunner&&) = delete;
  BatchRunner& operator=(BatchRunner&&) = delete;

  const BatchRunnerOptions& options() const { return options_; }
  const nn::Network& network() const { return net_; }
  PcuPool& pool() { return pool_; }

  /// Register another model the fleet can serve (copies are taken, like
  /// the constructor's primary model). Returns the new model id — dense,
  /// starting at 1; the constructor's model is id 0. Requests name their
  /// target via a ModelSchedule on the open-loop entry points; a dispatch
  /// that switches a PCU's programmed model charges a weight-bank swap
  /// (DispatchPolicy::kModelAffinity routes to minimize exactly that).
  std::uint32_t register_model(nn::Network net, nn::NetWeights weights);

  /// Number of registered models (>= 1).
  std::size_t num_models() const { return pool_.num_models(); }

  /// Pin registered model `model` across a chain of PCUs as a pipeline
  /// group (see PcuPool::build_pipeline for the placement contract).
  /// Serving it requires options().dispatch == DispatchPolicy::kPipeline;
  /// the group's PCUs are reserved for it and fall out of fallback
  /// dispatch. Returns the group index.
  std::size_t build_pipeline(std::uint32_t model,
                             const std::vector<std::size_t>& pcus,
                             double handoff_time = 0.0) {
    return pool_.build_pipeline(model, pcus, handoff_time);
  }

  /// Serve `inputs` as requests 0..B-1 arriving all at once (closed batch —
  /// the degenerate all-at-t=0 arrival schedule).
  ///
  /// Preconditions: every input matches the network's input shape (the
  /// accelerator throws pcnna::Error otherwise). Postconditions: results
  /// come back ordered by request id, each served exactly once;
  /// `report`, when given, is filled with the deterministic fleet summary.
  /// Not thread-safe: one run()/run_open_loop()/run_one() at a time per
  /// runner (each call reuses the pool's PCU engines).
  std::vector<RequestResult> run(const std::vector<nn::Tensor>& inputs,
                                 FleetReport* report = nullptr);

  /// Open-loop serving: request i arrives at `arrivals[i]` (simulated
  /// seconds; validate_arrival_schedule is enforced, and arrivals.size()
  /// must equal inputs.size()), carries slos[i]'s tenant, priority class,
  /// and absolute deadline (runtime::assign_tenants builds an SloSchedule
  /// from a TenantClass mix), and targets registered model models[i]. An
  /// empty `slos` means no SLO metadata and an empty `models` means
  /// everything runs the primary model; otherwise each must be index-aligned
  /// with `arrivals`, every model id must be < num_models(), and each input
  /// must match its model's input shape.
  ///
  /// On a homogeneous fleet the functional results are bit-identical to
  /// run() / run_one() for the same ids — arrival times shape only the
  /// virtual-time schedule the OpenLoopReport summarizes. On a
  /// heterogeneous fleet each output is computed by the deterministically
  /// scheduled PCU's own device model, so results are still
  /// bit-reproducible run to run, but can legitimately differ between
  /// dispatch policies (a different PCU is a different chip). With
  /// options().shed_expired the admission loop may reject requests — those
  /// come back as id-only placeholders with RequestResult::shed set, and
  /// the report carries shed counts and per-tenant SLO attainment.
  std::vector<RequestResult> run_open_loop(
      const std::vector<nn::Tensor>& inputs, const ArrivalSchedule& arrivals,
      OpenLoopReport* report = nullptr, const SloSchedule& slos = {},
      const ModelSchedule& models = {});

  /// Timing-only open loop: simulate the admission schedule for `arrivals`
  /// (with `slos` and `models` as in run_open_loop) and return its report
  /// without running any functional inference (energy is filled from the
  /// per-request analytical model of the PCU each request was dispatched
  /// to). Lets load sweeps use tens of thousands of requests cheaply.
  OpenLoopReport simulate_open_loop(const ArrivalSchedule& arrivals,
                                    const SloSchedule& slos = {},
                                    const ModelSchedule& models = {});

  /// Sequential single-PCU baseline: serves request `id` on PCU 0 with the
  /// same per-request seed run() would use — the bit-identity reference.
  RequestResult run_one(const nn::Tensor& input, std::uint64_t id);

  /// Render a FleetReport as aligned tables via common::report.
  static void print_report(const FleetReport& report, std::ostream& os,
                           const std::string& title = "batch serving");

  /// Render an OpenLoopReport as aligned tables via common::report.
  static void print_report(const OpenLoopReport& report, std::ostream& os,
                           const std::string& title = "open-loop serving");

 private:
  /// Timing-only admission-loop run for requests 0..arrivals.size()-1
  /// (no tensors, no functional work), under options_'s dispatch,
  /// shedding, and autoscaler settings.
  AdmissionResult simulate_admission_result(const ArrivalSchedule& arrivals,
                                            const SloSchedule& slos,
                                            const ModelSchedule& models);

  /// Build the dense request vector (ids, SplitMix64 seeds, arrivals, SLO
  /// metadata, model targets, inputs) the serving paths share.
  std::vector<InferenceRequest> make_requests(
      const std::vector<nn::Tensor>& inputs, const ArrivalSchedule& arrivals,
      const SloSchedule& slos, const ModelSchedule& models) const;

  /// True when physical serving shards dynamically (PcuPool::serve_all):
  /// a homogeneous pool whose schedule decides neither which requests run
  /// (no shedding, no faults) nor how they split (no pipelines). Otherwise
  /// serving follows the admission schedule, so it must be computed.
  bool shards_dynamically() const;

  /// Physically serve `requests`: dynamic sharding when
  /// shards_dynamically(), schedule-driven assignment otherwise.
  std::vector<RequestResult> serve(std::vector<InferenceRequest> requests,
                                   const std::vector<ScheduledService>& schedule,
                                   bool simulate_values);

  /// Derive every schedule-dependent OpenLoopReport field.
  OpenLoopReport summarize_schedule(const AdmissionResult& admission,
                                    const ArrivalSchedule& arrivals) const;

  /// Fill `out` (sized pool_.size()) from the schedule; returns the
  /// makespan so both report types share the accounting.
  double fill_breakdowns(const std::vector<ScheduledService>& schedule,
                         std::vector<PcuBreakdown>& out) const;

  nn::Network net_;
  nn::NetWeights weights_;
  BatchRunnerOptions options_;
  /// Models registered after construction (ids 1+). A deque keeps every
  /// element at a stable address — the pool's Pcus borrow references.
  std::deque<std::pair<nn::Network, nn::NetWeights>> extra_models_;
  PcuPool pool_;
};

} // namespace pcnna::runtime
