#include "runtime/pcu_pool.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <future>
#include <limits>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "core/planner.hpp"
#include "core/stage_partitioner.hpp"
#include "runtime/telemetry.hpp"

namespace pcnna::runtime {

const char* dispatch_policy_name(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kEarliestFree: return "earliest-free";
    case DispatchPolicy::kLeastLoaded: return "least-loaded";
    case DispatchPolicy::kCapabilityAware: return "capability-aware";
    case DispatchPolicy::kEdf: return "edf";
    case DispatchPolicy::kModelAffinity: return "model-affinity";
    case DispatchPolicy::kPipeline: return "pipeline";
  }
  // -Werror=switch makes the switch exhaustive at build time; reaching
  // here means an out-of-range cast, not a missing case.
  throw Error("invalid DispatchPolicy");
}

namespace {

/// Effective per-PCU config: the spec's engine-thread override applied.
core::PcnnaConfig effective_config(const PcuSpec& spec) {
  core::PcnnaConfig config = spec.config;
  if (spec.engine_threads > 0) config.engine_threads = spec.engine_threads;
  return config;
}

} // namespace

PcuPool::PcuPool(std::vector<PcuSpec> specs, core::TimingFidelity fidelity,
                 const nn::Network& net, const nn::NetWeights& weights) {
  PCNNA_CHECK_MSG(!specs.empty(), "a PcuPool needs at least one PCU");
  pcus_.reserve(specs.size());
  const core::PcnnaConfig reference = effective_config(specs.front());
  std::size_t min_passes = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const core::PcnnaConfig config = effective_config(specs[i]);
    // Homogeneity is decided on the *device model* alone: only the config
    // changes what bits a PCU computes for a given request (warmup policy
    // and tag shape scheduling and reporting, never outputs). Engine
    // threads are normalized out of the comparison for the same reason —
    // outputs are bit-identical for any thread count.
    core::PcnnaConfig comparable = config;
    comparable.engine_threads = reference.engine_threads;
    if (!(comparable == reference)) homogeneous_ = false;
    pcus_.emplace_back(i, config, fidelity, net, weights, specs[i].warmup,
                       std::move(specs[i].tag));
    min_passes = std::min(min_passes, pcus_.back().channel_split_passes());
  }
  min_split_passes_.push_back(min_passes);
}

std::uint32_t PcuPool::register_model(const nn::Network& net,
                                      const nn::NetWeights& weights) {
  std::uint32_t id = 0;
  std::size_t min_passes = std::numeric_limits<std::size_t>::max();
  for (Pcu& pcu : pcus_) {
    id = pcu.add_model(net, weights);
    PCNNA_CHECK_MSG(id == min_split_passes_.size(),
                    "model registry out of sync across the fleet");
    min_passes = std::min(min_passes, pcu.channel_split_passes(id));
  }
  min_split_passes_.push_back(min_passes);
  return id;
}

const PipelineGroup* PcuPool::pipeline_for_model(std::uint32_t model) const {
  for (const PipelineGroup& g : groups_)
    if (g.model == model) return &g;
  return nullptr;
}

void PcuPool::place_pipeline(PipelineGroup& g,
                             const std::vector<std::size_t>& candidates) const {
  // Healthy members in member order (deterministic: `members` is fixed).
  std::vector<std::size_t> avail;
  for (std::size_t m : g.members) {
    if (std::find(candidates.begin(), candidates.end(), m) !=
        candidates.end())
      avail.push_back(m);
  }
  g.stages.clear();
  if (avail.empty()) return; // the group is down until a member heals

  std::size_t convs = 0;
  for (std::size_t c : g.op_costs)
    if (c > 0) convs += 1;
  const std::size_t k = std::min(avail.size(), convs);
  const std::vector<core::StageRange> ranges =
      core::partition_costs(g.op_costs, k);
  std::vector<std::size_t> passes;
  passes.reserve(avail.size());
  for (std::size_t p : avail)
    passes.push_back(pcus_[p].channel_split_passes(g.model));
  const std::vector<std::size_t> placement =
      core::assign_stages(ranges, avail, passes);

  g.stages.reserve(ranges.size());
  for (std::size_t j = 0; j < ranges.size(); ++j) {
    PipelineStage st;
    st.pcu = placement[j];
    st.op_begin = ranges[j].op_begin;
    st.op_end = ranges[j].op_end;
    st.cost = ranges[j].cost;
    st.timings = pcus_[st.pcu].stage_timings(g.model, st.op_begin, st.op_end);
    g.stages.push_back(st);
  }
}

std::size_t PcuPool::build_pipeline(std::uint32_t model,
                                    const std::vector<std::size_t>& pcus,
                                    double handoff_time) {
  PCNNA_CHECK_MSG(model < min_split_passes_.size(),
                  "cannot pipeline unregistered model " << model);
  PCNNA_CHECK_MSG(!pcus.empty(), "a pipeline group needs at least one PCU");
  PCNNA_CHECK_MSG(std::isfinite(handoff_time) && handoff_time >= 0.0,
                  "hand-off time must be finite and >= 0, got "
                      << handoff_time);
  PCNNA_CHECK_MSG(pipeline_for_model(model) == nullptr,
                  "model " << model << " already has a pipeline group");
  std::vector<unsigned char> seen(pcus_.size(), 0);
  for (std::size_t p : pcus) {
    PCNNA_CHECK_MSG(p < pcus_.size(), "pipeline PCU " << p << " out of range");
    PCNNA_CHECK_MSG(!seen[p], "duplicate PCU " << p << " in pipeline group");
    seen[p] = 1;
    for (const PipelineGroup& g : groups_) {
      PCNNA_CHECK_MSG(std::find(g.members.begin(), g.members.end(), p) ==
                          g.members.end(),
                      "PCU " << p
                             << " is already reserved by the pipeline group "
                                "of model "
                             << g.model);
    }
  }
  const nn::Network& net = pcus_.front().model_network(model);
  PCNNA_CHECK_MSG(pcus.size() <= core::StagePartitioner::max_stages(net),
                  "network '" << net.name() << "' has only "
                              << core::StagePartitioner::max_stages(net)
                              << " conv ops; cannot build " << pcus.size()
                              << " pipeline stages");

  PipelineGroup g;
  g.model = model;
  g.handoff_time = handoff_time;
  g.members = pcus;
  // Partition weights are priced once, on the strongest member (fewest
  // whole-model passes, ties toward the lowest index), so re-placement
  // after a quarantine re-partitions the *same* cost vector and stays a
  // pure function of the healthy-member set.
  std::size_t strongest = pcus.front();
  for (std::size_t p : pcus) {
    if (pcus_[p].channel_split_passes(model) <
        pcus_[strongest].channel_split_passes(model))
      strongest = p;
  }
  g.op_costs =
      core::StagePartitioner(pcus_[strongest].config()).op_costs(net);
  place_pipeline(g, pcus);
  PCNNA_CHECK_MSG(!g.stages.empty(), "pipeline group construction failed");
  groups_.push_back(std::move(g));
  return groups_.size() - 1;
}

PcuPool::PcuPool(std::size_t num_pcus, const core::PcnnaConfig& config,
                 core::TimingFidelity fidelity, const nn::Network& net,
                 const nn::NetWeights& weights)
    : PcuPool(std::vector<PcuSpec>(num_pcus, PcuSpec{config, 0,
                                                     WarmupPolicy::
                                                         kRechargeAfterIdle,
                                                     {}}),
              fidelity, net, weights) {
  // num_pcus == 0 is rejected by the delegated constructor's empty-fleet
  // check.
}

std::vector<RequestResult> PcuPool::serve_all(RequestQueue& queue,
                                              std::size_t expected_requests,
                                              bool simulate_values) {
  PCNNA_CHECK_MSG(homogeneous_,
                  "serve_all shards dynamically, which is only output-safe "
                  "when every PCU is identical; use serve_scheduled on a "
                  "heterogeneous pool");
  std::vector<RequestResult> results(expected_requests);
  // Byte flags, not vector<bool>: distinct bytes are safe to write from
  // different workers; packed bits are not.
  std::vector<unsigned char> served(expected_requests, 0);

  std::mutex error_mu;
  std::exception_ptr first_error;

  auto worker = [&](Pcu& pcu) {
    InferenceRequest request;
    while (queue.pop(request)) {
      try {
        PCNNA_CHECK_MSG(request.id < expected_requests,
                        "request id " << request.id << " out of range");
        // Distinct ids address distinct slots, so workers never write the
        // same element concurrently.
        results[request.id] = pcu.serve(request, simulate_values);
        served[request.id] = 1;
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(pcus_.size());
  for (Pcu& pcu : pcus_) threads.emplace_back(worker, std::ref(pcu));
  for (std::thread& t : threads) t.join();

  if (first_error) std::rethrow_exception(first_error);
  for (std::size_t id = 0; id < expected_requests; ++id)
    PCNNA_CHECK_MSG(served[id], "request " << id << " was never served");
  return results;
}

std::vector<RequestResult> PcuPool::serve_scheduled(
    std::vector<InferenceRequest> requests,
    const std::vector<ScheduledService>& schedule, bool simulate_values) {
  PCNNA_CHECK_MSG(schedule.size() <= requests.size(),
                  "schedule covers " << schedule.size()
                                     << " requests but only "
                                     << requests.size() << " were given");
  // Per-PCU assignment lists in schedule (= admission) order; each request
  // id must be scheduled at most once and index into `requests`. Ids the
  // schedule skips (load-shed requests) are simply never served — their
  // result slot stays an id-only placeholder.
  std::vector<std::vector<std::size_t>> assigned(pcus_.size());
  std::vector<unsigned char> seen(requests.size(), 0);
  for (const ScheduledService& s : schedule) {
    PCNNA_CHECK_MSG(s.pcu < pcus_.size(),
                    "scheduled PCU " << s.pcu << " out of range");
    PCNNA_CHECK_MSG(s.id < requests.size() && !seen[s.id],
                    "schedule must name each request id at most once (id "
                        << s.id << ")");
    seen[s.id] = 1;
    assigned[s.pcu].push_back(static_cast<std::size_t>(s.id));
  }

  std::vector<RequestResult> results(requests.size());
  // Pre-fill every slot with the request's identity metadata: ids the
  // schedule skips (load-shed requests) stay placeholders, but per-tenant
  // and per-model accounting must still see who they were.
  for (std::size_t id = 0; id < results.size(); ++id) {
    results[id].id = id;
    results[id].model_id = requests[id].model_id;
    results[id].tenant = requests[id].tenant;
  }
  std::mutex error_mu;
  std::exception_ptr first_error;

  // One worker per PCU over its own assignment list: the worker owns its
  // Pcu exclusively, and distinct ids address distinct result slots.
  auto worker = [&](std::size_t p) {
    try {
      for (const std::size_t id : assigned[p])
        results[id] = pcus_[p].serve(requests[id], simulate_values);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(pcus_.size());
  for (std::size_t p = 0; p < pcus_.size(); ++p)
    threads.emplace_back(worker, p);
  for (std::thread& t : threads) t.join();

  if (first_error) std::rethrow_exception(first_error);
  return results;
}

std::vector<RequestResult> PcuPool::serve_pipelined(
    std::vector<InferenceRequest> requests,
    const std::vector<ScheduledService>& schedule, bool simulate_values) {
  PCNNA_CHECK_MSG(schedule.size() <= requests.size(),
                  "schedule covers " << schedule.size()
                                     << " requests but only "
                                     << requests.size() << " were given");
  constexpr std::size_t kWhole = std::numeric_limits<std::size_t>::max();

  /// One unit of PCU work: a whole request (stage == kWhole) or one stage
  /// of a pipelined request. Ordered by virtual span start — the admission
  /// loop guarantees per-PCU spans never overlap, so start order is the
  /// execution order.
  struct Exec {
    std::size_t sched = 0; ///< index into `schedule`
    std::size_t stage = kWhole;
    double start = 0.0;
  };
  std::vector<std::vector<Exec>> assigned(pcus_.size());
  std::vector<unsigned char> seen(requests.size(), 0);
  // Hand-off chain per pipelined schedule entry: promise/future pairs, one
  // per stage boundary. Stage j fulfills boundary j; stage j+1 consumes it.
  std::vector<std::vector<std::promise<StageHandoff>>> chains(schedule.size());
  std::vector<std::vector<std::future<StageHandoff>>> handoffs(
      schedule.size());

  for (std::size_t si = 0; si < schedule.size(); ++si) {
    const ScheduledService& s = schedule[si];
    PCNNA_CHECK_MSG(s.id < requests.size() && !seen[s.id],
                    "schedule must name each request id at most once (id "
                        << s.id << ")");
    seen[s.id] = 1;
    if (s.stages.empty()) {
      PCNNA_CHECK_MSG(s.pcu < pcus_.size(),
                      "scheduled PCU " << s.pcu << " out of range");
      assigned[s.pcu].push_back({si, kWhole, s.start});
      continue;
    }
    for (std::size_t j = 0; j < s.stages.size(); ++j) {
      PCNNA_CHECK_MSG(s.stages[j].pcu < pcus_.size(),
                      "scheduled stage PCU " << s.stages[j].pcu
                                             << " out of range");
      assigned[s.stages[j].pcu].push_back({si, j, s.stages[j].start});
    }
    chains[si].resize(s.stages.size() - 1);
    handoffs[si].reserve(s.stages.size() - 1);
    for (std::size_t j = 0; j + 1 < s.stages.size(); ++j)
      handoffs[si].push_back(chains[si][j].get_future());
  }
  for (std::vector<Exec>& list : assigned) {
    std::sort(list.begin(), list.end(), [](const Exec& a, const Exec& b) {
      if (a.start != b.start) return a.start < b.start;
      if (a.sched != b.sched) return a.sched < b.sched;
      return a.stage < b.stage;
    });
  }

  std::vector<RequestResult> results(requests.size());
  for (std::size_t id = 0; id < results.size(); ++id) {
    results[id].id = id;
    results[id].model_id = requests[id].model_id;
    results[id].tenant = requests[id].tenant;
  }
  std::mutex error_mu;
  std::exception_ptr first_error;

  // One worker per PCU over its own execution list. A stage past the head
  // blocks on the previous stage's future; the virtual-time schedule is
  // acyclic (every dependency points to an earlier span), so in-order
  // processing cannot deadlock. On error the worker poisons every hand-off
  // it still owes so downstream stages fail instead of waiting forever.
  auto worker = [&](std::size_t p) {
    std::size_t done = 0;
    try {
      for (const Exec& e : assigned[p]) {
        const ScheduledService& s = schedule[e.sched];
        if (e.stage == kWhole) {
          results[s.id] = pcus_[p].serve(requests[s.id], simulate_values);
          done += 1;
          continue;
        }
        const StageService& span = s.stages[e.stage];
        StageHandoff in;
        const nn::Tensor* input = nullptr;
        const Rng::State* rng = nullptr;
        if (e.stage == 0) {
          input = &requests[s.id].input;
        } else {
          in = handoffs[e.sched][e.stage - 1].get();
          input = &in.activation;
          rng = &in.rng;
        }
        StageHandoff out = pcus_[p].serve_stage(
            s.model, span.op_begin, span.op_end, *input, rng,
            requests[s.id].seed, e.stage == 0 ? 0.0 : in.energy,
            simulate_values);
        if (e.stage > 0) out.work += in.work; // chain the work counters
        if (e.stage + 1 < s.stages.size()) {
          chains[e.sched][e.stage].set_value(std::move(out));
        } else {
          RequestResult& r = results[s.id];
          r.pcu_index = s.pcu;
          r.output = std::move(out.activation);
          r.service_time_serial = pcus_[s.pcu].request_time_serial(s.model);
          r.service_time_overlapped =
              pcus_[s.pcu].request_interval_overlapped(s.model);
          r.energy = out.energy;
          r.work = out.work;
        }
        done += 1;
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      for (std::size_t i = done; i < assigned[p].size(); ++i) {
        const Exec& e = assigned[p][i];
        if (e.stage != kWhole && e.stage + 1 < schedule[e.sched].stages.size())
          chains[e.sched][e.stage].set_exception(std::current_exception());
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(pcus_.size());
  for (std::size_t p = 0; p < pcus_.size(); ++p)
    threads.emplace_back(worker, p);
  for (std::thread& t : threads) t.join();

  if (first_error) std::rethrow_exception(first_error);
  return results;
}

namespace {

/// Scheduling-relevant slice of an InferenceRequest, parked in the
/// event-driven pending set between arrival and dispatch (the input tensor
/// never affects timing, so it is not carried).
struct PendingRequest {
  std::uint64_t id = 0;
  double arrival = 0.0;
  std::uint32_t tenant = 0;
  PriorityClass priority = PriorityClass::kStandard;
  double deadline = std::numeric_limits<double>::infinity();
  std::uint32_t model = 0;
  /// 1-based service attempt the next dispatch of this request will be;
  /// bumped by the fault machinery's retry path, 1 everywhere else.
  std::uint32_t attempts = 1;
};

/// Sentinel for a PCU whose weight banks have never been programmed: its
/// first dispatch programs them as part of the normal pipeline fill, so no
/// swap is charged — there is no outgoing model to tear down.
inline constexpr std::uint32_t kNoModel =
    std::numeric_limits<std::uint32_t>::max();

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

/// One request parked between loss detection and re-enqueue — the fault
/// machinery's retry queue, ordered by when the backoff expires.
struct RetryEntry {
  double ready = 0.0; ///< virtual time the retry re-enters the pending set
  PendingRequest req;
};

struct RetryOrder {
  bool operator()(const RetryEntry& a, const RetryEntry& b) const {
    if (a.ready != b.ready) return a.ready < b.ready;
    return a.req.id < b.req.id; // ids are unique: strict weak order
  }
};

/// The attempt currently occupying one PCU in virtual time — the fault
/// machinery's answer to "who dies if this PCU fails right now".
struct Inflight {
  bool valid = false;
  std::size_t sched_index = 0; ///< index into the uncompacted schedule
  double completion = 0.0;
  PendingRequest req;
};

/// Pending health-system action on one PCU (at most one at a time; a crash
/// supersedes whatever was pending).
enum class TimerKind : unsigned char {
  kNone,
  kDetectCrash,   ///< crash noticed: pull the dead PCU from dispatch
  kDetectDegrade, ///< drift noticed: enter quarantine, schedule the repair
  kRepairDone,    ///< quarantine repair complete: rejoin healthy
};

} // namespace

AdmissionResult PcuPool::simulate_admission(RequestQueue& queue,
                                            const AdmissionOptions& options) {
  PCNNA_CHECK_MSG(queue.closed(),
                  "simulate_admission needs a closed request stream");
  const bool double_buffer = options.double_buffer;
  const DispatchPolicy policy = options.policy;
  // Opt-in observability. Strictly read-only hooks: telemetry never feeds
  // anything back into the loop, so the schedule is bitwise identical with
  // or without it (pinned by the telemetry property tests).
  Telemetry* const telemetry = options.telemetry;

  // Resolve the autoscaler envelope against the pool size.
  const AutoscalerPolicy& scaler = options.autoscaler;
  const std::size_t max_active =
      scaler.enabled && scaler.max_active > 0
          ? std::min(scaler.max_active, pcus_.size())
          : pcus_.size();
  const std::size_t min_active =
      scaler.enabled ? scaler.min_active : pcus_.size();
  if (scaler.enabled) {
    PCNNA_CHECK_MSG(min_active >= 1 && min_active <= max_active,
                    "autoscaler needs 1 <= min_active <= max_active, got ["
                        << min_active << ", " << max_active << "]");
  }

  // Fault machinery (see fault_plan.hpp). fault_active == false is the
  // contract that every code path below is bit-identical to the pre-fault
  // loop: all fault state is inert and every fault branch is guarded.
  const FaultOptions& faults = options.faults;
  const bool fault_active = faults.enabled();
  if (fault_active) {
    validate_fault_schedule(faults.schedule);
    for (std::size_t i = 0; i < faults.schedule.size(); ++i) {
      PCNNA_CHECK_MSG(faults.schedule[i].pcu < pcus_.size(),
                      "fault event " << i << " targets PCU "
                                     << faults.schedule[i].pcu
                                     << " but the fleet has " << pcus_.size()
                                     << " PCUs");
    }
    PCNNA_CHECK_MSG(std::isfinite(faults.detection_latency) &&
                        faults.detection_latency >= 0.0,
                    "fault detection latency must be finite and >= 0, got "
                        << faults.detection_latency);
    PCNNA_CHECK_MSG(std::isfinite(faults.repair_time) &&
                        faults.repair_time >= 0.0,
                    "fault repair time must be finite and >= 0, got "
                        << faults.repair_time);
    PCNNA_CHECK_MSG(std::isfinite(faults.retry.backoff_base) &&
                        faults.retry.backoff_base >= 0.0,
                    "retry backoff base must be finite and >= 0, got "
                        << faults.retry.backoff_base);
    PCNNA_CHECK_MSG(std::isfinite(faults.retry.backoff_factor) &&
                        faults.retry.backoff_factor >= 1.0,
                    "retry backoff factor must be finite and >= 1, got "
                        << faults.retry.backoff_factor);
  }

  AdmissionResult result;
  std::vector<double> free_at(pcus_.size(), 0.0);
  std::vector<std::size_t> served(pcus_.size(), 0);
  // Programmed model per PCU: which model's weights currently sit in the
  // banks. Starts unprogrammed; a dispatch that switches it pays the swap.
  std::vector<std::uint32_t> programmed(pcus_.size(), kNoModel);
  // Autoscaler state. Without it every PCU is active forever and
  // force_cold never fires, so the lambdas below behave exactly as before.
  std::vector<unsigned char> active(pcus_.size(), 0);
  std::vector<unsigned char> force_cold(pcus_.size(), 0);
  std::vector<double> activated_at(pcus_.size(), 0.0);
  std::size_t active_count = scaler.enabled ? min_active : pcus_.size();
  for (std::size_t p = 0; p < active_count; ++p) active[p] = 1;

  // --- pipeline (kPipeline) state: inert under every other policy ---
  const bool pipelined = policy == DispatchPolicy::kPipeline;
  // Work on a copy of the built groups: quarantine-driven re-placement
  // mutates stage assignments mid-run, and simulate_admission must stay a
  // pure function of the pool's built state (two identical runs, identical
  // schedules).
  std::vector<PipelineGroup> groups =
      pipelined ? groups_ : std::vector<PipelineGroup>{};
  // reserved[p]: PCU p belongs to a pipeline group — never a target for
  // fallback (group-less) dispatch and exempt from autoscaler shrink. All
  // zero unless pipelined, so every guard below is inert otherwise.
  std::vector<unsigned char> reserved(pcus_.size(), 0);
  // pinned[g][j]: stage j of group g has paid its one-time pin (the stage
  // range's first-layer recalibration). Reset on re-placement: new stage
  // ranges mean freshly reprogrammed banks.
  std::vector<std::vector<unsigned char>> pinned(groups.size());
  // last_healthy[g]: the member subset group g is currently placed over.
  std::vector<std::vector<std::size_t>> last_healthy(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    pinned[g].assign(groups[g].stages.size(), 0);
    last_healthy[g] = groups[g].members;
    for (std::size_t p : groups[g].members) reserved[p] = 1;
  }
  result.pipeline.groups = groups.size();
  if (pipelined && scaler.enabled) {
    // Pipeline members are statically placed; parking one would stall its
    // whole group. They are always active (and shrink_idle skips them).
    for (std::size_t p = 0; p < pcus_.size(); ++p) {
      if (reserved[p] && !active[p]) {
        active[p] = 1;
        active_count += 1;
      }
    }
  }

  // Per-PCU health state (inert without faults).
  std::vector<HealthState> health(pcus_.size(), HealthState::kHealthy);
  std::vector<double> degrade_mult(pcus_.size(), 1.0);
  // Pulled from dispatch: quarantined, or failed once detection fires.
  std::vector<unsigned char> excluded(pcus_.size(), 0);
  std::vector<double> health_since(pcus_.size(), 0.0);
  std::vector<TimerKind> timer_kind(pcus_.size(), TimerKind::kNone);
  std::vector<double> timer_at(pcus_.size(),
                               std::numeric_limits<double>::infinity());
  std::vector<Inflight> inflight(pcus_.size());
  // Tombstones parallel to result.schedule (maintained only when
  // fault_active): destroyed attempts stay in place until the final stable
  // compaction so in-flight bookkeeping can index the schedule directly.
  std::vector<unsigned char> cancelled;
  // In-flight *pipelined* attempts (maintained only when fault_active and
  // pipelined): a pipelined request occupies several PCUs over disjoint
  // stage spans, so fault events must search the committed spans — the
  // single-PCU `inflight` slots cannot represent it. Entries go stale once
  // their schedule entry is cancelled or past; scans skip those.
  struct PipeInflight {
    std::size_t sched_index;
    PendingRequest req;
  };
  std::vector<PipeInflight> pipe_inflight;
  std::set<RetryEntry, RetryOrder> retries;
  std::size_t fault_cursor = 0;
  if (fault_active) result.fault.per_pcu.resize(pcus_.size());

  // Pipeline-fill charge for dispatching model m to PCU p at `start`, per
  // that PCU's warmup policy. Zero on the serial schedule: without double
  // buffering every layer pays its recalibration inline. A PCU the
  // autoscaler just (re)activated is cold regardless of policy.
  const auto warmup_charge = [&](std::size_t p, std::uint32_t m,
                                 double start) -> double {
    if (!double_buffer) return 0.0;
    bool cold = true;
    switch (pcus_[p].warmup_policy()) {
      case WarmupPolicy::kRechargeAfterIdle:
        // An idle gap drains the double-buffer pipeline, so the next
        // request pays the pipeline-fill warmup again; within a
        // back-to-back streak only the steady-state interval is charged.
        // start == free_at[p] is back-to-back — the comparison must stay
        // strictly greater-than, or a request landing exactly when the
        // PCU frees would be double-charged warmup.
        cold = served[p] == 0 || start > free_at[p];
        break;
      case WarmupPolicy::kPinnedAfterFirst:
        cold = served[p] == 0;
        break;
      case WarmupPolicy::kAlwaysCold:
        cold = true;
        break;
    }
    return (cold || force_cold[p]) ? pcus_[p].warmup_time(m) : 0.0;
  };

  // True when dispatching model m to PCU p would reprogram its banks from
  // a *different* model — the swap event. Only meaningful on the
  // double-buffered schedule (serial requests reprogram inline anyway),
  // and never on a PCU's very first programming.
  const auto would_swap = [&](std::size_t p, std::uint32_t m) -> bool {
    return double_buffer && programmed[p] != kNoModel && programmed[p] != m;
  };

  // Calibration-drift inflation: a degraded PCU's whole service span is
  // stretched by its worst unrepaired degrade severity. 1.0 (always,
  // without faults) multiplies every span bit-identically.
  const auto degrade_factor = [&](std::size_t p) -> double {
    return fault_active ? degrade_mult[p] : 1.0;
  };

  // Truthful service span on PCU p for a model-m request starting at
  // `start`, swap included: exactly what dispatch() will charge. Used for
  // the actual charge, shed decisions, and kModelAffinity's scoring.
  const auto true_service = [&](std::size_t p, std::uint32_t m,
                                double start) -> double {
    if (!double_buffer)
      return pcus_[p].request_time_serial(m) * degrade_factor(p);
    return (pcus_[p].request_interval_overlapped(m) +
            (would_swap(p, m) ? pcus_[p].swap_time(m)
                              : warmup_charge(p, m, start))) *
           degrade_factor(p);
  };

  // Model-blind service span: the legacy policies' completion score, which
  // deliberately ignores the swap a dispatch may charge — least-loaded is
  // a *load* balancer, not a placement policy, and that blindness is
  // precisely what kModelAffinity fixes (and what the multi-model bench
  // measures). Identical to true_service on a single-model stream.
  const auto blind_service = [&](std::size_t p, std::uint32_t m,
                                 double start) -> double {
    if (!double_buffer)
      return pcus_[p].request_time_serial(m) * degrade_factor(p);
    return (pcus_[p].request_interval_overlapped(m) +
            warmup_charge(p, m, start)) *
           degrade_factor(p);
  };

  // --- fault helpers (all no-ops / unreachable when !fault_active) ---

  // Close the current health-state dwell bucket of PCU p at time t.
  const auto close_health = [&](std::size_t p, double t) {
    const double dt = t - health_since[p];
    if (dt > 0.0) {
      PcuHealthStats& hs = result.fault.per_pcu[p];
      switch (health[p]) {
        case HealthState::kHealthy: hs.healthy_time += dt; break;
        case HealthState::kDegraded: hs.degraded_time += dt; break;
        case HealthState::kQuarantined: hs.quarantined_time += dt; break;
        case HealthState::kFailed: hs.failed_time += dt; break;
      }
      health_since[p] = t;
    }
  };

  // A completed repair re-trims PCU p's weight banks: lazily invalidate
  // every calibration artifact planned for its configuration.
  const auto bump_plan_epoch = [&](std::size_t p) {
    if (faults.plan_cache == nullptr) return;
    faults.plan_cache->bump_epoch(
        core::plan_config_key(pcus_[p].config(), pcus_[p].fidelity()));
    result.fault.plan_epoch_bumps += 1;
  };

  // Fastest base service any PCU offers for model m — the bound behind
  // deadline-aware backoff (a retry sleeping past deadline - this can
  // never succeed).
  const auto fleet_min_service = [&](std::uint32_t m) -> double {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < pcus_.size(); ++p) {
      best = std::min(best, double_buffer
                                ? pcus_[p].request_interval_overlapped(m)
                                : pcus_[p].request_time_serial(m));
    }
    return best;
  };

  // A destroyed attempt of `req` was detected at `detect`: re-enqueue it
  // with exponential backoff if the budget allows, else record the
  // permanent loss. The backoff is capped so the retry could still start
  // early enough to meet a finite deadline on the fastest capable PCU.
  const auto schedule_retry = [&](const PendingRequest& req, double detect) {
    if (!faults.health_aware || req.attempts > faults.retry.max_retries) {
      result.fault.lost_requests += 1;
      result.fault.losses.push_back({req.id, req.tenant, req.priority,
                                     req.arrival, detect, req.attempts});
      return;
    }
    double delay = faults.retry.backoff_base;
    for (std::uint32_t k = 1; k < req.attempts; ++k)
      delay *= faults.retry.backoff_factor;
    double ready = detect + delay;
    if (std::isfinite(req.deadline)) {
      ready = std::max(detect,
                       std::min(ready, req.deadline -
                                           fleet_min_service(req.model)));
    }
    PendingRequest next = req;
    next.attempts += 1;
    retries.insert({ready, next});
    result.fault.retries += 1;
  };

  // Destroy one dispatched attempt: tombstone its schedule entry, record
  // it, and route the request into retry (or permanent loss). `end` is
  // when the PCU time was wasted until; `detect` is when the loss becomes
  // known (the retry clock's start).
  const auto lose_attempt = [&](const PendingRequest& req,
                                std::size_t sched_index, std::size_t p,
                                FaultKind kind, double end, double detect) {
    cancelled[sched_index] = 1;
    result.fault.attempts.push_back(
        {req.id, p, result.schedule[sched_index].start, end, kind,
         req.attempts});
    result.fault.per_pcu[p].lost_attempts += 1;
    result.fault.per_pcu[p].lost_time +=
        end - result.schedule[sched_index].start;
    if (kind == FaultKind::kCrash) {
      result.fault.crash_losses += 1;
    } else {
      result.fault.transient_corruptions += 1;
    }
    schedule_retry(req, detect);
  };

  // Commit one dispatch: charge service on PCU p starting at `start`
  // (swap or warmup per the programmed state) and append the schedule
  // entry.
  const auto dispatch = [&](const PendingRequest& r, std::size_t p,
                            double start) {
    const bool swapped = would_swap(p, r.model);
    const double swap = swapped ? pcus_[p].swap_time(r.model) : 0.0;
    const double warmup = swapped ? 0.0 : warmup_charge(p, r.model, start);
    const double service =
        (double_buffer
             ? pcus_[p].request_interval_overlapped(r.model) + swap + warmup
             : pcus_[p].request_time_serial(r.model)) *
        degrade_factor(p);
    const double completion = start + service;
    free_at[p] = completion;
    served[p] += 1;
    force_cold[p] = 0;
    programmed[p] = r.model;
    result.schedule.push_back({r.id, p, r.arrival, start, completion, warmup,
                               r.tenant, r.priority, r.deadline, r.model,
                               swap, swapped, r.attempts, /*stages=*/{}});
    if (telemetry) telemetry->on_dispatch(swapped, /*pipelined=*/false);
    if (fault_active) {
      cancelled.push_back(0);
      const std::size_t idx = result.schedule.size() - 1;
      if (health[p] == HealthState::kFailed) {
        // Black hole: the PCU is dead (fault-blind dispatch, or
        // health-aware inside the detection window). The dispatcher only
        // learns at the predicted completion that the request never came
        // back.
        lose_attempt(r, idx, p, FaultKind::kCrash, completion, completion);
        inflight[p].valid = false;
      } else {
        inflight[p] = {true, idx, completion, r};
      }
    }
  };

  // Per-model capability: under kCapabilityAware (and kModelAffinity's
  // least-loaded-capable fallback) a PCU must map the request's model with
  // the fleet-minimum number of segmented bank passes.
  const auto capable = [&](std::size_t p, std::uint32_t m) {
    if (policy != DispatchPolicy::kCapabilityAware &&
        policy != DispatchPolicy::kModelAffinity)
      return true;
    return pcus_[p].channel_split_passes(m) == min_split_passes_[m];
  };

  // Model-independent eligibility for the free-event scan: a PCU capable
  // of no registered model can never be dispatched to.
  const auto scan_capable = [&](std::size_t p) {
    for (std::uint32_t m = 0; m < min_split_passes_.size(); ++m)
      if (capable(p, m)) return true;
    return false;
  };

  const auto check_model = [&](const InferenceRequest& request) {
    PCNNA_CHECK_MSG(request.model_id < min_split_passes_.size(),
                    "request " << request.id << " targets model "
                               << request.model_id << " but only "
                               << min_split_passes_.size()
                               << " models are registered");
  };

  const bool deferred = policy == DispatchPolicy::kEdf ||
                        policy == DispatchPolicy::kModelAffinity ||
                        policy == DispatchPolicy::kPipeline ||
                        options.shed_expired || scaler.enabled ||
                        fault_active;

  if (!deferred) {
    // Eager mode — the pre-SLO code path, kept bit-identical. Dispatching
    // at admission is exact for a FIFO stream: every policy scores
    // candidates from the deterministic free times alone, not from when
    // the decision is made.
    const auto pick_pcu = [&](double arrival,
                              std::uint32_t model) -> std::size_t {
      if (policy == DispatchPolicy::kEarliestFree) {
        return static_cast<std::size_t>(
            std::min_element(free_at.begin(), free_at.end()) -
            free_at.begin());
      }
      // kLeastLoaded / kCapabilityAware: earliest predicted (model-blind)
      // completion, the latter restricted to PCUs that map the request's
      // model with the fleet-minimum number of segmented bank passes (no
      // extra splits).
      std::size_t best = pcus_.size();
      double best_completion = std::numeric_limits<double>::infinity();
      for (std::size_t p = 0; p < pcus_.size(); ++p) {
        if (!capable(p, model)) continue;
        const double start = std::max(arrival, free_at[p]);
        const double completion = start + blind_service(p, model, start);
        if (completion < best_completion) {
          best_completion = completion;
          best = p;
        }
      }
      return best; // the capable set is never empty: the minimum is attained
    };

    double now = 0.0;
    double next = 0.0;
    InferenceRequest request;
    while (queue.next_arrival(next)) {
      now = std::max(now, next);
      while (queue.pop_arrived(now, request)) {
        check_model(request);
        const std::size_t p = pick_pcu(request.arrival_time,
                                       request.model_id);
        const double start = std::max(request.arrival_time, free_at[p]);
        dispatch({request.id, request.arrival_time, request.tenant,
                  request.priority, request.deadline, request.model_id},
                 p, start);
      }
    }
    result.autoscaler.mean_active = static_cast<double>(pcus_.size());
    if (telemetry) telemetry->record_admission(result, *this, options);
    return result;
  }

  // Event-driven mode: arrived requests wait in `pending` and every
  // commitment is deferred to the moment an eligible PCU actually frees.
  // Necessary because (a) EDF lets a later tighter-deadline arrival
  // overtake queued work, (b) shedding is decided from the fleet state at
  // the would-start moment, (c) the autoscaler changes the eligible set
  // over time, and (d) model affinity may hold a request for a busy PCU
  // programmed with its model while a less picky request behind it runs.
  // Events are arrivals and PCU-free instants; the clock only moves
  // forward, so the schedule stays deterministic.
  //
  // kModelAffinity reuses the EDF urgency order: with SLO metadata the
  // most urgent request gets first pick of the fleet; without it the
  // order degenerates to FIFO and only the per-model deferrals reorder.
  std::set<PendingRequest, UrgencyOrder> pending(
      UrgencyOrder{policy == DispatchPolicy::kEdf ||
                   policy == DispatchPolicy::kModelAffinity ||
                   policy == DispatchPolicy::kPipeline});

  double now = 0.0;
  double last_event = 0.0;
  double active_integral = 0.0; // ∫ active_count dt for mean_active
  const auto advance_to = [&](double t) {
    if (t > last_event) {
      active_integral +=
          static_cast<double>(active_count) * (t - last_event);
      last_event = t;
    }
    now = std::max(now, t);
  };

  // --- fault event machinery (only reached when fault_active) ---

  // Fire the pending health-system timer of PCU p at its due time t.
  const auto fire_timer = [&](std::size_t p, double t) {
    const TimerKind kind = timer_kind[p];
    timer_kind[p] = TimerKind::kNone;
    timer_at[p] = std::numeric_limits<double>::infinity();
    switch (kind) {
      case TimerKind::kNone:
        return;
      case TimerKind::kDetectCrash:
        // The health system notices the crash: pull the dead PCU from
        // dispatch. (A recovery before detection clears this timer.)
        if (health[p] == HealthState::kFailed) excluded[p] = 1;
        return;
      case TimerKind::kDetectDegrade: {
        if (health[p] != HealthState::kDegraded) return;
        // Quarantine: out of dispatch, drain the in-flight request, then
        // pay the full repair recalibration (fixed repair time plus the
        // full serial reprogram of whatever model is in the banks).
        close_health(p, t);
        health[p] = HealthState::kQuarantined;
        excluded[p] = 1;
        result.fault.quarantines += 1;
        result.fault.per_pcu[p].quarantines += 1;
        const std::uint32_t m =
            programmed[p] == kNoModel ? 0u : programmed[p];
        const double repair_start = std::max(t, free_at[p]);
        const double repair_end =
            repair_start + faults.repair_time + pcus_[p].swap_time(m);
        result.fault.repair_time += repair_end - repair_start;
        free_at[p] = std::max(free_at[p], repair_end);
        timer_kind[p] = TimerKind::kRepairDone;
        timer_at[p] = repair_end;
        return;
      }
      case TimerKind::kRepairDone:
        // Rejoin healthy with freshly re-trimmed, unprogrammed banks: the
        // next dispatch recalibrates from cold, and every calibration
        // artifact planned for this configuration goes stale.
        close_health(p, t);
        health[p] = HealthState::kHealthy;
        excluded[p] = 0;
        degrade_mult[p] = 1.0;
        programmed[p] = kNoModel;
        force_cold[p] = 1;
        result.fault.repairs += 1;
        result.fault.per_pcu[p].repairs += 1;
        bump_plan_epoch(p);
        return;
    }
    throw Error("invalid TimerKind");
  };

  // Apply one FaultEvent at its timestamp.
  const auto apply_fault = [&](const FaultEvent& e) {
    result.fault.injections += 1;
    const std::size_t p = e.pcu;
    switch (e.kind) {
      case FaultKind::kTransient: {
        result.fault.per_pcu[p].transients += 1;
        if (health[p] == HealthState::kFailed) return; // nothing to corrupt
        const Inflight fl = inflight[p];
        if (fl.valid && fl.completion > e.time &&
            !cancelled[fl.sched_index]) {
          // The victim runs to its scheduled completion (occupying the
          // PCU) but its output is corrupt — detected at completion, when
          // the retry clock starts.
          lose_attempt(fl.req, fl.sched_index, p, FaultKind::kTransient,
                       fl.completion, fl.completion);
          inflight[p].valid = false;
        }
        // A pipelined attempt is corrupted when the fault lands inside one
        // of its stage spans on p; the corruption surfaces only when the
        // final stage completes (earlier stages hand off silently).
        for (const PipeInflight& pf : pipe_inflight) {
          if (cancelled[pf.sched_index]) continue;
          const ScheduledService& s = result.schedule[pf.sched_index];
          for (const StageService& st : s.stages) {
            if (st.pcu == p && st.start <= e.time &&
                e.time < st.completion) {
              lose_attempt(pf.req, pf.sched_index, p, FaultKind::kTransient,
                           s.completion, s.completion);
              break;
            }
          }
        }
        return;
      }
      case FaultKind::kDegrade: {
        if (health[p] == HealthState::kFailed) return; // dead already
        result.fault.per_pcu[p].degrades += 1;
        degrade_mult[p] = std::max(degrade_mult[p], e.severity);
        if (health[p] == HealthState::kHealthy) {
          close_health(p, e.time);
          health[p] = HealthState::kDegraded;
        }
        // Already-quarantined PCUs are being repaired anyway; an earlier
        // pending detection keeps its (earlier) due time.
        if (faults.health_aware && health[p] == HealthState::kDegraded &&
            timer_kind[p] == TimerKind::kNone) {
          timer_kind[p] = TimerKind::kDetectDegrade;
          timer_at[p] = e.time + faults.detection_latency;
        }
        return;
      }
      case FaultKind::kCrash: {
        result.fault.per_pcu[p].crashes += 1;
        if (health[p] == HealthState::kFailed) return; // dead already
        close_health(p, e.time);
        health[p] = HealthState::kFailed;
        // A crash supersedes any pending detection and aborts a repair in
        // progress (the repair never completes: no repairs count, no
        // epoch bump — the banks were never re-trimmed).
        timer_kind[p] = TimerKind::kNone;
        timer_at[p] = std::numeric_limits<double>::infinity();
        if (faults.health_aware) {
          timer_kind[p] = TimerKind::kDetectCrash;
          timer_at[p] = e.time + faults.detection_latency;
        }
        const Inflight fl = inflight[p];
        if (fl.valid && fl.completion > e.time &&
            !cancelled[fl.sched_index]) {
          // The in-flight request dies at fault time; the loss is noticed
          // after the detection latency.
          lose_attempt(fl.req, fl.sched_index, p, FaultKind::kCrash, e.time,
                       e.time + faults.detection_latency);
          inflight[p].valid = false;
        }
        // A crash on p kills every pipelined attempt with a stage span on
        // p not yet complete at fault time — including future spans, whose
        // activation would arrive at a dead PCU.
        for (const PipeInflight& pf : pipe_inflight) {
          if (cancelled[pf.sched_index]) continue;
          const ScheduledService& s = result.schedule[pf.sched_index];
          for (const StageService& st : s.stages) {
            if (st.pcu == p && st.completion > e.time) {
              lose_attempt(pf.req, pf.sched_index, p, FaultKind::kCrash,
                           e.time, e.time + faults.detection_latency);
              break;
            }
          }
        }
        return;
      }
      case FaultKind::kRecover:
        // External repair: back in service healthy, banks freshly
        // re-trimmed and unprogrammed (a mid-quarantine recover completes
        // the repair early; a recover on a healthy PCU is an external
        // re-trim — both count as a repair and bump the epoch).
        close_health(p, e.time);
        health[p] = HealthState::kHealthy;
        excluded[p] = 0;
        degrade_mult[p] = 1.0;
        programmed[p] = kNoModel;
        force_cold[p] = 1;
        free_at[p] = std::max(free_at[p], e.time);
        timer_kind[p] = TimerKind::kNone;
        timer_at[p] = std::numeric_limits<double>::infinity();
        result.fault.repairs += 1;
        result.fault.per_pcu[p].repairs += 1;
        bump_plan_epoch(p);
        return;
    }
    throw Error("invalid FaultKind");
  };

  // Re-place every pipeline group whose healthy member set changed — a
  // member got quarantined or declared dead (excluded) or repaired back in.
  // place_pipeline is a pure function of the surviving members, so the
  // re-placement is deterministic; pins reset because new stage ranges mean
  // freshly reprogrammed banks.
  const auto refresh_pipelines = [&] {
    if (!pipelined) return;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      std::vector<std::size_t> healthy_members;
      for (std::size_t p : groups[g].members)
        if (!excluded[p]) healthy_members.push_back(p);
      if (healthy_members == last_healthy[g]) continue;
      last_healthy[g] = healthy_members;
      place_pipeline(groups[g], healthy_members);
      pinned[g].assign(groups[g].stages.size(), 0);
      result.pipeline.replacements += 1;
    }
  };

  // Earliest pending health timer (ties: lowest PCU index).
  const auto next_timer = [&]() -> std::pair<double, std::size_t> {
    double best = std::numeric_limits<double>::infinity();
    std::size_t who = pcus_.size();
    for (std::size_t p = 0; p < pcus_.size(); ++p) {
      if (timer_at[p] < best) {
        best = timer_at[p];
        who = p;
      }
    }
    return {best, who};
  };

  const auto next_fault_time = [&]() -> double {
    return fault_cursor < faults.schedule.size()
               ? faults.schedule[fault_cursor].time
               : std::numeric_limits<double>::infinity();
  };

  // Earliest instant the health system acts next (timer or injection).
  const auto next_health_event = [&]() -> double {
    return std::min(next_timer().first, next_fault_time());
  };

  // Process every health timer and fault event due by `t`, each at its own
  // timestamp (timers first on exact ties: detection/repair outcomes must
  // be visible to a fault striking at the same instant).
  const auto process_events_to = [&](double t) {
    while (true) {
      const auto [tt, tp] = next_timer();
      const double ft = next_fault_time();
      if (tt <= ft) {
        if (tt > t) break;
        advance_to(tt);
        fire_timer(tp, tt);
      } else {
        if (ft > t) break;
        advance_to(ft);
        apply_fault(faults.schedule[fault_cursor]);
        fault_cursor += 1;
      }
      // Either branch may have changed a PCU's exclusion; pipeline groups
      // re-place over their surviving members immediately.
      refresh_pipelines();
    }
  };

  // Every clock advance of the event-driven loop goes through here so
  // faults strike in order, at their own timestamps, before the loop acts
  // at `t`. Identical to advance_to when no faults are injected.
  const auto step_to = [&](double t) {
    if (fault_active) process_events_to(t);
    advance_to(t);
  };

  // Drain every permanently-undispatchable request into the loss record —
  // the fleet died (or stayed incapable) with them still waiting and no
  // future event can change that.
  const auto drain_all_lost = [&](std::set<PendingRequest, UrgencyOrder>&
                                      pending_set) {
    for (const PendingRequest& r : pending_set) {
      result.fault.lost_requests += 1;
      result.fault.losses.push_back(
          {r.id, r.tenant, r.priority, r.arrival, now, r.attempts - 1});
    }
    pending_set.clear();
    for (const RetryEntry& e : retries) {
      result.fault.lost_requests += 1;
      result.fault.losses.push_back({e.req.id, e.req.tenant, e.req.priority,
                                     e.req.arrival, now,
                                     e.req.attempts - 1});
    }
    retries.clear();
  };

  // Shrink: deactivate PCUs idle at least shrink_after_idle, highest
  // index first, never below min_active. A busy PCU (free_at > now) has
  // negative idle time and is never touched.
  const auto shrink_idle = [&] {
    if (scaler.shrink_after_idle <= 0.0) return;
    for (std::size_t i = pcus_.size(); i-- > 0 && active_count > min_active;) {
      // A reserved PCU (pipeline group member) is never parked: the group
      // admits work at the head's pace and any member going cold would
      // stall the whole chain. `reserved` is all-zero without kPipeline.
      if (!active[i] || reserved[i]) continue;
      const double idle_from = std::max(free_at[i], activated_at[i]);
      if (now - idle_from >= scaler.shrink_after_idle) {
        active[i] = 0;
        active_count -= 1;
        result.autoscaler.scale_downs += 1;
      }
    }
  };

  // Grow: activate the lowest-indexed inactive PCU while the pending
  // backlog exceeds the per-PCU budget. Activation forces a cold start:
  // the pipeline of a parked PCU has drained no matter its WarmupPolicy.
  const auto grow_on_backlog = [&] {
    while (active_count < max_active &&
           static_cast<double>(pending.size()) >
               scaler.backlog_per_pcu * static_cast<double>(active_count)) {
      // Skip health-excluded PCUs: activating a quarantined or
      // detected-dead PCU would waste the slot (excluded is always clear
      // without fault injection).
      std::size_t p = 0;
      while (p < pcus_.size() && (active[p] || excluded[p])) ++p;
      if (p == pcus_.size()) break; // every inactive PCU is unhealthy
      active[p] = 1;
      force_cold[p] = 1;
      activated_at[p] = now;
      active_count += 1;
      result.autoscaler.scale_ups += 1;
    }
    // Under kPipeline, reserved group members inflate active_count but
    // never serve group-less models, so the backlog threshold alone can
    // park every unreserved PCU forever. If a pending request's model has
    // no (surviving) pipeline group while no unreserved PCU is awake,
    // force one up — the fallback path must never starve behind the
    // reserved fleet.
    if (pipelined && active_count < max_active) {
      bool groupless_pending = false;
      for (const PendingRequest& r : pending) {
        const PipelineGroup* g = nullptr;
        for (const PipelineGroup& cand : groups)
          if (cand.model == r.model) g = &cand;
        if (g == nullptr || g->stages.empty()) {
          groupless_pending = true;
          break;
        }
      }
      bool any_unreserved_awake = false;
      if (groupless_pending) {
        for (std::size_t p = 0; p < pcus_.size(); ++p)
          if (active[p] && !reserved[p] && !excluded[p])
            any_unreserved_awake = true;
      }
      if (groupless_pending && !any_unreserved_awake) {
        for (std::size_t p = 0; p < pcus_.size(); ++p) {
          if (active[p] || excluded[p] || reserved[p]) continue;
          active[p] = 1;
          force_cold[p] = 1;
          activated_at[p] = now;
          active_count += 1;
          result.autoscaler.scale_ups += 1;
          break;
        }
      }
    }
  };

  InferenceRequest request;
  while (true) {
    // Re-enqueue retries whose backoff has expired: they re-enter the
    // pending set with their original arrival (and id, hence seed) and
    // compete under the normal urgency order.
    if (fault_active) {
      while (!retries.empty() && retries.begin()->ready <= now) {
        pending.insert(retries.begin()->req);
        retries.erase(retries.begin());
      }
    }

    // Admit everything that has arrived by `now` into the pending set.
    while (queue.pop_arrived(now, request)) {
      check_model(request);
      pending.insert({request.id, request.arrival_time, request.tenant,
                      request.priority, request.deadline,
                      request.model_id});
    }

    if (pending.empty()) {
      double next = std::numeric_limits<double>::infinity();
      double na = 0.0;
      if (queue.next_arrival(na)) next = na;
      if (fault_active) {
        if (!retries.empty()) next = std::min(next, retries.begin()->ready);
        // Faults can still destroy work in flight: process health events
        // up to the latest in-flight completion. Events past it are past
        // the end of the simulated timeline and never fire.
        double in_flight_until = -std::numeric_limits<double>::infinity();
        for (std::size_t p = 0; p < pcus_.size(); ++p) {
          if (inflight[p].valid && !cancelled[inflight[p].sched_index])
            in_flight_until =
                std::max(in_flight_until, inflight[p].completion);
        }
        for (const PipeInflight& pf : pipe_inflight) {
          if (!cancelled[pf.sched_index])
            in_flight_until =
                std::max(in_flight_until,
                         result.schedule[pf.sched_index].completion);
        }
        const double ev = next_health_event();
        if (ev <= in_flight_until) next = std::min(next, ev);
      }
      if (!std::isfinite(next)) break; // drained: done
      step_to(next);
      continue;
    }

    if (scaler.enabled) {
      shrink_idle();
      grow_on_backlog();
    }

    // The next dispatch opportunity: the earliest instant an eligible
    // (active, not health-excluded, capable-of-some-model) PCU is free.
    double free_time = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < pcus_.size(); ++p) {
      if (!active[p] || excluded[p] || !scan_capable(p)) continue;
      free_time = std::min(free_time, std::max(now, free_at[p]));
    }
    if (!std::isfinite(free_time)) {
      PCNNA_CHECK_MSG(fault_active,
                      "no active capable PCU to dispatch to — autoscaler "
                      "min_active excludes every capable PCU");
      // The whole fleet is dead or quarantined. Wait for whatever event
      // can change that (a repair, a recovery, more arrivals); if nothing
      // ever will, everything still waiting is permanently lost.
      double next_event = std::numeric_limits<double>::infinity();
      double na = 0.0;
      if (queue.next_arrival(na)) next_event = na;
      if (!retries.empty())
        next_event = std::min(next_event, retries.begin()->ready);
      next_event = std::min(next_event, next_health_event());
      if (!std::isfinite(next_event)) {
        drain_all_lost(pending);
        break;
      }
      step_to(next_event);
      continue;
    }

    // If another request arrives before (or exactly when) a PCU frees,
    // admit it first: under EDF it may be more urgent than anything
    // already pending.
    double next = 0.0;
    if (queue.next_arrival(next) && next <= free_time) {
      step_to(next);
      continue;
    }
    if (fault_active) {
      // Same for a retry whose backoff expires, or a health event — a
      // fault could kill the very PCU the dispatch below would pick, so
      // events strictly before (or at) the free instant are applied and
      // the picture re-evaluated first.
      double ev = next_health_event();
      if (!retries.empty()) ev = std::min(ev, retries.begin()->ready);
      if (ev <= free_time) {
        step_to(ev);
        continue;
      }
    }
    step_to(free_time);

    // Walk the pending set in urgency order and act on the first request
    // that can: dispatch it to a free PCU, or shed it. A request may
    // instead *defer* — under kModelAffinity, to wait for a busy PCU
    // programmed with its model; under multi-model kCapabilityAware, when
    // every PCU capable of its model is busy — and then the next pending
    // request gets its chance. On a single-model stream nothing ever
    // defers (the free event guarantees a free capable PCU), so this loop
    // acts on *pending.begin() exactly like the pre-multi-model code.
    if (telemetry) telemetry->on_queue_depth(now, pending.size());
    bool acted = false;
    for (auto it = pending.begin(); it != pending.end(); ++it) {
      const PendingRequest r = *it;
      std::size_t best = pcus_.size();
      double best_score = std::numeric_limits<double>::infinity();

      // Health-aware capability downgrade: under the capability-sensitive
      // policies a degraded PCU no longer meets the bar — unless no
      // fully-healthy capable PCU is dispatchable for this model at all,
      // in which case degraded capacity beats none.
      bool allow_degraded = true;
      if (fault_active && (policy == DispatchPolicy::kCapabilityAware ||
                           policy == DispatchPolicy::kModelAffinity)) {
        for (std::size_t p = 0; p < pcus_.size(); ++p) {
          if (active[p] && !excluded[p] && capable(p, r.model) &&
              health[p] == HealthState::kHealthy) {
            allow_degraded = false;
            break;
          }
        }
      }
      // Dispatch eligibility of PCU p for this request. Reduces exactly to
      // active && capable when no faults are injected.
      const auto elig = [&](std::size_t p) {
        if (!active[p] || !capable(p, r.model)) return false;
        if (!fault_active) return true;
        if (excluded[p]) return false;
        return allow_degraded || health[p] != HealthState::kDegraded;
      };

      if (policy == DispatchPolicy::kPipeline) {
        // Route to the model's pipeline group. The head PCU gates
        // admission: a new image enters the pipeline when stage 0 frees,
        // and downstream stages chain from the hand-off instants.
        std::size_t gi = groups.size();
        for (std::size_t g = 0; g < groups.size(); ++g) {
          if (groups[g].model == r.model) {
            gi = g;
            break;
          }
        }
        if (gi < groups.size() && !groups[gi].stages.empty()) {
          const PipelineGroup& g = groups[gi];
          const std::size_t head = g.stages.front().pcu;
          if (free_at[head] > now) continue; // defer until stage 0 frees
          // Chain the stage spans: stage j starts once the previous
          // stage's activation has crossed the inter-stage link AND the
          // stage's PCU is free (busy with image i-1 of the same stream).
          std::vector<StageService> spans;
          spans.reserve(g.stages.size());
          double prev = now;
          double total_pin = 0.0;
          double total_handoff = 0.0;
          for (std::size_t j = 0; j < g.stages.size(); ++j) {
            const PipelineStage& st = g.stages[j];
            const double handoff = j == 0 ? 0.0 : g.handoff_time;
            const double start = std::max(prev + handoff, free_at[st.pcu]);
            // The pin — the stage range's first-layer recalibration — is
            // paid once per placement; afterwards the stage's banks never
            // change (that is the whole point of pipelining: zero swaps).
            const double pin =
                (pinned[gi][j] ? 0.0 : st.timings.pin) *
                degrade_factor(st.pcu);
            const double span =
                st.timings.interval * degrade_factor(st.pcu) + pin;
            spans.push_back({j, st.pcu, st.op_begin, st.op_end, start,
                             start + span, pin, handoff});
            total_pin += pin;
            total_handoff += handoff;
            prev = start + span;
          }
          const double completion = spans.back().completion;
          if (options.shed_expired && completion > r.deadline) {
            result.shed.shed += 1;
            result.shed.per_tenant[r.tenant] += 1;
            result.shed.decisions.push_back(
                {r.id, r.tenant, r.priority, r.arrival, r.deadline, now});
          } else {
            for (std::size_t j = 0; j < spans.size(); ++j) {
              const std::size_t p = spans[j].pcu;
              free_at[p] = spans[j].completion;
              served[p] += 1;
              force_cold[p] = 0;
              programmed[p] = r.model;
              pinned[gi][j] = 1;
            }
            ScheduledService entry;
            entry.id = r.id;
            entry.pcu = head;
            entry.arrival = r.arrival;
            entry.start = spans.front().start;
            entry.completion = completion;
            entry.warmup = total_pin;
            entry.tenant = r.tenant;
            entry.priority = r.priority;
            entry.deadline = r.deadline;
            entry.model = r.model;
            entry.attempts = r.attempts;
            entry.stages = std::move(spans);
            result.schedule.push_back(std::move(entry));
            result.pipeline.pipelined_requests += 1;
            result.pipeline.stage_spans +=
                result.schedule.back().stages.size();
            if (telemetry)
              telemetry->on_dispatch(/*swapped=*/false, /*pipelined=*/true);
            result.pipeline.pin_time += total_pin;
            result.pipeline.handoff_time += total_handoff;
            if (fault_active) {
              cancelled.push_back(0);
              const std::size_t idx = result.schedule.size() - 1;
              // Dispatching across an undetected-dead stage PCU is a
              // black hole, same as the single-PCU case: the loss is only
              // noticed at the predicted completion.
              std::size_t dead_pcu = pcus_.size();
              for (const StageService& s : result.schedule[idx].stages) {
                if (health[s.pcu] == HealthState::kFailed) {
                  dead_pcu = s.pcu;
                  break;
                }
              }
              if (dead_pcu < pcus_.size()) {
                lose_attempt(r, idx, dead_pcu, FaultKind::kCrash,
                             completion, completion);
              } else {
                pipe_inflight.push_back({idx, r});
              }
            }
          }
          pending.erase(it);
          acted = true;
          break;
        }
        // No pipeline group for this model — or the group lost every
        // member. Fall back to least-loaded over the unreserved fleet so
        // mixed deployments (some models pipelined, some not) still serve.
        for (std::size_t p = 0; p < pcus_.size(); ++p) {
          if (reserved[p] || !elig(p) || free_at[p] > now) continue;
          const double score = now + blind_service(p, r.model, now);
          if (score < best_score) {
            best_score = score;
            best = p;
          }
        }
        if (best == pcus_.size()) {
          bool any_unreserved = false;
          for (std::size_t p = 0; p < pcus_.size(); ++p)
            if (!reserved[p] && active[p] && capable(p, r.model))
              any_unreserved = true;
          PCNNA_CHECK_MSG(any_unreserved || fault_active,
                          "model " << r.model
                                   << " has no pipeline group and every "
                                      "PCU is reserved by one");
          continue; // defer until an unreserved PCU frees
        }
      } else if (policy == DispatchPolicy::kModelAffinity) {
        // (a) Free PCU already programmed with r.model: earliest truthful
        // completion wins (no swap by construction).
        for (std::size_t p = 0; p < pcus_.size(); ++p) {
          if (!elig(p) || free_at[p] > now || programmed[p] != r.model)
            continue;
          const double score = now + true_service(p, r.model, now);
          if (score < best_score) {
            best_score = score;
            best = p;
          }
        }
        if (best == pcus_.size()) {
          // (b) Every affine PCU is busy (or none exists). Waiting for
          // the soonest busy affine PCU predicts completion at its free
          // time plus a warm steady-state interval; falling back means
          // swapping onto the best free capable PCU now. Wait only when
          // waiting both meets the deadline and is at least as fast —
          // otherwise the affinity queue would blow the SLO (or just
          // lose throughput) for the sake of a swap.
          double affine_completion =
              std::numeric_limits<double>::infinity();
          for (std::size_t p = 0; p < pcus_.size(); ++p) {
            if (!elig(p) || programmed[p] != r.model || free_at[p] <= now)
              continue;
            affine_completion =
                std::min(affine_completion,
                         free_at[p] + pcus_[p].request_interval_overlapped(
                                          r.model) *
                                          degrade_factor(p));
          }
          for (std::size_t p = 0; p < pcus_.size(); ++p) {
            if (!elig(p) || free_at[p] > now) continue;
            const double score = now + true_service(p, r.model, now);
            if (score < best_score) {
              best_score = score;
              best = p;
            }
          }
          if (std::isfinite(affine_completion) &&
              affine_completion <= r.deadline &&
              affine_completion <= best_score) {
            continue; // defer: hold out for the busy affine PCU
          }
          if (best == pcus_.size()) {
            // No free capable PCU either; r waits for a busy one.
            bool any_capable = false;
            for (std::size_t p = 0; p < pcus_.size(); ++p)
              if (active[p] && capable(p, r.model)) any_capable = true;
            PCNNA_CHECK_MSG(any_capable || fault_active,
                            "no active PCU capable of model " << r.model);
            continue;
          }
        }
      } else {
        // Legacy policies: best free (active, capable) PCU. kEarliestFree
        // keeps its longest-free-wins score; the others take the earliest
        // predicted (model-blind) completion.
        for (std::size_t p = 0; p < pcus_.size(); ++p) {
          if (!elig(p) || free_at[p] > now) continue;
          const double score =
              policy == DispatchPolicy::kEarliestFree
                  ? free_at[p]
                  : now + blind_service(p, r.model, now);
          if (score < best_score) {
            best_score = score;
            best = p;
          }
        }
        if (best == pcus_.size()) {
          // Only reachable multi-model under kCapabilityAware: every PCU
          // capable of r.model is busy, so r waits while less demanding
          // pending requests may still dispatch.
          bool any_capable = false;
          for (std::size_t p = 0; p < pcus_.size(); ++p)
            if (active[p] && capable(p, r.model)) any_capable = true;
          PCNNA_CHECK_MSG(any_capable || fault_active,
                          "no active PCU capable of model " << r.model);
          continue;
        }
      }

      if (options.shed_expired &&
          now + true_service(best, r.model, now) > r.deadline) {
        // Predicted completion blows the SLO: reject now, at the moment
        // the dispatch decision is made, instead of serving uselessly
        // late.
        result.shed.shed += 1;
        result.shed.per_tenant[r.tenant] += 1;
        result.shed.decisions.push_back(
            {r.id, r.tenant, r.priority, r.arrival, r.deadline, now});
      } else {
        dispatch(r, best, now);
      }
      pending.erase(it);
      acted = true;
      break;
    }

    if (!acted) {
      // Every pending request deferred: nothing can start at `now`.
      // Advance to the next event that can change the picture — the next
      // arrival, the next strictly-later free time of an eligible PCU, or
      // (with faults) the next retry expiry or health event.
      double next_event = std::numeric_limits<double>::infinity();
      if (queue.next_arrival(next)) next_event = next;
      for (std::size_t p = 0; p < pcus_.size(); ++p) {
        if (!active[p] || excluded[p] || !scan_capable(p) ||
            free_at[p] <= now)
          continue;
        next_event = std::min(next_event, free_at[p]);
      }
      if (fault_active) {
        if (!retries.empty())
          next_event = std::min(next_event, retries.begin()->ready);
        next_event = std::min(next_event, next_health_event());
      }
      if (!std::isfinite(next_event)) {
        PCNNA_CHECK_MSG(fault_active,
                        "admission deadlock: every pending request is "
                        "deferred with no future event");
        // No PCU will ever become dispatchable for what remains.
        drain_all_lost(pending);
        break;
      }
      step_to(next_event);
    }
  }

  if (fault_active) {
    // Repairs complete even after the last request — fire every remaining
    // health timer for the availability/repair accounting. (Remaining
    // fault *events* are past the end of the simulated timeline and never
    // fire.)
    while (true) {
      const auto [tt, tp] = next_timer();
      if (!std::isfinite(tt)) break;
      advance_to(tt);
      fire_timer(tp, tt);
    }
    // Drop destroyed attempts from the schedule (stable), keeping only
    // the attempt that actually served each request.
    std::vector<ScheduledService> kept;
    kept.reserve(result.schedule.size());
    for (std::size_t i = 0; i < result.schedule.size(); ++i) {
      if (!cancelled[i]) kept.push_back(result.schedule[i]);
    }
    result.schedule = std::move(kept);
    for (const ScheduledService& s : result.schedule) {
      if (s.attempts > 1) result.fault.recovered_requests += 1;
    }
  }

  // Close the mean-active integral at the makespan (the last completion —
  // destroyed attempts included — or the last event when everything was
  // shed).
  double makespan = last_event;
  for (const ScheduledService& s : result.schedule)
    makespan = std::max(makespan, s.completion);
  if (fault_active) {
    for (const FaultedAttempt& a : result.fault.attempts)
      makespan = std::max(makespan, a.end);
  }
  advance_to(makespan);
  result.autoscaler.mean_active =
      makespan > 0.0 ? active_integral / makespan
                     : static_cast<double>(active_count);

  if (fault_active) {
    // Close every health dwell bucket at the makespan and derive per-PCU
    // availability (the in-service fraction of the run).
    for (std::size_t p = 0; p < pcus_.size(); ++p) {
      close_health(p, makespan);
      PcuHealthStats& hs = result.fault.per_pcu[p];
      hs.availability =
          makespan > 0.0
              ? (hs.healthy_time + hs.degraded_time) / makespan
              : 1.0;
    }
  }
  if (telemetry) telemetry->record_admission(result, *this, options);
  return result;
}

std::vector<ScheduledService> PcuPool::simulate_admission(
    RequestQueue& queue, bool double_buffer, DispatchPolicy policy) {
  AdmissionOptions options;
  options.double_buffer = double_buffer;
  options.policy = policy;
  return simulate_admission(queue, options).schedule;
}

} // namespace pcnna::runtime
