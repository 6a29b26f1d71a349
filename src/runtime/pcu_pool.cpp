#include "runtime/pcu_pool.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "core/stage_partitioner.hpp"

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

PcuPool::PcuPool(std::vector<PcuSpec> specs, core::TimingFidelity fidelity,
                 const nn::Network& net, const nn::NetWeights& weights) {
  PCNNA_CHECK_MSG(!specs.empty(), "a PcuPool needs at least one PCU");
  nn::validate_weights(net, weights);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    try {
      specs[i].config.validate();
    } catch (const Error& e) {
      throw Error("PCU " + std::to_string(i) + ": " + e.what());
    }
  }
  pcus_.reserve(specs.size());
  const core::PcnnaConfig& reference = specs.front().config;
  std::size_t min_passes = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const core::PcnnaConfig& config = specs[i].config;
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
  nn::validate_weights(net, weights);
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

  // Ids the schedule skips (shed or fault-lost requests) stay placeholders,
  // but per-tenant and per-model accounting must still see who they were.
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
        const nn::Tensor* input = &requests[s.id].input;
        if (e.stage > 0) {
          in = handoffs[e.sched][e.stage - 1].get();
          input = &in.activation;
        }
        StageHandoff out = pcus_[p].serve_stage(
            s.model, span.op_begin, span.op_end, *input, requests[s.id].seed,
            in.energy, simulate_values);
        out.work += in.work; // chain the work counters
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

} // namespace pcnna::runtime
