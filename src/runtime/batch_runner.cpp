#include "runtime/batch_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <ostream>
#include <utility>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/report.hpp"
#include "runtime/telemetry.hpp"

namespace pcnna::runtime {

namespace {

/// Homogeneous-fleet recipe: options.num_pcus copies of one spec.
std::vector<PcuSpec> replicate_spec(core::PcnnaConfig config,
                                    const BatchRunnerOptions& options) {
  PcuSpec spec;
  spec.config = std::move(config);
  return std::vector<PcuSpec>(options.num_pcus, spec);
}

/// BatchRunnerOptions::engine_threads > 0 overrides the intra-image engine
/// parallelism of every PCU in the fleet.
std::vector<PcuSpec> apply_fleet_engine_threads(
    std::vector<PcuSpec> specs, const BatchRunnerOptions& options) {
  if (options.engine_threads > 0)
    for (PcuSpec& spec : specs)
      spec.config.engine_threads = options.engine_threads;
  return specs;
}

} // namespace

BatchRunner::BatchRunner(core::PcnnaConfig config, nn::Network net,
                         nn::NetWeights weights, BatchRunnerOptions options)
    : BatchRunner(replicate_spec(std::move(config), options), std::move(net),
                  std::move(weights), options) {}

BatchRunner::BatchRunner(std::vector<PcuSpec> specs, nn::Network net,
                         nn::NetWeights weights, BatchRunnerOptions options)
    : net_(std::move(net)),
      weights_(std::move(weights)),
      options_(options),
      pool_(apply_fleet_engine_threads(std::move(specs), options),
            options.fidelity, net_, weights_) {
  options_.num_pcus = pool_.size();
}

std::vector<InferenceRequest> BatchRunner::make_requests(
    const std::vector<nn::Tensor>& inputs, const ArrivalSchedule& arrivals,
    const SloSchedule& slos, const ModelSchedule& models) const {
  std::vector<InferenceRequest> requests;
  requests.reserve(inputs.size());
  for (std::size_t id = 0; id < inputs.size(); ++id) {
    InferenceRequest request;
    request.id = id;
    request.seed = derive_request_seed(options_.seed, id);
    request.arrival_time = arrivals.empty() ? 0.0 : arrivals[id];
    if (!slos.empty()) {
      request.tenant = slos[id].tenant;
      request.priority = slos[id].priority;
      request.deadline = slos[id].deadline;
    }
    if (!models.empty()) request.model_id = models[id];
    request.input = inputs[id];
    requests.push_back(std::move(request));
  }
  return requests;
}

std::uint32_t BatchRunner::register_model(nn::Network net,
                                          nn::NetWeights weights) {
  extra_models_.emplace_back(std::move(net), std::move(weights));
  auto& [stored_net, stored_weights] = extra_models_.back();
  return pool_.register_model(stored_net, stored_weights);
}

bool BatchRunner::shards_dynamically() const {
  return pool_.homogeneous() && !options_.shed_expired &&
         !options_.faults.enabled() &&
         options_.dispatch != DispatchPolicy::kPipeline;
}

std::vector<RequestResult> BatchRunner::serve(
    std::vector<InferenceRequest> requests,
    const std::vector<ScheduledService>& schedule, bool simulate_values) {
  if (shards_dynamically()) {
    // Any PCU computes the same bits for a request, so the fastest host
    // thread simply grabs the next one.
    const std::size_t batch = requests.size();
    RequestQueue queue;
    for (InferenceRequest& request : requests) queue.push(std::move(request));
    queue.close();
    return pool_.serve_all(queue, batch, simulate_values);
  }
  // The scheduled PCU's device model must produce each output; the schedule
  // also decides which requests run at all (shed and fault-lost ids stay
  // placeholders) and splits pipelined ones into chained stage spans.
  return pool_.serve_scheduled(std::move(requests), schedule, simulate_values);
}

std::vector<RequestResult> BatchRunner::run(
    const std::vector<nn::Tensor>& inputs, FleetReport* report) {
  const std::size_t batch = inputs.size();

  // Deterministic virtual-time schedule: the closed batch is the
  // degenerate all-at-t=0 arrival process, so the same admission loop
  // that prices open-loop serving prices it. Dynamic sharding without a
  // report skips it (it needs no assignment).
  AdmissionResult admission;
  if (report || !shards_dynamically())
    admission = simulate_admission_result(closed_batch_arrivals(batch), {}, {});
  const std::vector<ScheduledService>& schedule = admission.schedule;

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<RequestResult> results = serve(
      make_requests(inputs, {}, {}, {}), schedule, options_.simulate_values);
  const auto wall_end = std::chrono::steady_clock::now();
  for (const RequestLoss& l : admission.fault.losses)
    results[static_cast<std::size_t>(l.id)].failed = true;

  if (report) {
    const Pcu& reference = pool_.pcu(0);
    FleetReport r;
    r.pcus = pool_.size();
    r.requests = batch;
    r.fidelity = options_.fidelity;
    r.double_buffer = options_.double_buffer;
    r.dispatch = options_.dispatch;
    r.request_time_serial = reference.request_time_serial();
    r.request_interval = options_.double_buffer
                             ? reference.request_interval_overlapped()
                             : reference.request_time_serial();
    r.overlap_speedup = r.request_interval > 0.0
                            ? r.request_time_serial / r.request_interval
                            : 1.0;
    r.sequential_rps = r.request_time_serial > 0.0
                           ? 1.0 / r.request_time_serial
                           : 0.0;
    // Latency and throughput count the served requests only: the schedule
    // omits requests injected faults destroyed.
    const std::size_t served = schedule.size();
    double latency_sum = 0.0;
    for (const ScheduledService& s : schedule) {
      latency_sum += s.completion;
      r.max_latency = std::max(r.max_latency, s.completion);
    }
    r.makespan = fill_breakdowns(schedule, r.per_pcu);
    r.makespan_sequential =
        static_cast<double>(batch) * r.request_time_serial;
    r.throughput_rps =
        r.makespan > 0.0 ? static_cast<double>(served) / r.makespan : 0.0;
    r.speedup_vs_sequential =
        r.makespan > 0.0 ? r.makespan_sequential / r.makespan : 1.0;
    r.scaling_efficiency =
        r.speedup_vs_sequential / static_cast<double>(r.pcus);
    r.mean_latency =
        served == 0 ? 0.0 : latency_sum / static_cast<double>(served);

    for (const RequestResult& result : results) r.total_energy += result.energy;
    r.energy_per_request =
        batch == 0 ? 0.0 : r.total_energy / static_cast<double>(batch);
    r.wall_seconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    *report = std::move(r);
  }
  return results;
}

std::vector<RequestResult> BatchRunner::run_open_loop(
    const std::vector<nn::Tensor>& inputs, const ArrivalSchedule& arrivals,
    OpenLoopReport* report, const SloSchedule& slos,
    const ModelSchedule& models) {
  PCNNA_CHECK_MSG(arrivals.size() == inputs.size(),
                  "open loop needs one arrival per input: "
                      << arrivals.size() << " arrivals for " << inputs.size()
                      << " inputs");
  PCNNA_CHECK_MSG(slos.empty() || slos.size() == arrivals.size(),
                  "SLO schedule covers " << slos.size() << " requests but "
                                         << arrivals.size() << " arrive");
  PCNNA_CHECK_MSG(models.empty() || models.size() == arrivals.size(),
                  "model schedule covers " << models.size() << " requests but "
                                           << arrivals.size() << " arrive");
  validate_arrival_schedule(arrivals);

  // On a homogeneous fleet physical serving is identical to the closed
  // batch: arrival times shape only the virtual-time schedule, never the
  // per-request seeds, so the outputs stay bit-identical to
  // run()/run_one(). Serving that follows the schedule's PCU assignment
  // needs the schedule; so do the report and telemetry.
  AdmissionResult admission;
  if (report || options_.telemetry || !shards_dynamically())
    admission = simulate_admission_result(arrivals, slos, models);

  const std::size_t batch = inputs.size();
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<RequestResult> results =
      serve(make_requests(inputs, arrivals, slos, models), admission.schedule,
            options_.simulate_values);
  const auto wall_end = std::chrono::steady_clock::now();
  for (const ShedDecision& d : admission.shed.decisions)
    results[static_cast<std::size_t>(d.id)].shed = true;
  for (const RequestLoss& l : admission.fault.losses)
    results[static_cast<std::size_t>(l.id)].failed = true;

  if (report || options_.telemetry) {
    OpenLoopReport r = summarize_schedule(admission, arrivals);
    for (const RequestResult& result : results) r.total_energy += result.energy;
    r.energy_per_request =
        batch == 0 ? 0.0 : r.total_energy / static_cast<double>(batch);
    r.wall_seconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    if (options_.telemetry) {
      options_.telemetry->record_results(results);
      options_.telemetry->record_report(r);
    }
    if (report) *report = std::move(r);
  }
  return results;
}

OpenLoopReport BatchRunner::simulate_open_loop(const ArrivalSchedule& arrivals,
                                               const SloSchedule& slos,
                                               const ModelSchedule& models) {
  PCNNA_CHECK_MSG(slos.empty() || slos.size() == arrivals.size(),
                  "SLO schedule covers " << slos.size() << " requests but "
                                         << arrivals.size() << " arrive");
  PCNNA_CHECK_MSG(models.empty() || models.size() == arrivals.size(),
                  "model schedule covers " << models.size() << " requests but "
                                           << arrivals.size() << " arrive");
  validate_arrival_schedule(arrivals);
  const AdmissionResult admission =
      simulate_admission_result(arrivals, slos, models);
  OpenLoopReport r = summarize_schedule(admission, arrivals);
  // Timing-only energy: the per-request analytical total of the PCU each
  // request was dispatched to, which the functional path reproduces
  // (values never change layer energy). Shed requests burn no energy.
  for (const ScheduledService& s : admission.schedule)
    r.total_energy += pool_.pcu(s.pcu).request_energy(s.model);
  r.energy_per_request = r.requests == 0
                             ? 0.0
                             : r.total_energy /
                                   static_cast<double>(r.requests);
  if (options_.telemetry) options_.telemetry->record_report(r);
  return r;
}

AdmissionResult BatchRunner::simulate_admission_result(
    const ArrivalSchedule& arrivals, const SloSchedule& slos,
    const ModelSchedule& models) {
  // Lightweight replay stream: the admission loop needs only ids, arrival
  // timestamps, and SLO/model metadata, so the tensors stay behind.
  RequestQueue queue;
  for (std::size_t id = 0; id < arrivals.size(); ++id) {
    InferenceRequest request;
    request.id = id;
    request.arrival_time = arrivals[id];
    if (!slos.empty()) {
      request.tenant = slos[id].tenant;
      request.priority = slos[id].priority;
      request.deadline = slos[id].deadline;
    }
    if (!models.empty()) request.model_id = models[id];
    queue.push(std::move(request));
  }
  queue.close();
  AdmissionOptions admission;
  admission.double_buffer = options_.double_buffer;
  admission.policy = options_.dispatch;
  admission.shed_expired = options_.shed_expired;
  admission.autoscaler = options_.autoscaler;
  admission.faults = options_.faults;
  admission.telemetry = options_.telemetry;
  return pool_.simulate_admission(queue, admission);
}

double BatchRunner::fill_breakdowns(
    const std::vector<ScheduledService>& schedule,
    std::vector<PcuBreakdown>& out) const {
  out.assign(pool_.size(), PcuBreakdown{});
  for (std::size_t p = 0; p < pool_.size(); ++p)
    out[p].tag = pool_.pcu(p).tag();
  double makespan = 0.0;
  for (const ScheduledService& s : schedule) {
    if (!s.stages.empty()) {
      // Pipelined request: the request count goes to the head PCU, but
      // each stage span is busy time on the PCU that actually ran it (the
      // whole-chain completion - start would overcount the head, which is
      // busy only for its own stage). Stage pins land as warmup on their
      // own PCU; pipelined service never swaps.
      out[s.pcu].requests += 1;
      for (const StageService& st : s.stages) {
        out[st.pcu].busy_time += st.completion - st.start;
        out[st.pcu].warmup_time += st.pin;
      }
      makespan = std::max(makespan, s.completion);
      continue;
    }
    PcuBreakdown& b = out[s.pcu];
    b.requests += 1;
    b.busy_time += s.completion - s.start;
    b.warmup_time += s.warmup;
    if (s.swapped) b.swaps += 1;
    b.swap_time += s.swap;
    makespan = std::max(makespan, s.completion);
  }
  if (makespan > 0.0)
    for (PcuBreakdown& b : out) b.utilization = b.busy_time / makespan;
  return makespan;
}

OpenLoopReport BatchRunner::summarize_schedule(
    const AdmissionResult& admission, const ArrivalSchedule& arrivals) const {
  const std::vector<ScheduledService>& schedule = admission.schedule;
  OpenLoopReport r;
  r.pcus = pool_.size();
  r.served_requests = schedule.size();
  r.shed_requests = admission.shed.shed;
  r.failed_requests = admission.fault.losses.size();
  r.fault = admission.fault;
  r.requests =
      r.served_requests + r.shed_requests + r.failed_requests; // offered
  r.shed_rate = r.requests == 0
                    ? 0.0
                    : static_cast<double>(r.shed_requests) /
                          static_cast<double>(r.requests);
  r.autoscaler = admission.autoscaler;
  r.pipeline = admission.pipeline;
  r.fidelity = options_.fidelity;
  r.double_buffer = options_.double_buffer;
  r.dispatch = options_.dispatch;
  r.offered_rps = offered_rate(arrivals);

  // Saturation throughput. Under kPipeline each group admits one image per
  // bottleneck-stage interval (the slowest stage gates the stream), and
  // the PCUs it reserves contribute through the group, not individually;
  // the unreserved rest of the fleet adds its usual per-PCU rates.
  std::vector<unsigned char> reserved(pool_.size(), 0);
  if (options_.dispatch == DispatchPolicy::kPipeline) {
    for (std::size_t g = 0; g < pool_.num_pipelines(); ++g) {
      const PipelineGroup& group = pool_.pipeline(g);
      for (std::size_t p : group.members) reserved[p] = 1;
      double bottleneck = 0.0;
      for (const PipelineStage& st : group.stages)
        bottleneck = std::max(bottleneck, st.timings.interval);
      if (bottleneck > 0.0) r.fleet_capacity_rps += 1.0 / bottleneck;
    }
  }
  for (std::size_t p = 0; p < r.pcus; ++p) {
    if (reserved[p]) continue;
    const Pcu& pcu = pool_.pcu(p);
    const double interval = options_.double_buffer
                                ? pcu.request_interval_overlapped()
                                : pcu.request_time_serial();
    if (interval > 0.0) r.fleet_capacity_rps += 1.0 / interval;
  }
  r.load_factor = std::isinf(r.offered_rps) || r.fleet_capacity_rps <= 0.0
                      ? 0.0
                      : r.offered_rps / r.fleet_capacity_rps;

  std::vector<double> latencies;
  std::vector<double> waits;
  std::vector<double> retry_latencies;
  latencies.reserve(schedule.size());
  waits.reserve(schedule.size());
  double wait_sum = 0.0;
  for (const ScheduledService& s : schedule) {
    latencies.push_back(s.completion - s.arrival);
    waits.push_back(s.start - s.arrival);
    wait_sum += s.start - s.arrival;
    // A served request that needed retries carries its original arrival,
    // so its sojourn includes every destroyed attempt and backoff delay —
    // the latency tail fault tolerance adds.
    if (s.attempts > 1) retry_latencies.push_back(s.completion - s.arrival);
  }
  // Shed requests sat in the queue from arrival to the shed decision;
  // that residency is real queue occupancy even though they were never
  // served, so it counts toward the time-averaged depth (but not toward
  // the served-latency distributions).
  for (const ShedDecision& d : admission.shed.decisions)
    wait_sum += d.decision_time - d.arrival;
  r.latency = summarize_distribution(std::move(latencies));
  r.queue_wait = summarize_distribution(std::move(waits));
  r.retry_latency = summarize_distribution(std::move(retry_latencies));

  r.makespan = fill_breakdowns(schedule, r.per_pcu);
  for (std::size_t p = 0;
       p < r.per_pcu.size() && p < admission.fault.per_pcu.size(); ++p) {
    r.per_pcu[p].lost_attempts = admission.fault.per_pcu[p].lost_attempts;
    r.per_pcu[p].lost_time = admission.fault.per_pcu[p].lost_time;
  }
  for (const PcuBreakdown& b : r.per_pcu) {
    r.model_swaps += b.swaps;
    r.model_swap_time += b.swap_time;
  }

  if (r.makespan > 0.0) {
    r.achieved_rps = static_cast<double>(r.served_requests) / r.makespan;
    // Little's law on the wait room: time-averaged queue depth equals
    // total waiting time over the observation window.
    r.mean_queue_depth = wait_sum / r.makespan;
  }

  // Per-tenant SLO slices, only for runs that actually carried SLO
  // metadata — legacy reports keep their trivial defaults.
  bool slo_aware = admission.shed.shed > 0;
  for (const ScheduledService& s : schedule) {
    if (s.tenant != 0 || s.priority != PriorityClass::kStandard ||
        std::isfinite(s.deadline)) {
      slo_aware = true;
      break;
    }
  }
  if (slo_aware) {
    std::map<std::uint32_t, TenantBreakdown> tenants;
    std::map<std::uint32_t, std::vector<double>> tenant_latencies;
    for (const ScheduledService& s : schedule) {
      TenantBreakdown& t = tenants[s.tenant];
      t.tenant = s.tenant;
      t.requests += 1;
      t.served += 1;
      if (s.completion > s.deadline) t.slo_misses += 1;
      tenant_latencies[s.tenant].push_back(s.completion - s.arrival);
    }
    for (const ShedDecision& d : admission.shed.decisions) {
      TenantBreakdown& t = tenants[d.tenant];
      t.tenant = d.tenant;
      t.requests += 1;
      t.shed += 1;
      t.slo_misses += 1; // a shed request never meets its SLO
    }
    for (const RequestLoss& l : admission.fault.losses) {
      TenantBreakdown& t = tenants[l.tenant];
      t.tenant = l.tenant;
      t.requests += 1;
      t.failed += 1;
      t.slo_misses += 1; // a destroyed request never meets its SLO
    }
    std::size_t misses = 0;
    for (auto& [tenant, t] : tenants) {
      misses += t.slo_misses;
      t.slo_attainment =
          t.requests == 0
              ? 1.0
              : static_cast<double>(t.requests - t.slo_misses) /
                    static_cast<double>(t.requests);
      t.latency = summarize_distribution(std::move(tenant_latencies[tenant]));
      r.per_tenant.push_back(std::move(t));
    }
    r.slo_attainment = r.requests == 0
                           ? 1.0
                           : static_cast<double>(r.requests - misses) /
                                 static_cast<double>(r.requests);
  }
  // Energy is filled by the caller: run_open_loop sums the functional
  // RequestResults, simulate_open_loop the analytical per-request totals.
  return r;
}

RequestResult BatchRunner::run_one(const nn::Tensor& input, std::uint64_t id) {
  InferenceRequest request;
  request.id = id;
  request.seed = derive_request_seed(options_.seed, id);
  request.input = input;
  return pool_.pcu(0).serve(request, options_.simulate_values);
}

namespace {

/// Shared per-PCU schedule table: index, tag, requests, utilization, time
/// spent re-filling the double-buffer pipeline, and weight-bank swaps paid
/// to switch models.
void print_breakdowns(const std::vector<PcuBreakdown>& per_pcu,
                      std::ostream& os) {
  TextTable pcus({"virtual PCU", "tag", "requests", "utilization",
                  "warmup time", "swaps", "swap time"});
  for (std::size_t p = 0; p < per_pcu.size(); ++p) {
    const PcuBreakdown& b = per_pcu[p];
    pcus.add_row({std::to_string(p), b.tag.empty() ? "-" : b.tag,
                  std::to_string(b.requests),
                  format_fixed(100.0 * b.utilization, 1) + " %",
                  format_time(b.warmup_time), std::to_string(b.swaps),
                  format_time(b.swap_time)});
  }
  pcus.print(os, "per-PCU schedule");
}

} // namespace

void BatchRunner::print_report(const FleetReport& report, std::ostream& os,
                               const std::string& title) {
  TextTable table({"metric", "value"});
  table.add_row({"PCUs", std::to_string(report.pcus)});
  table.add_row({"requests", std::to_string(report.requests)});
  table.add_row({"fidelity",
                 core::timing_fidelity_name(report.fidelity)});
  table.add_row({"double-buffered recal",
                 report.double_buffer ? "yes" : "no"});
  table.add_row({"dispatch policy",
                 dispatch_policy_name(report.dispatch)});
  table.add_separator();
  table.add_row({"request time (serial)",
                 format_time(report.request_time_serial)});
  table.add_row({"request interval (overlapped)",
                 format_time(report.request_interval)});
  table.add_row({"overlap speedup",
                 format_fixed(report.overlap_speedup, 3) + "x"});
  table.add_row({"serial rate (1 PCU)",
                 format_count(report.sequential_rps) + " req/s"});
  table.add_separator();
  table.add_row({"makespan (1 PCU, serial)",
                 format_time(report.makespan_sequential)});
  table.add_row({"makespan (fleet)", format_time(report.makespan)});
  table.add_row({"throughput",
                 format_count(report.throughput_rps) + " req/s"});
  table.add_row({"speedup vs sequential",
                 format_fixed(report.speedup_vs_sequential, 3) + "x"});
  table.add_row({"scaling efficiency",
                 format_fixed(100.0 * report.scaling_efficiency, 1) + " %"});
  table.add_row({"mean latency", format_time(report.mean_latency)});
  table.add_row({"max latency", format_time(report.max_latency)});
  table.add_separator();
  table.add_row({"energy / request", format_energy(report.energy_per_request)});
  table.add_row({"fleet energy", format_energy(report.total_energy)});
  table.add_row({"host wall time",
                 format_time(report.wall_seconds)});
  table.print(os, title);

  print_breakdowns(report.per_pcu, os);
}

void BatchRunner::print_report(const OpenLoopReport& report, std::ostream& os,
                               const std::string& title) {
  TextTable table({"metric", "value"});
  table.add_row({"PCUs", std::to_string(report.pcus)});
  table.add_row({"requests", std::to_string(report.requests)});
  table.add_row({"fidelity", core::timing_fidelity_name(report.fidelity)});
  table.add_row({"double-buffered recal",
                 report.double_buffer ? "yes" : "no"});
  table.add_row({"dispatch policy",
                 dispatch_policy_name(report.dispatch)});
  table.add_separator();
  table.add_row({"offered load",
                 std::isinf(report.offered_rps)
                     ? "inf (closed batch)"
                     : format_count(report.offered_rps) + " req/s"});
  table.add_row({"achieved throughput",
                 format_count(report.achieved_rps) + " req/s"});
  table.add_row({"fleet capacity",
                 format_count(report.fleet_capacity_rps) + " req/s"});
  table.add_row({"load factor (rho)",
                 format_fixed(report.load_factor, 3)});
  table.add_row({"makespan", format_time(report.makespan)});
  table.add_separator();
  table.add_row({"latency p50", format_time(report.latency.p50)});
  table.add_row({"latency p90", format_time(report.latency.p90)});
  table.add_row({"latency p99", format_time(report.latency.p99)});
  table.add_row({"latency p99.9", format_time(report.latency.p999)});
  table.add_row({"latency mean", format_time(report.latency.mean)});
  table.add_row({"latency max", format_time(report.latency.max)});
  table.add_row({"queue wait mean", format_time(report.queue_wait.mean)});
  table.add_row({"queue wait p99", format_time(report.queue_wait.p99)});
  table.add_row({"mean queue depth",
                 format_fixed(report.mean_queue_depth, 2) + " req"});
  table.add_separator();
  if (!report.per_tenant.empty()) {
    table.add_row({"served requests",
                   std::to_string(report.served_requests)});
    table.add_row({"shed requests",
                   std::to_string(report.shed_requests) + " (" +
                       format_fixed(100.0 * report.shed_rate, 1) + " %)"});
    table.add_row({"SLO attainment",
                   format_fixed(100.0 * report.slo_attainment, 2) + " %"});
  }
  if (report.model_swaps > 0) {
    table.add_row({"model swaps",
                   std::to_string(report.model_swaps) + " (" +
                       format_time(report.model_swap_time) + ")"});
  }
  if (report.pipeline.pipelined_requests > 0) {
    table.add_separator();
    table.add_row({"pipeline groups",
                   std::to_string(report.pipeline.groups)});
    table.add_row({"pipelined requests",
                   std::to_string(report.pipeline.pipelined_requests)});
    table.add_row({"stage spans",
                   std::to_string(report.pipeline.stage_spans)});
    table.add_row({"stage re-placements",
                   std::to_string(report.pipeline.replacements)});
    table.add_row({"stage pin time",
                   format_time(report.pipeline.pin_time)});
    table.add_row({"stage hand-off time",
                   format_time(report.pipeline.handoff_time)});
  }
  if (report.fault.injections > 0) {
    table.add_separator();
    table.add_row({"fault injections",
                   std::to_string(report.fault.injections)});
    table.add_row({"crash losses",
                   std::to_string(report.fault.crash_losses)});
    table.add_row({"transient corruptions",
                   std::to_string(report.fault.transient_corruptions)});
    // Retry / quarantine / repair rows only when that machinery actually
    // acted: a fault-blind run (health_aware == false) injects faults but
    // never retries or quarantines — printing those all-zero rows suggests
    // the feature ran when it was structurally disabled. A blind run still
    // counts the repairs of external kRecover events, so "repairs" has its
    // own gate.
    if (report.fault.retries > 0) {
      table.add_row({"retries", std::to_string(report.fault.retries)});
      table.add_row({"recovered requests",
                     std::to_string(report.fault.recovered_requests)});
    }
    table.add_row({"failed requests",
                   std::to_string(report.failed_requests)});
    if (report.fault.quarantines > 0)
      table.add_row({"quarantines",
                     std::to_string(report.fault.quarantines)});
    if (report.fault.repairs > 0)
      table.add_row({"repairs",
                     std::to_string(report.fault.repairs) + " (" +
                         format_time(report.fault.repair_time) + ")"});
    if (report.retry_latency.count > 0) {
      table.add_row({"retry latency p99",
                     format_time(report.retry_latency.p99)});
    }
  }
  if (report.autoscaler.scale_ups > 0 || report.autoscaler.scale_downs > 0 ||
      (report.autoscaler.mean_active > 0.0 &&
       report.autoscaler.mean_active !=
           static_cast<double>(report.pcus))) {
    table.add_separator();
    table.add_row({"autoscaler mean active",
                   format_fixed(report.autoscaler.mean_active, 2) + " PCU"});
    table.add_row({"autoscaler scale-ups",
                   std::to_string(report.autoscaler.scale_ups)});
    table.add_row({"autoscaler scale-downs",
                   std::to_string(report.autoscaler.scale_downs)});
  }
  table.add_row({"energy / request", format_energy(report.energy_per_request)});
  table.add_row({"fleet energy", format_energy(report.total_energy)});
  table.add_row({"host wall time", format_time(report.wall_seconds)});
  table.print(os, title);

  if (!report.per_tenant.empty()) {
    TextTable tenants({"tenant", "requests", "served", "shed", "failed",
                       "SLO attainment", "latency p99"});
    for (const TenantBreakdown& t : report.per_tenant)
      tenants.add_row({std::to_string(t.tenant), std::to_string(t.requests),
                       std::to_string(t.served), std::to_string(t.shed),
                       std::to_string(t.failed),
                       format_fixed(100.0 * t.slo_attainment, 2) + " %",
                       format_time(t.latency.p99)});
    tenants.print(os, "per-tenant SLO");
  }

  print_breakdowns(report.per_pcu, os);

  if (report.fault.injections > 0 && !report.fault.per_pcu.empty()) {
    TextTable health({"virtual PCU", "transients", "degrades", "crashes",
                      "quarantines", "repairs", "lost attempts",
                      "availability"});
    for (std::size_t p = 0; p < report.fault.per_pcu.size(); ++p) {
      const PcuHealthStats& h = report.fault.per_pcu[p];
      health.add_row({std::to_string(p), std::to_string(h.transients),
                      std::to_string(h.degrades), std::to_string(h.crashes),
                      std::to_string(h.quarantines), std::to_string(h.repairs),
                      std::to_string(h.lost_attempts),
                      format_fixed(100.0 * h.availability, 2) + " %"});
    }
    health.print(os, "per-PCU health");
  }
}

} // namespace pcnna::runtime
