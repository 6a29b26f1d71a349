// Thread-safe inference request queue for the batch-parallel runtime.
//
// A RequestQueue is the single work-distribution point of a PcuPool: the
// submitter pushes InferenceRequests, N PCU workers pop them. close() wakes
// every blocked consumer once the stream ends; pop() then drains whatever is
// left and finally reports exhaustion. Requests carry their own engine seed
// so results are bit-identical no matter which PCU (or how many) serves
// them — dynamic sharding must never change the numbers.
//
// The queue serves two distinct consumers:
//
//  * PCU worker threads (pop / try_pop) drain it concurrently to do the
//    physical simulation work; ordering between workers is wall-clock
//    nondeterministic and deliberately irrelevant to results. This is the
//    dynamic-sharding path (PcuPool::serve_all). A run whose schedule
//    decides placement — a heterogeneous fleet, shedding, faults, or
//    pipelines — pins each request to its scheduled PCU instead, so it
//    bypasses the shared queue entirely (PcuPool::serve_scheduled walks
//    per-PCU work lists).
//
//  * The virtual-time admission loop (pop_arrived / next_arrival) replays
//    the same requests single-threaded against their simulated arrival
//    timestamps to charge queueing delay deterministically
//    (PcuPool::simulate_admission).
//
// Thread-safety: every member function takes the internal mutex and is safe
// to call from any thread, but the virtual-time interface is only
// *meaningful* from one thread at a time (an admission loop interleaved
// across threads would race on the virtual clock it advances).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <vector>

#include "nn/tensor.hpp"

namespace pcnna::runtime {

/// Priority class of a request, the strict precedence tier of the
/// SLO-aware admission order (DispatchPolicy::kEdf dispatches classes in
/// this order, earliest deadline first within a class). Lower values are
/// more urgent.
enum class PriorityClass : std::uint8_t {
  kInteractive = 0, ///< user-facing traffic with a tight completion SLO
  kStandard = 1,    ///< default tier
  kBestEffort = 2,  ///< throughput traffic; first to wait and to shed
};

const char* priority_class_name(PriorityClass priority);

/// One inference request: an input feature map plus the identity and RNG
/// seed that make its simulation order-independent, and the serving
/// metadata (tenant, priority class, deadline) the SLO-aware admission
/// loop schedules and sheds by.
struct InferenceRequest {
  /// Dense id in [0, batch); doubles as the slot index for its result.
  std::uint64_t id = 0;
  /// Engine noise/fabrication seed for this request (derive_request_seed).
  std::uint64_t seed = 0;
  /// Simulated arrival timestamp [s]. 0 for the closed-batch path (all
  /// requests present at t = 0); set from an ArrivalSchedule for open-loop
  /// serving. Affects only the virtual-time schedule, never the output.
  double arrival_time = 0.0;
  /// Owning tenant; reports aggregate SLO attainment and shed counts per
  /// tenant. Never interpreted beyond grouping.
  std::uint32_t tenant = 0;
  /// Priority tier for the SLO-aware admission order.
  PriorityClass priority = PriorityClass::kStandard;
  /// Absolute completion deadline [s]; +inf means no SLO. Consumed by the
  /// EDF admission order and by load shedding (a request whose predicted
  /// completion exceeds this is rejected). Never affects the output.
  double deadline = std::numeric_limits<double>::infinity();
  /// Which registered model this request targets (index into the pool's
  /// model registry; 0 is the primary model every pool is built with).
  /// Dispatching a request to a PCU programmed with a different model
  /// charges a weight-bank swap through the double-buffer timing model.
  std::uint32_t model_id = 0;
  nn::Tensor input;
};

/// Per-request serving metadata aligned with an ArrivalSchedule: element i
/// names the tenant, priority class, and absolute deadline of request i
/// (runtime::assign_tenants generates one from a TenantClass mix).
struct RequestSlo {
  std::uint32_t tenant = 0;
  PriorityClass priority = PriorityClass::kStandard;
  /// Absolute completion deadline [s]; +inf = no SLO.
  double deadline = std::numeric_limits<double>::infinity();
};

/// One RequestSlo per request, index-aligned with the ArrivalSchedule.
using SloSchedule = std::vector<RequestSlo>;

/// One model id per request, index-aligned with the ArrivalSchedule:
/// element i names the registered model request i targets. An empty
/// schedule means every request runs the primary model (id 0).
using ModelSchedule = std::vector<std::uint32_t>;

/// Per-request seed derived from the runner's base seed by a SplitMix64
/// mixing step: decorrelated across ids, reproducible from (base, id) alone,
/// and independent of which PCU executes the request.
std::uint64_t derive_request_seed(std::uint64_t base_seed,
                                  std::uint64_t request_id);

/// Unbounded multi-producer / multi-consumer FIFO with shutdown semantics.
class RequestQueue {
 public:
  RequestQueue() = default;
  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Enqueue one request. Throws pcnna::Error if the queue is closed, or
  /// if the request's arrival_time precedes that of an earlier push: the
  /// virtual-time interface below peeks the *front* of the FIFO as the
  /// earliest pending arrival, so an out-of-order push (e.g. an unsorted
  /// trace file) would silently corrupt virtual-time admission.
  void push(InferenceRequest request);

  /// Block until a request is available or the queue is closed and drained.
  /// Returns false (leaving `out` untouched) only on exhaustion.
  bool pop(InferenceRequest& out);

  /// Non-blocking variant: returns false when nothing is currently queued.
  bool try_pop(InferenceRequest& out);

  // --- Virtual-time interface (open-loop admission loop) ---
  //
  // Requests are guaranteed to sit in nondecreasing arrival_time order
  // (push() rejects out-of-order arrivals). Both calls are non-blocking.

  /// Pop the front request only if it has arrived by simulated time
  /// `virtual_now` [s]. Returns false when the queue is empty or the front
  /// request's arrival_time is still in the virtual future.
  bool pop_arrived(double virtual_now, InferenceRequest& out);

  /// Peek the front (= earliest, given ordered pushes) pending arrival
  /// time into `when` [s]. Returns false when the queue is empty.
  bool next_arrival(double& when) const;

  /// End the stream: no further push() succeeds, blocked pop()s drain the
  /// remaining requests and then return false.
  void close();

  bool closed() const;
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<InferenceRequest> queue_;
  /// Largest arrival_time pushed so far (persists across pops), enforcing
  /// the nondecreasing-push precondition of the virtual-time interface.
  double last_arrival_ = 0.0;
  bool closed_ = false;
};

} // namespace pcnna::runtime
