#include "runtime/request_queue.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pcnna::runtime {

std::uint64_t derive_request_seed(std::uint64_t base_seed,
                                  std::uint64_t request_id) {
  return derive_seed(base_seed, request_id);
}

const char* priority_class_name(PriorityClass priority) {
  switch (priority) {
    case PriorityClass::kInteractive: return "interactive";
    case PriorityClass::kStandard: return "standard";
    case PriorityClass::kBestEffort: return "best-effort";
  }
  throw Error("invalid PriorityClass");
}

void RequestQueue::push(InferenceRequest request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    PCNNA_CHECK_MSG(!closed_, "push() on a closed RequestQueue");
    // An infinite arrival would never become due: admission would neither
    // serve, shed nor lose it.
    PCNNA_CHECK_MSG(
        std::isfinite(request.arrival_time) && request.arrival_time >= 0.0,
        "request " << request.id << " has invalid timestamp "
                   << request.arrival_time);
    PCNNA_CHECK_MSG(
        request.arrival_time >= last_arrival_,
        "out-of-order push: request " << request.id << " arrives at t="
            << request.arrival_time << " but a request arriving at t="
            << last_arrival_
            << " was already pushed — virtual-time admission needs "
               "nondecreasing arrival_time (sort the trace)");
    last_arrival_ = request.arrival_time;
    queue_.push_back(std::move(request));
  }
  cv_.notify_one();
}

bool RequestQueue::pop(InferenceRequest& out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return false;
  out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

bool RequestQueue::try_pop(InferenceRequest& out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) return false;
  out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

bool RequestQueue::pop_arrived(double virtual_now, InferenceRequest& out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty() || queue_.front().arrival_time > virtual_now)
    return false;
  out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

bool RequestQueue::next_arrival(double& when) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) return false;
  when = queue_.front().arrival_time;
  return true;
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

} // namespace pcnna::runtime
