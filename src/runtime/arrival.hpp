// Open-loop arrival generation for the serving runtime.
//
// The closed-batch BatchRunner::run() path measures a fleet that receives
// its whole workload at t = 0 — which hides queueing delay, the dominant
// latency term for a serving system under sustained load. The generators
// here produce *timestamped* arrival schedules for the open-loop path
// (BatchRunner::run_open_loop / simulate_open_loop):
//
//  * poisson_arrivals()      — seeded Poisson process at a chosen offered
//                              rate (the standard open-loop load generator),
//  * parse/load_arrival_trace() — replay of a recorded trace file,
//  * closed_batch_arrivals() — the degenerate all-at-t=0 schedule, which
//                              makes the closed batch a special case of the
//                              open loop.
//
// Determinism contract: every generator is reproducible bit-for-bit from
// its arguments alone. Poisson gaps are inverse-transform exponential draws
// on common::Rng (xoshiro256**), so the same (count, rate, seed) triple
// yields the same schedule on any platform.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "runtime/request_queue.hpp"

namespace pcnna::runtime {

/// Timestamped arrival schedule: element i is request i's arrival time in
/// simulated seconds. Valid schedules are nonnegative and nondecreasing
/// (validate_arrival_schedule checks both).
using ArrivalSchedule = std::vector<double>;

/// Throw pcnna::Error unless every timestamp is finite, nonnegative, and
/// nondecreasing. All open-loop entry points call this on their input.
void validate_arrival_schedule(const ArrivalSchedule& arrivals);

/// All `count` requests arrive at t = 0: the degenerate schedule under
/// which the open-loop admission loop reproduces the closed-batch numbers.
ArrivalSchedule closed_batch_arrivals(std::size_t count);

/// Seeded Poisson process: `count` arrivals at mean rate `rate_rps`
/// (requests per simulated second, must be > 0). Inter-arrival gaps are
/// exponential draws -ln(1 - u) / rate_rps with u from common::Rng, so the
/// schedule is deterministic in (count, rate_rps, seed).
ArrivalSchedule poisson_arrivals(std::size_t count, double rate_rps,
                                 std::uint64_t seed);

/// Evenly spaced arrivals at `rate_rps` starting at t = 0 (request i
/// arrives at i / rate_rps): the zero-burstiness reference against which
/// Poisson queueing delay can be compared. Requires rate_rps > 0.
ArrivalSchedule uniform_arrivals(std::size_t count, double rate_rps);

/// Parse a trace: one arrival timestamp (simulated seconds, decimal or
/// scientific notation) per line; blank lines and lines starting with '#'
/// are ignored. Throws pcnna::Error on malformed, non-finite, negative, or
/// out-of-order timestamps, naming the offending 1-based trace line (not
/// the schedule index — comments and blanks shift the two apart).
ArrivalSchedule parse_arrival_trace(std::istream& in);

/// parse_arrival_trace over the contents of `path`. Throws on I/O failure.
ArrivalSchedule load_arrival_trace(const std::string& path);

/// Write `arrivals` in the format parse_arrival_trace reads, with full
/// round-trip precision (max_digits10), preceded by a '#' header comment.
void write_arrival_trace(std::ostream& out, const ArrivalSchedule& arrivals);

/// Offered load of a schedule in requests per simulated second:
/// count / last arrival time. Returns +inf when the schedule is empty or
/// every request arrives at t = 0 (the closed batch offers "infinite" load).
double offered_rate(const ArrivalSchedule& arrivals);

/// One tenant of a multi-tenant traffic mix: its share of the request
/// stream, its priority tier, and its latency budget.
struct TenantClass {
  std::uint32_t tenant = 0;
  PriorityClass priority = PriorityClass::kStandard;
  /// Relative share of the stream (normalized over the mix; must be > 0).
  double weight = 1.0;
  /// Per-request latency budget [s]: request i's absolute deadline is
  /// arrival_i + slo_budget. +inf (the default) means no SLO.
  double slo_budget = std::numeric_limits<double>::infinity();
};

/// Deterministically assign each arrival to one TenantClass of `mix` by a
/// seeded weighted draw (common::Rng, same determinism contract as
/// poisson_arrivals), returning the index-aligned SloSchedule with each
/// request's absolute deadline already resolved against its arrival time.
/// Throws pcnna::Error when `mix` is empty, any weight is not > 0, or any
/// slo_budget is NaN.
SloSchedule assign_tenants(const ArrivalSchedule& arrivals,
                           const std::vector<TenantClass>& mix,
                           std::uint64_t seed);

} // namespace pcnna::runtime
