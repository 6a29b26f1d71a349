#include "runtime/arrival.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pcnna::runtime {

void validate_arrival_schedule(const ArrivalSchedule& arrivals) {
  double prev = 0.0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    PCNNA_CHECK_MSG(std::isfinite(arrivals[i]) && arrivals[i] >= 0.0,
                    "arrival " << i << " has invalid timestamp "
                               << arrivals[i]);
    PCNNA_CHECK_MSG(arrivals[i] >= prev,
                    "arrival " << i << " at t=" << arrivals[i]
                               << " precedes arrival " << i - 1 << " at t="
                               << prev << " (schedule must be nondecreasing)");
    prev = arrivals[i];
  }
}

ArrivalSchedule closed_batch_arrivals(std::size_t count) {
  return ArrivalSchedule(count, 0.0);
}

ArrivalSchedule poisson_arrivals(std::size_t count, double rate_rps,
                                 std::uint64_t seed) {
  PCNNA_CHECK_MSG(rate_rps > 0.0,
                  "Poisson arrival rate must be positive, got " << rate_rps);
  Rng rng(seed);
  ArrivalSchedule arrivals;
  arrivals.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    // Inverse-transform exponential draw. uniform() is in [0, 1), so
    // 1 - u is in (0, 1] and the log argument never hits zero.
    t += -std::log(1.0 - rng.uniform()) / rate_rps;
    arrivals.push_back(t);
  }
  return arrivals;
}

ArrivalSchedule uniform_arrivals(std::size_t count, double rate_rps) {
  PCNNA_CHECK_MSG(rate_rps > 0.0,
                  "uniform arrival rate must be positive, got " << rate_rps);
  ArrivalSchedule arrivals;
  arrivals.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    arrivals.push_back(static_cast<double>(i) / rate_rps);
  return arrivals;
}

ArrivalSchedule parse_arrival_trace(std::istream& in) {
  ArrivalSchedule arrivals;
  std::string line;
  std::size_t line_no = 0;
  double prev = 0.0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip CR (Windows traces) and surrounding whitespace.
    const std::size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    const std::size_t end = line.find_last_not_of(" \t\r");
    const std::string token = line.substr(begin, end - begin + 1);
    if (token.front() == '#') continue;

    std::istringstream cell(token);
    double t = 0.0;
    char trailing = '\0';
    PCNNA_CHECK_MSG(cell >> t && !(cell >> trailing),
                    "arrival trace line " << line_no
                                          << " is not a timestamp: '" << token
                                          << "'");
    // Validate in place so a bad trace names the offending *line*, not a
    // post-hoc schedule index (comments and blanks shift the two apart).
    PCNNA_CHECK_MSG(std::isfinite(t) && t >= 0.0,
                    "arrival trace line " << line_no
                                          << " has invalid timestamp " << t);
    PCNNA_CHECK_MSG(t >= prev,
                    "arrival trace line "
                        << line_no << " at t=" << t
                        << " precedes the previous arrival at t=" << prev
                        << " (trace must be nondecreasing)");
    prev = t;
    arrivals.push_back(t);
  }
  return arrivals;
}

ArrivalSchedule load_arrival_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("load_arrival_trace: cannot open '" + path + "'");
  return parse_arrival_trace(in);
}

void write_arrival_trace(std::ostream& out, const ArrivalSchedule& arrivals) {
  out << "# pcnna arrival trace: one arrival timestamp [s] per line\n";
  const auto old_precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  for (double t : arrivals) out << t << '\n';
  out.precision(old_precision);
}

double offered_rate(const ArrivalSchedule& arrivals) {
  if (arrivals.empty() || arrivals.back() <= 0.0)
    return std::numeric_limits<double>::infinity();
  return static_cast<double>(arrivals.size()) / arrivals.back();
}

SloSchedule assign_tenants(const ArrivalSchedule& arrivals,
                           const std::vector<TenantClass>& mix,
                           std::uint64_t seed) {
  PCNNA_CHECK_MSG(!mix.empty(), "assign_tenants needs at least one tenant");
  double total_weight = 0.0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    PCNNA_CHECK_MSG(std::isfinite(mix[i].weight) && mix[i].weight > 0.0,
                    "tenant mix entry " << i << " has invalid weight "
                                        << mix[i].weight);
    // +-inf budgets are legal (no SLO / always late); NaN has no order.
    PCNNA_CHECK_MSG(!std::isnan(mix[i].slo_budget),
                    "tenant mix entry " << i << " has a NaN slo_budget");
    total_weight += mix[i].weight;
  }

  Rng rng(seed);
  SloSchedule slos;
  slos.reserve(arrivals.size());
  for (double arrival : arrivals) {
    // Weighted inverse-CDF draw over the mix; the final entry absorbs any
    // floating-point shortfall so the draw always lands.
    double u = rng.uniform() * total_weight;
    std::size_t pick = mix.size() - 1;
    for (std::size_t i = 0; i + 1 < mix.size(); ++i) {
      u -= mix[i].weight;
      if (u < 0.0) {
        pick = i;
        break;
      }
    }
    const TenantClass& t = mix[pick];
    slos.push_back({t.tenant, t.priority, arrival + t.slo_budget});
  }
  return slos;
}

} // namespace pcnna::runtime
