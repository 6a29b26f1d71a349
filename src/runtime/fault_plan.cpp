#include "runtime/fault_plan.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace pcnna::runtime {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransient: return "transient";
    case FaultKind::kDegrade: return "degrade";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRecover: return "recover";
  }
  throw Error("unknown FaultKind");
}

FaultKind parse_fault_kind(const std::string& token) {
  if (token == "transient") return FaultKind::kTransient;
  if (token == "degrade") return FaultKind::kDegrade;
  if (token == "crash") return FaultKind::kCrash;
  if (token == "recover") return FaultKind::kRecover;
  throw Error("unknown fault kind '" + token +
              "' (expected transient|degrade|crash|recover)");
}

const char* health_state_name(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kQuarantined: return "quarantined";
    case HealthState::kFailed: return "failed";
  }
  throw Error("unknown HealthState");
}

void validate_fault_schedule(const FaultSchedule& faults) {
  double prev = 0.0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultEvent& e = faults[i];
    PCNNA_CHECK_MSG(std::isfinite(e.time) && e.time >= 0.0,
                    "fault event " << i << " has invalid timestamp " << e.time);
    PCNNA_CHECK_MSG(e.time >= prev,
                    "fault event " << i << " at t=" << e.time
                                   << " precedes event " << i - 1 << " at t="
                                   << prev
                                   << " (schedule must be nondecreasing)");
    PCNNA_CHECK_MSG(std::isfinite(e.severity) && e.severity >= 1.0,
                    "fault event " << i << " has invalid severity "
                                   << e.severity << " (must be >= 1)");
    // Only a degrade carries a severity (the trace format writes no other),
    // so any other value on another kind could not round-trip.
    PCNNA_CHECK_MSG(e.kind == FaultKind::kDegrade || e.severity == 1.0,
                    "fault event " << i << " is a " << fault_kind_name(e.kind)
                                   << " with severity " << e.severity
                                   << " (only degrade events take one)");
    prev = e.time;
  }
}

FaultSchedule poisson_faults(std::size_t num_pcus, const FaultModel& model,
                             std::uint64_t seed) {
  FaultSchedule faults;
  if (num_pcus == 0 || model.horizon <= 0.0 ||
      !(model.mtbf < std::numeric_limits<double>::infinity())) {
    return faults;
  }
  PCNNA_CHECK_MSG(std::isfinite(model.mtbf) && model.mtbf > 0.0,
                  "fault MTBF must be positive, got " << model.mtbf);
  PCNNA_CHECK_MSG(std::isfinite(model.horizon),
                  "fault horizon must be finite, got " << model.horizon);
  PCNNA_CHECK_MSG(model.transient_weight >= 0.0 && model.degrade_weight >= 0.0 &&
                      model.crash_weight >= 0.0,
                  "fault kind weights must be nonnegative");
  const double total_weight =
      model.transient_weight + model.degrade_weight + model.crash_weight;
  PCNNA_CHECK_MSG(std::isfinite(total_weight) && total_weight > 0.0,
                  "fault kind weights must sum to a positive value, got "
                      << total_weight);
  PCNNA_CHECK_MSG(std::isfinite(model.degrade_severity) &&
                      model.degrade_severity >= 1.0,
                  "degrade severity must be >= 1, got "
                      << model.degrade_severity);
  if (model.crash_weight > 0.0) {
    PCNNA_CHECK_MSG(std::isfinite(model.mean_time_to_repair) &&
                        model.mean_time_to_repair > 0.0,
                    "mean_time_to_repair must be positive when crashes are "
                    "generated, got "
                        << model.mean_time_to_repair);
  }

  for (std::size_t p = 0; p < num_pcus; ++p) {
    // Each PCU owns an independent stream keyed by (seed, p) — the same
    // SplitMix64 mix the request layer uses — so per-PCU timelines are
    // stable under fleet resizes: PCU p's faults do not depend on how many
    // other PCUs exist.
    Rng rng(derive_request_seed(seed, p));
    double t = 0.0;
    while (true) {
      // Inverse-transform exponential gap; uniform() is in [0, 1), so the
      // log argument never hits zero.
      t += -std::log(1.0 - rng.uniform()) * model.mtbf;
      if (t >= model.horizon) break;

      // Weighted kind draw (kRecover is only ever emitted as a crash's
      // paired repair, never drawn directly).
      double u = rng.uniform() * total_weight;
      FaultKind kind = FaultKind::kCrash;
      if (u < model.transient_weight) {
        kind = FaultKind::kTransient;
      } else if (u < model.transient_weight + model.degrade_weight) {
        kind = FaultKind::kDegrade;
      }

      FaultEvent event;
      event.time = t;
      event.pcu = p;
      event.kind = kind;
      if (kind == FaultKind::kDegrade) event.severity = model.degrade_severity;
      faults.push_back(event);

      if (kind == FaultKind::kCrash) {
        // Exponential downtime; the dead PCU generates nothing until its
        // repair completes. Recoveries may land past the horizon — a crash
        // inside the window must still heal.
        const double downtime =
            -std::log(1.0 - rng.uniform()) * model.mean_time_to_repair;
        t += downtime;
        faults.push_back({t, p, FaultKind::kRecover, 1.0});
      }
    }
  }

  // Merge the per-PCU streams into one timeline. (time, pcu, recover-first)
  // is a total order here: a PCU's own events never share a timestamp
  // (exponential gaps are almost surely positive), so the pcu tiebreak only
  // arbitrates across streams, deterministically.
  std::sort(faults.begin(), faults.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.pcu != b.pcu) return a.pcu < b.pcu;
              return a.kind == FaultKind::kRecover && b.kind != FaultKind::kRecover;
            });
  return faults;
}

FaultSchedule parse_fault_trace(std::istream& in) {
  FaultSchedule faults;
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
    FaultEvent event;
    std::string pcu_token;
    std::string kind_token;
    char trailing = '\0';
    double severity = 1.0;
    const bool head_ok = bool(cell >> event.time >> pcu_token >> kind_token);
    PCNNA_CHECK_MSG(head_ok,
                    "fault trace line "
                        << line_no << " is not '<time> <pcu> <kind> [severity]': '"
                        << token << "'");
    // from_chars, unlike unsigned stream extraction, rejects a sign instead
    // of wrapping "-1" to 2^64 - 1.
    const char* pcu_end = pcu_token.data() + pcu_token.size();
    const auto [pcu_stop, pcu_error] =
        std::from_chars(pcu_token.data(), pcu_end, event.pcu);
    PCNNA_CHECK_MSG(pcu_error == std::errc() && pcu_stop == pcu_end,
                    "fault trace line " << line_no << " has invalid PCU index '"
                                        << pcu_token
                                        << "' (expected an integer >= 0)");
    const bool has_severity = bool(cell >> severity);
    // A failed severity read leaves the stream failed whether it hit EOF
    // (fine) or a non-numeric token (trailing garbage) — clear and re-probe
    // so the garbage case is caught below.
    if (!has_severity) cell.clear();
    PCNNA_CHECK_MSG(!(cell >> trailing),
                    "fault trace line " << line_no
                                        << " has trailing garbage: '" << token
                                        << "'");
    try {
      event.kind = parse_fault_kind(kind_token);
    } catch (const Error& e) {
      throw Error("fault trace line " + std::to_string(line_no) + ": " +
                  e.what());
    }
    PCNNA_CHECK_MSG(std::isfinite(event.time) && event.time >= 0.0,
                    "fault trace line " << line_no << " has invalid timestamp "
                                        << event.time);
    PCNNA_CHECK_MSG(event.time >= prev,
                    "fault trace line "
                        << line_no << " at t=" << event.time
                        << " precedes the previous event at t=" << prev
                        << " (trace must be nondecreasing)");
    if (has_severity) {
      PCNNA_CHECK_MSG(std::isfinite(severity) && severity >= 1.0,
                      "fault trace line " << line_no << " has invalid severity "
                                          << severity << " (must be >= 1)");
      PCNNA_CHECK_MSG(event.kind == FaultKind::kDegrade || severity == 1.0,
                      "fault trace line "
                          << line_no << " gives a " << kind_token
                          << " event severity " << severity
                          << " (only degrade events take one)");
      event.severity = severity;
    }
    prev = event.time;
    faults.push_back(event);
  }
  return faults;
}

FaultSchedule load_fault_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("load_fault_trace: cannot open '" + path + "'");
  return parse_fault_trace(in);
}

void write_fault_trace(std::ostream& out, const FaultSchedule& faults) {
  out << "# pcnna fault trace: <time [s]> <pcu> <kind> [severity]\n";
  const auto old_precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  for (const FaultEvent& e : faults) {
    out << e.time << ' ' << e.pcu << ' ' << fault_kind_name(e.kind);
    if (e.kind == FaultKind::kDegrade) out << ' ' << e.severity;
    out << '\n';
  }
  out.precision(old_precision);
}

} // namespace pcnna::runtime
