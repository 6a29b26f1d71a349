// Self-tests of the benchmark's own statistics: the tail-percentile rule,
// the error_rate accounting, and the trace.coverage arithmetic. Exits 0
// when every check holds and prints each failure otherwise.
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool cond, const std::string& what) {
  if (!cond) {
    ++failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * std::abs(b); }

void percentile_rule() {
  using namespace perfbench::stats;
  // p90 of 100 samples has exactly ten beyond it; of 99, only nine.
  expect(samples_beyond(100, 90) == 10, "100 samples leave 10 beyond p90");
  expect(tail_resolved(100, 90), "p90 resolved at 100 samples");
  expect(!tail_resolved(99, 90), "p90 unresolved at 99 samples");
  expect(min_samples_for(90) == 100, "p90 needs 100 samples");
  expect(min_samples_for(99) == 1000, "p99 needs 1000 samples");
  expect(min_samples_for(50) == 20, "p50 needs 20 samples");
  expect(!tail_resolved(1000000, 100), "p100 never has samples beyond");

  std::vector<double> ramp;
  for (int i = 1; i <= 101; ++i) ramp.push_back(static_cast<double>(i));
  expect(percentile(ramp, 50) == 51.0, "median of 1..101 is 51");
  expect(percentile(ramp, 90) == 91.0, "p90 of 1..101 is 91");
  expect(near(percentile({1.0, 2.0}, 25), 1.25), "interpolates between ranks");
  expect(percentile({3.0, 1.0, 2.0}, 50) == 2.0, "sorts before ranking");
  expect(median({7.0}) == 7.0, "median of one sample");
  bool threw = false;
  try {
    percentile({}, 50);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "percentile of no samples throws");
}

void error_rate_accounting() {
  perfbench::stats::CallLedger ledger;
  expect(ledger.error_rate() == 1.0, "nothing attempted counts as all failed");
  for (int i = 0; i < 9; ++i) ledger.record(true);
  expect(ledger.error_rate() == 0.0, "nine good calls have no errors");
  ledger.record(false);
  expect(ledger.attempted == 10 && ledger.failed == 1,
         "a failed check counts as attempted and failed");
  expect(ledger.error_rate() == 0.1, "one failure in ten calls");
}

void coverage_arithmetic() {
  using perfbench::stats::coverage;
  expect(near(coverage(0.08, 0.1, 1), 0.8), "80 ms of spans in a 100 ms call");
  // Two PCUs serving side by side: 2 x 50 ms of spans in a 50 ms call.
  expect(coverage(0.1, 0.05, 2) == 1.0, "parallel spans divide by lanes");
  expect(near(coverage(0.03, 0.04, 2), 0.375), "partial parallel coverage");
  bool threw = false;
  try {
    coverage(1.0, 0.0, 1);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "coverage of a zero-time call throws");
}

} // namespace

int main() {
  percentile_rule();
  error_rate_accounting();
  coverage_arithmetic();
  std::cout << "perfbench self-test: " << (failures ? "FAIL" : "PASS") << "\n";
  return failures ? 1 : 0;
}
