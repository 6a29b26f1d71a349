// Regression tests for the shape of the printed OpenLoopReport.
//
// The fault section of print_report once printed "retries", "recovered
// requests", "quarantines", "repairs", and "retry latency p99" rows
// whenever any fault was injected — including fault-blind runs
// (health_aware == false) where the retry/quarantine machinery is
// structurally disabled and those rows are guaranteed zeros. The rows are
// now gated on the machinery actually acting; these tests pin the gating
// by printing hand-built reports and asserting on the rendered rows.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "runtime/batch_runner.hpp"

namespace {

using pcnna::runtime::BatchRunner;
using pcnna::runtime::OpenLoopReport;

std::string print(const OpenLoopReport& report) {
  std::ostringstream os;
  BatchRunner::print_report(report, os, "report shape");
  return os.str();
}

OpenLoopReport base_report() {
  OpenLoopReport r;
  r.pcus = 2;
  r.requests = 10;
  r.served_requests = 10;
  r.makespan = 1.0;
  return r;
}

TEST(ReportShape, NoFaultRunPrintsNoFaultSection) {
  const std::string text = print(base_report());
  EXPECT_EQ(std::string::npos, text.find("fault injections"));
  EXPECT_EQ(std::string::npos, text.find("retries"));
  EXPECT_EQ(std::string::npos, text.find("quarantines"));
}

TEST(ReportShape, FaultBlindRunHidesRetryAndQuarantineRows) {
  OpenLoopReport r = base_report();
  // A fault-blind run: faults landed and destroyed work, but with
  // health_aware == false nothing retried, quarantined, or repaired.
  r.fault.injections = 3;
  r.fault.crash_losses = 2;
  r.fault.transient_corruptions = 1;
  r.fault.lost_requests = 2;
  r.failed_requests = 2;
  r.served_requests = 8;

  const std::string text = print(r);
  EXPECT_NE(std::string::npos, text.find("fault injections"));
  EXPECT_NE(std::string::npos, text.find("crash losses"));
  EXPECT_NE(std::string::npos, text.find("transient corruptions"));
  EXPECT_NE(std::string::npos, text.find("failed requests"));
  // The machinery never acted: no zero-filled feature rows.
  EXPECT_EQ(std::string::npos, text.find("retries"));
  EXPECT_EQ(std::string::npos, text.find("recovered requests"));
  EXPECT_EQ(std::string::npos, text.find("quarantines"));
  EXPECT_EQ(std::string::npos, text.find("repairs"));
  EXPECT_EQ(std::string::npos, text.find("retry latency"));
}

TEST(ReportShape, HealthAwareRunPrintsTheFullFaultSection) {
  OpenLoopReport r = base_report();
  r.fault.injections = 3;
  r.fault.crash_losses = 1;
  r.fault.retries = 2;
  r.fault.recovered_requests = 2;
  r.fault.quarantines = 1;
  r.fault.repairs = 1;
  r.fault.repair_time = 0.25;
  r.retry_latency.count = 2;
  r.retry_latency.p99 = 0.5;

  const std::string text = print(r);
  EXPECT_NE(std::string::npos, text.find("fault injections"));
  EXPECT_NE(std::string::npos, text.find("retries"));
  EXPECT_NE(std::string::npos, text.find("recovered requests"));
  EXPECT_NE(std::string::npos, text.find("quarantines"));
  EXPECT_NE(std::string::npos, text.find("repairs"));
  EXPECT_NE(std::string::npos, text.find("retry latency p99"));
}

TEST(ReportShape, RetriesWithoutQuarantinesPrintsOnlyRetryRows) {
  OpenLoopReport r = base_report();
  // Transient faults recovered by retry alone — no crash, no quarantine.
  r.fault.injections = 2;
  r.fault.transient_corruptions = 2;
  r.fault.retries = 2;
  r.fault.recovered_requests = 2;

  const std::string text = print(r);
  EXPECT_NE(std::string::npos, text.find("retries"));
  EXPECT_NE(std::string::npos, text.find("recovered requests"));
  EXPECT_EQ(std::string::npos, text.find("quarantines"));
}

} // namespace
