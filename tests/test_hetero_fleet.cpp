// Heterogeneous PCU fleets: PcuSpec construction, pluggable dispatch
// policies, warmup policies, and the per-PCU report breakdowns.
//
// The load-bearing guarantees pinned here:
//  * a homogeneous fleet built from a PcuSpec vector is bit-identical to
//    the homogeneous (config) constructor — outputs and every report
//    field;
//  * every dispatch policy is deterministic;
//  * capability-aware dispatch beats earliest-free on a skewed mixed
//    fleet, because it refuses to park requests on PCUs whose WDM budget
//    needs extra segmented bank passes;
//  * warmup policies charge the pipeline fill exactly when documented,
//    observable through PcuBreakdown::warmup_time.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/batch_runner.hpp"

namespace {

using namespace pcnna;
using core::PcnnaConfig;
using core::TimingFidelity;
using runtime::ArrivalSchedule;
using runtime::BatchRunner;
using runtime::BatchRunnerOptions;
using runtime::DispatchPolicy;
using runtime::FleetReport;
using runtime::OpenLoopReport;
using runtime::PcuSpec;
using runtime::RequestResult;
using runtime::WarmupPolicy;

struct Served {
  nn::Network net;
  nn::NetWeights weights;
  std::vector<nn::Tensor> inputs;
};

Served make_served(std::size_t batch, std::uint64_t seed = 33) {
  Rng rng(seed);
  Served s{nn::tiny_cnn(), {}, {}};
  s.weights = nn::make_network_weights(s.net, rng);
  s.inputs.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i)
    s.inputs.push_back(nn::make_network_input(s.net, rng));
  return s;
}

BatchRunnerOptions options(std::size_t pcus, bool simulate_values = true) {
  BatchRunnerOptions o;
  o.num_pcus = pcus;
  o.simulate_values = simulate_values;
  o.seed = 77;
  return o;
}

/// Requests each virtual PCU served, in PCU order.
std::vector<std::size_t> pcu_requests(
    const std::vector<runtime::PcuBreakdown>& per_pcu) {
  std::vector<std::size_t> requests;
  for (const runtime::PcuBreakdown& b : per_pcu) requests.push_back(b.requests);
  return requests;
}

/// A WDM budget tight enough that tiny_cnn's second conv layer
/// (3x3x4 = 36-wide receptive field) needs extra segmented passes.
PcnnaConfig tight_wavelength_config() {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.max_wavelengths = 12;
  return cfg;
}

/// 2 big + 2 small PCUs — the skewed fleet used across these tests.
std::vector<PcuSpec> mixed_specs() {
  PcuSpec big;
  big.config = PcnnaConfig::paper_defaults();
  big.tag = "big";
  PcuSpec small;
  small.config = tight_wavelength_config();
  small.tag = "small";
  return {big, big, small, small};
}

void expect_open_loop_reports_equal(const OpenLoopReport& a,
                                    const OpenLoopReport& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.achieved_rps, b.achieved_rps);
  EXPECT_EQ(a.fleet_capacity_rps, b.fleet_capacity_rps);
  EXPECT_EQ(a.latency.mean, b.latency.mean);
  EXPECT_EQ(a.latency.p50, b.latency.p50);
  EXPECT_EQ(a.latency.p99, b.latency.p99);
  EXPECT_EQ(a.latency.p999, b.latency.p999);
  EXPECT_EQ(a.latency.max, b.latency.max);
  EXPECT_EQ(a.queue_wait.mean, b.queue_wait.mean);
  EXPECT_EQ(a.mean_queue_depth, b.mean_queue_depth);
  EXPECT_EQ(a.total_energy, b.total_energy);
  ASSERT_EQ(a.per_pcu.size(), b.per_pcu.size());
  for (std::size_t p = 0; p < a.per_pcu.size(); ++p) {
    EXPECT_EQ(a.per_pcu[p].requests, b.per_pcu[p].requests);
    EXPECT_EQ(a.per_pcu[p].busy_time, b.per_pcu[p].busy_time);
    EXPECT_EQ(a.per_pcu[p].warmup_time, b.per_pcu[p].warmup_time);
    EXPECT_EQ(a.per_pcu[p].utilization, b.per_pcu[p].utilization);
    EXPECT_EQ(a.per_pcu[p].tag, b.per_pcu[p].tag);
  }
}

// A homogeneous fleet built via the PcuSpec vector produces bit-identical
// outputs and reports to the homogeneous (config) constructor.
TEST(HeteroFleet, HomogeneousSpecVectorBitIdenticalToLegacyConstructor) {
  const Served s = make_served(8);
  const PcnnaConfig config = PcnnaConfig::paper_defaults();

  BatchRunner legacy(config, s.net, s.weights, options(/*pcus=*/3));
  FleetReport legacy_fleet;
  const std::vector<RequestResult> legacy_out =
      legacy.run(s.inputs, &legacy_fleet);

  std::vector<PcuSpec> specs(3);
  for (PcuSpec& spec : specs) spec.config = config;
  BatchRunner via_specs(specs, s.net, s.weights, options(/*pcus=*/3));
  EXPECT_TRUE(via_specs.pool().homogeneous());
  FleetReport spec_fleet;
  const std::vector<RequestResult> spec_out =
      via_specs.run(s.inputs, &spec_fleet);

  ASSERT_EQ(legacy_out.size(), spec_out.size());
  for (std::size_t id = 0; id < legacy_out.size(); ++id)
    EXPECT_EQ(legacy_out[id].output, spec_out[id].output)
        << "request " << id << " differs between constructors";

  EXPECT_EQ(legacy_fleet.makespan, spec_fleet.makespan);
  EXPECT_EQ(legacy_fleet.makespan_sequential, spec_fleet.makespan_sequential);
  EXPECT_EQ(legacy_fleet.request_time_serial, spec_fleet.request_time_serial);
  EXPECT_EQ(legacy_fleet.request_interval, spec_fleet.request_interval);
  EXPECT_EQ(legacy_fleet.mean_latency, spec_fleet.mean_latency);
  EXPECT_EQ(legacy_fleet.max_latency, spec_fleet.max_latency);
  EXPECT_EQ(legacy_fleet.total_energy, spec_fleet.total_energy);
  EXPECT_EQ(pcu_requests(legacy_fleet.per_pcu),
            pcu_requests(spec_fleet.per_pcu));

  // Same promise on the open-loop timing path.
  const ArrivalSchedule arrivals = runtime::poisson_arrivals(500, 2000.0, 4);
  expect_open_loop_reports_equal(legacy.simulate_open_loop(arrivals),
                                 via_specs.simulate_open_loop(arrivals));
}

// Engine threads are a host-simulation knob with bit-identical outputs,
// so per-spec thread counts must not demote a fleet to heterogeneous
// (which would refuse dynamic sharding for no reason).
TEST(HeteroFleet, EngineThreadOverridesKeepPoolHomogeneous) {
  const Served s = make_served(4);
  std::vector<PcuSpec> specs(2);
  specs[0].config = PcnnaConfig::paper_defaults();
  specs[0].config.engine_threads = 1;
  specs[1].config = PcnnaConfig::paper_defaults();
  specs[1].config.engine_threads = 2;
  BatchRunner fleet(specs, s.net, s.weights, options(/*pcus=*/2));
  EXPECT_TRUE(fleet.pool().homogeneous());

  // And the outputs really are thread-count-independent: identical to a
  // single-threaded legacy fleet.
  BatchRunner legacy(PcnnaConfig::paper_defaults(), s.net, s.weights,
                     options(/*pcus=*/2));
  const auto out = fleet.run(s.inputs);
  const auto ref = legacy.run(s.inputs);
  for (std::size_t id = 0; id < out.size(); ++id)
    EXPECT_EQ(ref[id].output, out[id].output);
}

// Every dispatch policy yields a bitwise-identical schedule when re-run.
TEST(HeteroFleet, EveryDispatchPolicyIsDeterministic) {
  const Served s = make_served(0);
  for (const DispatchPolicy policy : runtime::kAllDispatchPolicies) {
    BatchRunnerOptions o = options(/*pcus=*/4, /*simulate_values=*/false);
    o.dispatch = policy;
    BatchRunner fleet(mixed_specs(), s.net, s.weights, o);
    const ArrivalSchedule arrivals = runtime::poisson_arrivals(
        1500, 0.6 * fleet.simulate_open_loop({}).fleet_capacity_rps, 9);
    const OpenLoopReport a = fleet.simulate_open_loop(arrivals);
    const OpenLoopReport b = fleet.simulate_open_loop(arrivals);
    EXPECT_EQ(a.dispatch, policy);
    expect_open_loop_reports_equal(a, b);
  }
}

// The small PCUs pay extra segmented bank passes for the wide layer, so
// the pool's capability bar is the big PCUs' split count.
TEST(HeteroFleet, SplitPassCapabilityReflectsWavelengthBudget) {
  const Served s = make_served(0);
  BatchRunner fleet(mixed_specs(), s.net, s.weights,
                    options(/*pcus=*/4, /*simulate_values=*/false));
  runtime::PcuPool& pool = fleet.pool();
  EXPECT_FALSE(pool.homogeneous());
  EXPECT_GT(pool.pcu(2).channel_split_passes(),
            pool.pcu(0).channel_split_passes());
  EXPECT_EQ(pool.min_split_passes(), pool.pcu(0).channel_split_passes());
  // The big PCU is also strictly faster on this network.
  EXPECT_LT(pool.pcu(0).request_time_serial(),
            pool.pcu(2).request_time_serial());
}

/// Timing-only LeNet-5 model set (no inputs): the realistic skewed-fleet
/// workload. paper_defaults() vs small_core() differ several-fold in the
/// double-buffered request interval (per-channel allocation pays nc
/// thermal-settle recalibrations per layer) *and* in split passes.
Served make_lenet_served() {
  Rng rng(41);
  Served s{nn::lenet5(), {}, {}};
  s.weights = nn::make_network_weights(s.net, rng);
  return s;
}

std::vector<PcuSpec> lenet_mixed_specs() {
  PcuSpec big;
  big.config = PcnnaConfig::paper_defaults();
  big.tag = "big";
  PcuSpec small;
  small.config = PcnnaConfig::small_core();
  small.tag = "small";
  return {big, big, small, small};
}

// On a skewed trace the capability-aware policy keeps every request on the
// big PCUs; earliest-free parks work on the slow ones whenever they are
// free first, which inflates the tail.
TEST(HeteroFleet, CapabilityAwareBeatsEarliestFreeOnSkewedTrace) {
  const Served s = make_lenet_served();

  BatchRunnerOptions ef = options(/*pcus=*/4, /*simulate_values=*/false);
  ef.dispatch = DispatchPolicy::kEarliestFree;
  BatchRunner ef_fleet(lenet_mixed_specs(), s.net, s.weights, ef);

  BatchRunnerOptions cap = ef;
  cap.dispatch = DispatchPolicy::kCapabilityAware;
  BatchRunner cap_fleet(lenet_mixed_specs(), s.net, s.weights, cap);

  // The small PCUs genuinely are both slower and less capable here.
  const runtime::PcuPool& pool = cap_fleet.pool();
  ASSERT_GT(pool.pcu(2).channel_split_passes(),
            pool.pcu(0).channel_split_passes());
  ASSERT_GT(pool.pcu(2).request_interval_overlapped(),
            2.0 * pool.pcu(0).request_interval_overlapped());

  // Offered load the capable (big) subset absorbs comfortably: 40 % of the
  // rate of the two big PCUs alone.
  const double big_capacity =
      2.0 / pool.pcu(0).request_interval_overlapped();
  const ArrivalSchedule arrivals =
      runtime::poisson_arrivals(2000, 0.4 * big_capacity, 13);

  const OpenLoopReport ef_report = ef_fleet.simulate_open_loop(arrivals);
  const OpenLoopReport cap_report = cap_fleet.simulate_open_loop(arrivals);

  // Capability-aware never touches the small PCUs...
  EXPECT_EQ(0u, cap_report.per_pcu[2].requests);
  EXPECT_EQ(0u, cap_report.per_pcu[3].requests);
  // ...earliest-free does...
  EXPECT_GT(ef_report.per_pcu[2].requests, 0u);
  // ...and paying the small PCUs' extra passes costs tail latency.
  EXPECT_LT(cap_report.latency.p99, ef_report.latency.p99);
  EXPECT_LT(cap_report.latency.mean, ef_report.latency.mean);
}

// Least-loaded scores predicted completion, so an idle slow PCU loses to
// an idle fast one. Earliest-free scores only free times, so on a sparse
// stream it keeps bouncing back to whichever PCU finished longest ago —
// including the slow one.
TEST(HeteroFleet, LeastLoadedPrefersFasterPcuOverLowerIndex) {
  const Served s = make_lenet_served();
  PcuSpec small;
  small.config = PcnnaConfig::small_core();
  small.tag = "small";
  PcuSpec big;
  big.config = PcnnaConfig::paper_defaults();
  big.tag = "big";
  const std::vector<PcuSpec> specs = {small, big}; // slow one first

  BatchRunnerOptions ll = options(/*pcus=*/2, /*simulate_values=*/false);
  ll.dispatch = DispatchPolicy::kLeastLoaded;
  BatchRunner ll_fleet(specs, s.net, s.weights, ll);

  BatchRunnerOptions ef = ll;
  ef.dispatch = DispatchPolicy::kEarliestFree;
  BatchRunner ef_fleet(specs, s.net, s.weights, ef);

  // Sparse arrivals: the whole fleet is idle at every arrival.
  const double capacity = ll_fleet.simulate_open_loop({}).fleet_capacity_rps;
  const ArrivalSchedule arrivals =
      runtime::uniform_arrivals(40, 0.01 * capacity);

  const OpenLoopReport ll_report = ll_fleet.simulate_open_loop(arrivals);
  const OpenLoopReport ef_report = ef_fleet.simulate_open_loop(arrivals);

  EXPECT_EQ(0u, ll_report.per_pcu[0].requests)
      << "least-loaded must never pick the slow PCU while the fast one "
         "completes sooner";
  EXPECT_EQ(40u, ll_report.per_pcu[1].requests);
  EXPECT_GT(ef_report.per_pcu[0].requests, 0u)
      << "earliest-free is blind to speed and serves some requests slowly";
  EXPECT_LT(ll_report.latency.max, ef_report.latency.max);
}

// Warmup policies charge the pipeline fill exactly when documented, and
// the charges are observable in PcuBreakdown::warmup_time.
TEST(HeteroFleet, WarmupPoliciesChargeThePipelineFillAsDocumented) {
  const Served s = make_served(0);
  const auto report_for = [&](WarmupPolicy warmup,
                              const ArrivalSchedule& arrivals) {
    PcuSpec spec;
    spec.config = PcnnaConfig::paper_defaults();
    spec.warmup = warmup;
    BatchRunner fleet({spec}, s.net, s.weights,
                      options(/*pcus=*/1, /*simulate_values=*/false));
    return fleet.simulate_open_loop(arrivals);
  };

  PcuSpec probe;
  probe.config = PcnnaConfig::paper_defaults();
  BatchRunner probe_fleet({probe}, s.net, s.weights,
                          options(/*pcus=*/1, /*simulate_values=*/false));
  const double warmup = probe_fleet.pool().pcu(0).warmup_time();
  ASSERT_GT(warmup, 0.0);

  // Back-to-back closed batch of 6: one fill for recharge-after-idle and
  // pinned-after-first, six for always-cold.
  const ArrivalSchedule batch = runtime::closed_batch_arrivals(6);
  EXPECT_DOUBLE_EQ(
      warmup,
      report_for(WarmupPolicy::kRechargeAfterIdle, batch).per_pcu[0]
          .warmup_time);
  EXPECT_DOUBLE_EQ(
      warmup,
      report_for(WarmupPolicy::kPinnedAfterFirst, batch).per_pcu[0]
          .warmup_time);
  EXPECT_DOUBLE_EQ(
      6.0 * warmup,
      report_for(WarmupPolicy::kAlwaysCold, batch).per_pcu[0].warmup_time);

  // Sparse arrivals (idle gap before every request): recharge-after-idle
  // and always-cold pay every time, pinned-after-first only once.
  const double interval =
      probe_fleet.pool().pcu(0).request_interval_overlapped();
  ArrivalSchedule sparse;
  for (std::size_t i = 0; i < 5; ++i)
    sparse.push_back(static_cast<double>(i) * 50.0 * (interval + warmup));
  EXPECT_DOUBLE_EQ(
      5.0 * warmup,
      report_for(WarmupPolicy::kRechargeAfterIdle, sparse).per_pcu[0]
          .warmup_time);
  EXPECT_DOUBLE_EQ(
      warmup,
      report_for(WarmupPolicy::kPinnedAfterFirst, sparse).per_pcu[0]
          .warmup_time);
  EXPECT_DOUBLE_EQ(
      5.0 * warmup,
      report_for(WarmupPolicy::kAlwaysCold, sparse).per_pcu[0].warmup_time);

  // The serial schedule has no pipeline to fill: every layer pays its
  // recalibration inline, so no policy charges a warmup.
  PcuSpec cold;
  cold.config = PcnnaConfig::paper_defaults();
  cold.warmup = WarmupPolicy::kAlwaysCold;
  BatchRunnerOptions serial = options(/*pcus=*/1, /*simulate_values=*/false);
  serial.double_buffer = false;
  BatchRunner serial_fleet({cold}, s.net, s.weights, serial);
  EXPECT_DOUBLE_EQ(
      0.0, serial_fleet.simulate_open_loop(batch).per_pcu[0].warmup_time);
}

// Per-PCU breakdowns are consistent with the fleet totals and carry tags.
TEST(HeteroFleet, PerPcuBreakdownsAreConsistentWithTotals) {
  const Served s = make_served(0);
  BatchRunnerOptions o = options(/*pcus=*/4, /*simulate_values=*/false);
  o.dispatch = DispatchPolicy::kLeastLoaded;
  BatchRunner fleet(mixed_specs(), s.net, s.weights, o);
  const ArrivalSchedule arrivals = runtime::poisson_arrivals(
      800, 0.7 * fleet.simulate_open_loop({}).fleet_capacity_rps, 21);
  const OpenLoopReport r = fleet.simulate_open_loop(arrivals);

  ASSERT_EQ(4u, r.per_pcu.size());
  std::size_t total_requests = 0;
  for (std::size_t p = 0; p < r.per_pcu.size(); ++p) {
    total_requests += r.per_pcu[p].requests;
    EXPECT_LE(r.per_pcu[p].warmup_time, r.per_pcu[p].busy_time);
    EXPECT_NEAR(r.per_pcu[p].busy_time, r.per_pcu[p].utilization * r.makespan,
                1e-12 * r.makespan);
  }
  EXPECT_EQ(r.requests, total_requests);
  EXPECT_EQ("big", r.per_pcu[0].tag);
  EXPECT_EQ("small", r.per_pcu[3].tag);
}

// Functional serving on a heterogeneous fleet follows the deterministic
// virtual-time assignment: which PCU produced each output is reproducible,
// and so are the output bits.
TEST(HeteroFleet, FunctionalServingFollowsTheVirtualSchedule) {
  const Served s = make_served(10);
  BatchRunnerOptions o = options(/*pcus=*/4);
  o.dispatch = DispatchPolicy::kLeastLoaded;

  BatchRunner a(mixed_specs(), s.net, s.weights, o);
  OpenLoopReport ra;
  const ArrivalSchedule arrivals =
      runtime::poisson_arrivals(s.inputs.size(), 1500.0, 7);
  const std::vector<RequestResult> out_a =
      a.run_open_loop(s.inputs, arrivals, &ra);

  BatchRunner b(mixed_specs(), s.net, s.weights, o);
  OpenLoopReport rb;
  const std::vector<RequestResult> out_b =
      b.run_open_loop(s.inputs, arrivals, &rb);

  // Physical assignment matches the virtual schedule's per-PCU counts.
  std::vector<std::size_t> physical(4, 0);
  for (const RequestResult& result : out_a) physical[result.pcu_index] += 1;
  EXPECT_EQ(pcu_requests(ra.per_pcu), physical);

  // Identical runs reproduce both the assignment and every output bit.
  ASSERT_EQ(out_a.size(), out_b.size());
  for (std::size_t id = 0; id < out_a.size(); ++id) {
    EXPECT_EQ(out_a[id].pcu_index, out_b[id].pcu_index);
    EXPECT_EQ(out_a[id].output, out_b[id].output);
  }
}

// Dynamic sharding is refused on a heterogeneous pool: it would make the
// output bits depend on host thread timing.
TEST(HeteroFleet, DynamicShardingRejectedOnHeterogeneousPool) {
  const Served s = make_served(2);
  BatchRunner fleet(mixed_specs(), s.net, s.weights, options(/*pcus=*/4));
  runtime::RequestQueue queue;
  queue.close();
  EXPECT_THROW(fleet.pool().serve_all(queue, 0, false), Error);
}

// The printed report surfaces the new fleet columns.
TEST(HeteroFleet, ReportPrintsTagsAndDispatchPolicy) {
  const Served s = make_served(0);
  BatchRunnerOptions o = options(/*pcus=*/4, /*simulate_values=*/false);
  o.dispatch = DispatchPolicy::kCapabilityAware;
  BatchRunner fleet(mixed_specs(), s.net, s.weights, o);
  const OpenLoopReport r = fleet.simulate_open_loop(
      runtime::poisson_arrivals(100, 1000.0, 3));

  std::ostringstream os;
  BatchRunner::print_report(r, os, "hetero unit test");
  const std::string text = os.str();
  EXPECT_NE(std::string::npos, text.find("capability-aware"));
  EXPECT_NE(std::string::npos, text.find("big"));
  EXPECT_NE(std::string::npos, text.find("small"));
  EXPECT_NE(std::string::npos, text.find("warmup time"));
}

} // namespace
