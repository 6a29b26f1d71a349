// StagePartitioner: the deterministic layer-range splitter behind
// pipeline-parallel serving.
//
// The load-bearing guarantees pinned here:
//  * partitions are contiguous, cover every op exactly once, and each
//    stage owns at least one conv op — electronic ops ride with the conv
//    that produced their input;
//  * the DP is optimal: the bottleneck (maximum) stage cost matches a
//    brute-force search over all contiguous splits, so the balance bound
//    max/min never drifts without a test catching it;
//  * ties resolve deterministically toward the earliest boundaries;
//  * assign_stages is capability-driven: the heaviest stage lands on the
//    strongest PCU (fewest whole-model passes), ties by lowest index;
//  * place_pipeline is a pure function of the surviving member set, so
//    re-placement after a quarantine is deterministic and repeatable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/stage_partitioner.hpp"
#include "nn/models.hpp"
#include "nn/network.hpp"
#include "nn/synth.hpp"
#include "runtime/pcu_pool.hpp"

namespace {

using namespace pcnna;
using core::PcnnaConfig;
using core::StagePartitioner;
using core::StageRange;
using core::TimingFidelity;
using runtime::PcuPool;
using runtime::PcuSpec;

/// `n` identical paper-default PCU specs.
std::vector<runtime::PcuSpec> paper_fleet(std::size_t n) {
  runtime::PcuSpec spec;
  spec.config = PcnnaConfig::paper_defaults();
  return std::vector<runtime::PcuSpec>(n, spec);
}

/// Brute-force minimal bottleneck cost over all contiguous splits of
/// `costs` into `stages` ranges, each holding >= 1 positive-cost op.
std::size_t brute_force_bottleneck(const std::vector<std::size_t>& costs,
                                   std::size_t lo, std::size_t stages) {
  const std::size_t n = costs.size();
  if (stages == 1) {
    std::size_t sum = 0;
    bool positive = false;
    for (std::size_t i = lo; i < n; ++i) {
      sum += costs[i];
      positive = positive || costs[i] > 0;
    }
    return positive ? sum : static_cast<std::size_t>(-1);
  }
  std::size_t best = static_cast<std::size_t>(-1);
  std::size_t head = 0;
  bool positive = false;
  for (std::size_t cut = lo + 1; cut < n; ++cut) {
    head += costs[cut - 1];
    positive = positive || costs[cut - 1] > 0;
    if (!positive) continue;
    const std::size_t rest = brute_force_bottleneck(costs, cut, stages - 1);
    if (rest == static_cast<std::size_t>(-1)) continue;
    best = std::min(best, std::max(head, rest));
  }
  return best;
}

void expect_contiguous_cover(const std::vector<StageRange>& ranges,
                             const std::vector<std::size_t>& costs) {
  ASSERT_FALSE(ranges.empty());
  EXPECT_EQ(0u, ranges.front().op_begin);
  EXPECT_EQ(costs.size(), ranges.back().op_end);
  for (std::size_t j = 0; j < ranges.size(); ++j) {
    EXPECT_LT(ranges[j].op_begin, ranges[j].op_end) << "stage " << j;
    if (j > 0) {
      EXPECT_EQ(ranges[j - 1].op_end, ranges[j].op_begin) << "stage " << j;
    }
    std::size_t sum = 0;
    for (std::size_t i = ranges[j].op_begin; i < ranges[j].op_end; ++i)
      sum += costs[i];
    EXPECT_EQ(sum, ranges[j].cost) << "stage " << j;
    EXPECT_GT(sum, 0u) << "stage " << j << " holds no conv op";
  }
}

// --- partition_costs: the raw DP ---

TEST(PartitionCosts, ContiguousCoverAndOptimalBottleneck) {
  // Randomized vectors with interleaved zero-cost (electronic) ops,
  // checked against brute force at every feasible stage count.
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::size_t> costs;
    const std::size_t n = 3 + rng.next_u64() % 6; // 3..8 ops
    std::size_t positive = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool conv = i == 0 || rng.next_u64() % 3 != 0;
      costs.push_back(conv ? 1 + rng.next_u64() % 20 : 0);
      positive += conv ? 1 : 0;
    }
    for (std::size_t stages = 1; stages <= positive; ++stages) {
      const std::vector<StageRange> ranges =
          core::partition_costs(costs, stages);
      ASSERT_EQ(stages, ranges.size());
      expect_contiguous_cover(ranges, costs);
      std::size_t bottleneck = 0;
      for (const StageRange& r : ranges)
        bottleneck = std::max(bottleneck, r.cost);
      EXPECT_EQ(brute_force_bottleneck(costs, 0, stages), bottleneck)
          << "trial " << trial << " stages " << stages;
    }
  }
}

TEST(PartitionCosts, TiesResolveTowardTheEarliestBoundary) {
  // {1,1,1,1} into 2 stages: splits after op 2 and op 3 both achieve the
  // optimal bottleneck of 2; the earliest boundary must win.
  const std::vector<StageRange> ranges = core::partition_costs({1, 1, 1, 1}, 2);
  ASSERT_EQ(2u, ranges.size());
  EXPECT_EQ(2u, ranges[0].op_end);
  // And the choice is stable across calls.
  const std::vector<StageRange> again = core::partition_costs({1, 1, 1, 1}, 2);
  EXPECT_EQ(ranges[0].op_end, again[0].op_end);
}

TEST(PartitionCosts, RejectsInfeasibleStageCounts) {
  EXPECT_THROW(core::partition_costs({1, 1}, 0), Error);
  EXPECT_THROW(core::partition_costs({1, 1}, 3), Error);
  EXPECT_THROW(core::partition_costs({0, 0}, 1), Error);
}

// --- StagePartitioner over real networks ---

TEST(StagePartitionerTest, ElectronicOpsRideWithTheirConv) {
  const nn::Network net = nn::lenet5();
  const StagePartitioner part(PcnnaConfig::paper_defaults());
  const std::vector<std::size_t> costs = part.op_costs(net);
  ASSERT_EQ(net.ops().size(), costs.size());
  for (std::size_t i = 0; i < costs.size(); ++i) {
    if (net.ops()[i].kind == nn::OpKind::kConv)
      EXPECT_GT(costs[i], 0u) << "op " << i;
    else
      EXPECT_EQ(0u, costs[i]) << "op " << i;
  }

  const std::size_t max_stages = StagePartitioner::max_stages(net);
  EXPECT_EQ(3u, max_stages); // lenet5 has three conv layers
  for (std::size_t stages = 1; stages <= max_stages; ++stages) {
    const std::vector<StageRange> ranges = part.partition(net, stages);
    expect_contiguous_cover(ranges, costs);
    // Every stage must *start* at a conv boundary (except stage 0, which
    // also absorbs any leading electronic ops).
    for (std::size_t j = 1; j < ranges.size(); ++j)
      EXPECT_EQ(nn::OpKind::kConv, net.ops()[ranges[j].op_begin].kind)
          << "stage " << j;
  }
  EXPECT_THROW(part.partition(net, max_stages + 1), Error);
  EXPECT_THROW(part.partition(net, 0), Error);
}

TEST(StagePartitionerTest, BalanceBoundOnUniformLayers) {
  // Three identical conv layers into 3 stages: perfectly balanced, so the
  // bottleneck-to-lightest ratio is exactly 1.
  nn::Network net("uniform", nn::Shape4{1, 16, 8, 8});
  for (int i = 0; i < 3; ++i)
    net.add_conv({std::string("c").append(std::to_string(i)), 8, 3, 1, 1, 16, 16});
  const StagePartitioner part(PcnnaConfig::paper_defaults());
  const std::vector<StageRange> ranges = part.partition(net, 3);
  std::size_t lo = ranges[0].cost, hi = ranges[0].cost;
  for (const StageRange& r : ranges) {
    lo = std::min(lo, r.cost);
    hi = std::max(hi, r.cost);
  }
  EXPECT_EQ(lo, hi);

  // VGG-16 into 4 stages: layer costs are skewed, but the bottleneck can
  // never exceed the whole-network serial cost and the partition must
  // beat the trivial bound serial/1 (i.e. actually split work).
  const nn::Network vgg = nn::vgg16();
  const std::vector<std::size_t> vcosts = part.op_costs(vgg);
  const std::size_t serial =
      std::accumulate(vcosts.begin(), vcosts.end(), std::size_t{0});
  const std::vector<StageRange> vranges = part.partition(vgg, 4);
  std::size_t bottleneck = 0;
  for (const StageRange& r : vranges)
    bottleneck = std::max(bottleneck, r.cost);
  EXPECT_LT(bottleneck, serial);
  // A 4-way split of a 13-conv net must land within 2x of the ideal
  // serial/4 bottleneck — the DP is optimal, this guards cost modeling.
  EXPECT_LE(bottleneck, (serial + 1) / 2);
}

// --- assign_stages: capability-driven stage placement ---

TEST(AssignStages, HeaviestStageGoesToTheStrongestPcu) {
  const std::vector<StageRange> stages = {
      {0, 2, 10}, {2, 4, 30}, {4, 6, 20}};
  // Candidate PCU 7 is strongest (2 passes), 5 weakest (9 passes).
  const std::vector<std::size_t> candidates = {5, 6, 7};
  const std::vector<std::size_t> passes = {9, 4, 2};
  const std::vector<std::size_t> got =
      core::assign_stages(stages, candidates, passes);
  ASSERT_EQ(3u, got.size());
  EXPECT_EQ(7u, got[1]); // heaviest stage (30) -> strongest PCU
  EXPECT_EQ(6u, got[2]); // next (20) -> next strongest
  EXPECT_EQ(5u, got[0]); // lightest (10) -> weakest
}

TEST(AssignStages, TiesBreakTowardLowestIndices) {
  // Equal-cost stages on equal-strength candidates: stage order and PCU
  // order must both fall back to lowest-index-first.
  const std::vector<StageRange> stages = {{0, 1, 5}, {1, 2, 5}};
  const std::vector<std::size_t> got =
      core::assign_stages(stages, {3, 1, 2}, {4, 4, 4});
  ASSERT_EQ(2u, got.size());
  EXPECT_EQ(1u, got[0]); // stage 0 first on ties, lowest PCU index first
  EXPECT_EQ(2u, got[1]);
}

TEST(AssignStages, RejectsTooFewCandidates) {
  const std::vector<StageRange> stages = {{0, 1, 5}, {1, 2, 5}};
  EXPECT_THROW(core::assign_stages(stages, {0}, {1}), Error);
  EXPECT_THROW(core::assign_stages(stages, {0, 1}, {1}), Error);
}

// --- build_pipeline / place_pipeline on a pool ---

struct Fixture {
  nn::Network net = nn::lenet5();
  nn::NetWeights weights;
};

Fixture make_fixture() {
  Fixture f;
  Rng rng(7);
  f.weights = nn::make_network_weights(f.net, rng);
  return f;
}

/// A WDM budget tight enough that lenet5's wide layers need extra
/// segmented bank passes — the "small" PCU of a mixed fleet.
PcnnaConfig weak_config() {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.max_wavelengths = 12;
  return cfg;
}

TEST(BuildPipeline, ValidatesItsArguments) {
  const Fixture f = make_fixture();
  PcuPool pool(paper_fleet(4), TimingFidelity::kFull,
               f.net, f.weights);
  EXPECT_THROW(pool.build_pipeline(1, {0, 1}), Error);  // unregistered model
  EXPECT_THROW(pool.build_pipeline(0, {}), Error);      // empty group
  EXPECT_THROW(pool.build_pipeline(0, {0, 0}), Error);  // duplicate member
  EXPECT_THROW(pool.build_pipeline(0, {0, 9}), Error);  // PCU out of range
  EXPECT_THROW(pool.build_pipeline(0, {0, 1}, -1.0), Error); // bad hand-off
  // lenet5 has 3 conv ops: a 4-stage chain cannot exist.
  EXPECT_THROW(pool.build_pipeline(0, {0, 1, 2, 3}), Error);

  ASSERT_EQ(0u, pool.build_pipeline(0, {0, 1, 2}));
  EXPECT_EQ(1u, pool.num_pipelines());
  // One group per model, and members are reserved fleet-wide.
  EXPECT_THROW(pool.build_pipeline(0, {3}), Error);
}

TEST(BuildPipeline, HeaviestStageLandsOnTheStrongestMember) {
  const Fixture f = make_fixture();
  // Mixed chain: one strong PCU among two weak ones.
  PcuSpec strong{PcnnaConfig::paper_defaults(),
                 runtime::WarmupPolicy::kRechargeAfterIdle, "big"};
  PcuSpec weak{weak_config(), runtime::WarmupPolicy::kRechargeAfterIdle,
               "small"};
  PcuPool pool({weak, strong, weak}, TimingFidelity::kFull, f.net, f.weights);
  pool.build_pipeline(0, {0, 1, 2});
  const runtime::PipelineGroup& g = pool.pipeline(0);
  ASSERT_EQ(3u, g.stages.size());

  std::size_t heaviest = 0;
  for (std::size_t j = 1; j < g.stages.size(); ++j)
    if (g.stages[j].cost > g.stages[heaviest].cost) heaviest = j;
  std::size_t strongest = g.members.front();
  for (const std::size_t p : g.members)
    if (pool.pcu(p).channel_split_passes(0) <
        pool.pcu(strongest).channel_split_passes(0))
      strongest = p;
  EXPECT_EQ(1u, strongest) << "fixture: the middle PCU is the strong one";
  EXPECT_EQ(strongest, g.stages[heaviest].pcu);
}

TEST(PlacePipeline, QuarantineReplacementIsDeterministic) {
  const Fixture f = make_fixture();
  PcuPool pool(paper_fleet(4), TimingFidelity::kFull,
               f.net, f.weights);
  pool.build_pipeline(0, {0, 1, 2});
  const runtime::PipelineGroup& placed = pool.pipeline(0);
  ASSERT_EQ(3u, placed.stages.size());

  // Simulate quarantining member 1: re-place over the survivors, twice.
  runtime::PipelineGroup a = placed;
  runtime::PipelineGroup b = placed;
  const std::vector<std::size_t> survivors = {0, 2};
  pool.place_pipeline(a, survivors);
  pool.place_pipeline(b, survivors);

  ASSERT_EQ(2u, a.stages.size()); // min(members, survivors) stages
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t j = 0; j < a.stages.size(); ++j) {
    EXPECT_EQ(a.stages[j].pcu, b.stages[j].pcu) << "stage " << j;
    EXPECT_EQ(a.stages[j].op_begin, b.stages[j].op_begin) << "stage " << j;
    EXPECT_EQ(a.stages[j].op_end, b.stages[j].op_end) << "stage " << j;
    EXPECT_EQ(a.stages[j].cost, b.stages[j].cost) << "stage " << j;
    // Survivors only.
    EXPECT_NE(1u, a.stages[j].pcu) << "stage " << j;
  }
  // The 2-stage ranges still cover the whole network contiguously.
  EXPECT_EQ(0u, a.stages.front().op_begin);
  EXPECT_EQ(f.net.ops().size(), a.stages.back().op_end);
  EXPECT_EQ(a.stages.front().op_end, a.stages.back().op_begin);

  // Recovery is the inverse: re-placing over the full member set restores
  // the original 3-stage placement exactly.
  pool.place_pipeline(a, placed.members);
  ASSERT_EQ(placed.stages.size(), a.stages.size());
  for (std::size_t j = 0; j < a.stages.size(); ++j) {
    EXPECT_EQ(placed.stages[j].pcu, a.stages[j].pcu) << "stage " << j;
    EXPECT_EQ(placed.stages[j].op_begin, a.stages[j].op_begin)
        << "stage " << j;
    EXPECT_EQ(placed.stages[j].op_end, a.stages[j].op_end) << "stage " << j;
  }
}

} // namespace
