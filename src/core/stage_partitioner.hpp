// Splitting a Network into contiguous pipeline stages balanced by
// channel_split_passes.
//
// PCNNA's serving cost is dominated by weight-bank reprogramming, and the
// only way a resident model stops paying it is to stop reprogramming:
// split the network into contiguous layer ranges, pin each range's weight
// banks on its own PCU, and stream feature maps through the chain
// (runtime::PipelineGroup). The partitioner's job is the deterministic
// split: stage cost is the per-layer capability metric the dispatch
// policies already use — LayerPlan::cycles_per_location, the sequential
// weight-bank passes per kernel location — summed over the range's conv
// layers, and the partition minimizes the maximum stage cost so the
// pipeline's bottleneck stage is as light as possible. Electronic ops
// (ReLU/pool/LRN/...) cost nothing and ride with the conv that produced
// their input, which keeps every DRAM round-trip inside one stage.
//
// Stage-to-PCU assignment is capability-driven: the strongest PCUs (fewest
// whole-model split passes) take the heaviest stages, steering small-core
// PCUs to light stages. Both the partition and the assignment are pure
// integer computations with index tie-breaks, so re-running them after a
// stage PCU is quarantined re-places the stages deterministically.
#pragma once

#include <cstddef>
#include <vector>

#include "core/config.hpp"
#include "core/scheduler.hpp"
#include "nn/network.hpp"

namespace pcnna::core {

/// One contiguous op range [op_begin, op_end) of a Network, with the
/// balance cost the partitioner assigned it (sum of its conv ops' costs).
struct StageRange {
  std::size_t op_begin = 0;
  std::size_t op_end = 0;
  std::size_t cost = 0;
};

/// Deterministic balanced partitioner for pipeline-parallel serving.
class StagePartitioner {
 public:
  /// `config` prices the per-layer costs (ring/WDM budgets change how many
  /// bank passes a layer needs). Use the config of the strongest PCU the
  /// pipeline may run on; assignment handles per-PCU differences.
  explicit StagePartitioner(const PcnnaConfig& config);

  /// Per-op balance cost: LayerPlan::cycles_per_location for conv ops,
  /// 0 for electronic ops (they never touch the weight banks). FC ops weigh
  /// 0 even under PcnnaConfig::accelerate_fc, where the Accelerator offloads
  /// them and serving prices them (core::offloaded_layer): stages balance
  /// on the conv layers alone.
  std::vector<std::size_t> op_costs(const nn::Network& net) const;

  /// Split `net` into exactly `stages` contiguous, non-empty op ranges
  /// covering every op, minimizing the maximum stage cost. Each stage
  /// holds at least one conv op; electronic ops attach to the stage of the
  /// conv that feeds them (leading electronic ops join stage 0). Requires
  /// 1 <= stages <= max_stages(net). Deterministic: equal-cost splits
  /// resolve toward the earliest boundaries.
  std::vector<StageRange> partition(const nn::Network& net,
                                    std::size_t stages) const;

  /// Largest usable stage count: the number of conv ops.
  static std::size_t max_stages(const nn::Network& net);

 private:
  Scheduler scheduler_;
};

/// Balanced contiguous partition of raw per-op costs (the partition() core,
/// exposed for testing): split `costs` into `stages` ranges, each holding
/// >= 1 positive-cost op, minimizing the maximum range cost.
std::vector<StageRange> partition_costs(const std::vector<std::size_t>& costs,
                                        std::size_t stages);

/// Map stages onto PCUs: the heaviest stage (ties: lowest stage index)
/// goes to the strongest candidate — fewest whole-model split passes
/// (ties: lowest PCU index). `candidates` are PCU indices; `passes[i]` is
/// candidates[i]'s Pcu::channel_split_passes for the pipelined model.
/// Returns one PCU index per stage. Throws if there are fewer candidates
/// than stages.
std::vector<std::size_t> assign_stages(
    const std::vector<StageRange>& stages,
    const std::vector<std::size_t>& candidates,
    const std::vector<std::size_t>& passes);

} // namespace pcnna::core
