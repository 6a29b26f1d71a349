#include "core/scheduler.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/mathutil.hpp"
#include "electronics/sram.hpp"

namespace pcnna::core {

Scheduler::Scheduler(PcnnaConfig config) : config_(std::move(config)) {
  config_.validate();
}

std::uint64_t channel_passes(const nn::ConvLayerParams& layer,
                             RingAllocation allocation) {
  switch (allocation) {
    case RingAllocation::kFullKernel: return 1;
    case RingAllocation::kPerChannel: return layer.nc;
  }
  throw Error("unknown ring allocation");
}

std::uint64_t pass_width(const nn::ConvLayerParams& layer,
                         RingAllocation allocation) {
  return layer.kernel_size() / channel_passes(layer, allocation);
}

std::uint64_t fresh_per_pass(const nn::ConvLayerParams& layer,
                             RingAllocation allocation) {
  return std::min<std::uint64_t>(
      layer.updated_inputs_per_location() / channel_passes(layer, allocation),
      pass_width(layer, allocation));
}

LayerPlan Scheduler::plan(const nn::ConvLayerParams& layer) const {
  layer.validate();

  LayerPlan plan;
  plan.layer = layer;
  plan.allocation = config_.allocation;
  plan.locations = layer.num_locations();

  // Every value of a pass has a dedicated ring in every kernel's bank;
  // passes wider than the WDM budget are segmented into sequential groups
  // whose balanced-photodiode currents wire-sum. Per-channel passes retune
  // the rings in between, one recalibration each.
  const std::uint64_t passes = channel_passes(layer, plan.allocation);
  const std::uint64_t width = pass_width(layer, plan.allocation);
  const std::uint64_t fresh = fresh_per_pass(layer, plan.allocation);
  plan.group_size = std::min<std::uint64_t>(config_.max_wavelengths, width);
  for (std::uint64_t begin = 0; begin < width; begin += plan.group_size)
    plan.groups.push_back(
        GroupSlice{begin, std::min(begin + plan.group_size, width)});
  plan.rings_total = layer.K * width;
  plan.recalibrations = passes;
  plan.cycles_per_location = passes * plan.groups.size();
  plan.sram_words = width;
  // Partial sums for (locations x K) outputs accumulate across the passes;
  // all but the last pass round-trip them through DRAM.
  const std::uint64_t partial_roundtrips =
      plan.locations * layer.K * (passes - 1);
  plan.dram_read_words =
      layer.input_size() + layer.weight_count() + partial_roundtrips;
  plan.dram_write_words = layer.output_size() + partial_roundtrips;
  // The first location of each pass loads its whole width; later ones only
  // the pass's fresh values.
  plan.input_dac_conversions =
      passes * (width + (plan.locations - 1) * fresh);
  // Every weight is programmed once per layer, spread over the passes.
  plan.weight_dac_conversions = layer.weight_count();
  // Segment currents wire-sum in analog and every pass is digitized: one
  // ADC sample per kernel per location per pass.
  plan.adc_conversions = plan.locations * layer.K * passes;

  // The live working set must fit the input cache.
  const elec::Sram sram(config_.sram);
  PCNNA_CHECK_MSG(plan.sram_words <= sram.capacity_words(),
                  "layer '" << layer.name << "': working set of "
                            << plan.sram_words << " words exceeds SRAM ("
                            << sram.capacity_words() << " words)");
  return plan;
}

} // namespace pcnna::core
