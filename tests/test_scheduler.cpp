// Layer scheduler: mapping invariants for both allocations.
#include <gtest/gtest.h>

#include "core/scheduler.hpp"
#include "nn/models.hpp"

namespace {

using namespace pcnna;
using core::LayerPlan;
using core::PcnnaConfig;
using core::RingAllocation;
using core::Scheduler;

nn::ConvLayerParams alexnet_layer(std::size_t i) {
  return nn::alexnet_conv_layers().at(i);
}

TEST(Scheduler, GroupsTileTheReceptiveFieldExactly) {
  const Scheduler sched(PcnnaConfig::paper_defaults());
  for (const auto& layer : nn::alexnet_conv_layers()) {
    const LayerPlan plan = sched.plan(layer);
    std::uint64_t covered = 0;
    std::uint64_t prev_end = 0;
    for (const auto& slice : plan.groups) {
      EXPECT_EQ(prev_end, slice.begin) << layer.name;
      EXPECT_GT(slice.end, slice.begin) << layer.name;
      covered += slice.size();
      prev_end = slice.end;
    }
    EXPECT_EQ(layer.kernel_size(), covered) << layer.name;
  }
}

TEST(Scheduler, FullKernelRingsMatchEq5) {
  const Scheduler sched(PcnnaConfig::paper_defaults());
  const LayerPlan plan = sched.plan(alexnet_layer(3));
  EXPECT_EQ(1'327'104u, plan.rings_total);
  EXPECT_EQ(1u, plan.recalibrations);
}

TEST(Scheduler, PerChannelRingsMatchPaperWorkedNumber) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.allocation = RingAllocation::kPerChannel;
  const Scheduler sched(cfg);
  const LayerPlan plan = sched.plan(alexnet_layer(3));
  EXPECT_EQ(3456u, plan.rings_total);
  EXPECT_EQ(384u, plan.recalibrations); // one retuning per input channel
  // Groups tile m*m = 9 values.
  std::uint64_t covered = 0;
  for (const auto& slice : plan.groups) covered += slice.size();
  EXPECT_EQ(9u, covered);
}

TEST(Scheduler, CyclesPerLocationReflectWdmBudget) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.max_wavelengths = 96;
  const Scheduler sched(cfg);
  // conv3: Nkernel = 2304 -> 24 passes of 96 channels.
  const LayerPlan plan = sched.plan(alexnet_layer(2));
  EXPECT_EQ(24u, plan.cycles_per_location);
  EXPECT_EQ(24u, plan.groups.size());
}

TEST(Scheduler, PerChannelCyclesIncludeChannelLoop) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.allocation = RingAllocation::kPerChannel;
  const Scheduler sched(cfg);
  // conv3: nc = 256 channel passes, m*m = 9 fits one group.
  const LayerPlan plan = sched.plan(alexnet_layer(2));
  EXPECT_EQ(256u, plan.cycles_per_location);
}

TEST(Scheduler, InputDacConversionsCountFreshValues) {
  const Scheduler sched(PcnnaConfig::paper_defaults());
  const auto conv4 = alexnet_layer(3);
  const LayerPlan plan = sched.plan(conv4);
  // First location: full receptive field (3456); then 168 locations x
  // nc*m*s = 1152 fresh values.
  EXPECT_EQ(3456u + 168u * 1152u, plan.input_dac_conversions);
}

TEST(Scheduler, FreshValuesClampToKernelSizeForLargeStrides) {
  // With s >= m the whole window refreshes: min(nc*m*s, Nkernel).
  const Scheduler sched(PcnnaConfig::paper_defaults());
  nn::ConvLayerParams wide{"wide", 16, 2, 0, 4, 1, 1};
  const LayerPlan plan = sched.plan(wide);
  // nc*m*s = 8 > Nkernel = 4 -> clamp to 4.
  EXPECT_EQ(4u + (plan.locations - 1) * 4u, plan.input_dac_conversions);
}

TEST(Scheduler, DramTrafficFullKernel) {
  const Scheduler sched(PcnnaConfig::paper_defaults());
  const auto conv1 = alexnet_layer(0);
  const LayerPlan plan = sched.plan(conv1);
  EXPECT_EQ(conv1.input_size() + conv1.weight_count(), plan.dram_read_words);
  EXPECT_EQ(conv1.output_size(), plan.dram_write_words);
}

TEST(Scheduler, PerChannelPaysPartialSumRoundTrips) {
  PcnnaConfig full_cfg = PcnnaConfig::paper_defaults();
  PcnnaConfig pc_cfg = PcnnaConfig::paper_defaults();
  pc_cfg.allocation = RingAllocation::kPerChannel;
  const auto conv4 = alexnet_layer(3);
  const LayerPlan full = Scheduler(full_cfg).plan(conv4);
  const LayerPlan pc = Scheduler(pc_cfg).plan(conv4);
  // Per-channel writes partial sums for every pass but the last.
  const std::uint64_t roundtrips = conv4.num_locations() * conv4.K * (conv4.nc - 1);
  EXPECT_EQ(full.dram_write_words + roundtrips, pc.dram_write_words);
  EXPECT_EQ(full.dram_read_words + roundtrips, pc.dram_read_words);
  EXPECT_GT(pc.adc_conversions, full.adc_conversions);
}

TEST(Scheduler, AdcConversionsOnePerKernelPerLocation) {
  const Scheduler sched(PcnnaConfig::paper_defaults());
  const auto conv2 = alexnet_layer(1);
  const LayerPlan plan = sched.plan(conv2);
  EXPECT_EQ(conv2.num_locations() * conv2.K, plan.adc_conversions);
}

TEST(Scheduler, SramWorkingSetIsReceptiveField) {
  const Scheduler sched(PcnnaConfig::paper_defaults());
  for (const auto& layer : nn::alexnet_conv_layers()) {
    EXPECT_EQ(layer.kernel_size(), sched.plan(layer).sram_words) << layer.name;
  }
}

TEST(Scheduler, OversizedWorkingSetThrows) {
  // A receptive field beyond 8000 words cannot be cached.
  const Scheduler sched(PcnnaConfig::paper_defaults());
  nn::ConvLayerParams huge{"huge", 64, 5, 0, 1, 512, 4}; // 5*5*512 = 12800
  EXPECT_THROW(sched.plan(huge), Error);
}

TEST(Scheduler, WeightDacConversionsEqualWeightCount) {
  for (auto allocation :
       {RingAllocation::kFullKernel, RingAllocation::kPerChannel}) {
    PcnnaConfig cfg = PcnnaConfig::paper_defaults();
    cfg.allocation = allocation;
    const Scheduler sched(cfg);
    const auto conv3 = alexnet_layer(2);
    EXPECT_EQ(conv3.weight_count(), sched.plan(conv3).weight_dac_conversions);
  }
}

} // namespace
