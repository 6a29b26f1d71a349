// Event-driven trace simulator, cross-checked against the closed-form
// timing model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "core/timing_model.hpp"
#include "core/trace.hpp"
#include "nn/models.hpp"

namespace {

using namespace pcnna;
using core::LayerTrace;
using core::PcnnaConfig;
using core::TraceEventKind;
using core::TraceSimulator;

nn::ConvLayerParams alexnet_layer(std::size_t i) {
  return nn::alexnet_conv_layers().at(i);
}

TEST(Trace, EventCountsMatchThePlan) {
  const TraceSimulator sim(PcnnaConfig::paper_defaults());
  const auto conv3 = alexnet_layer(2);
  const LayerTrace trace = sim.trace_layer(conv3);
  EXPECT_EQ(169u, trace.count(TraceEventKind::kInputDac));
  EXPECT_EQ(169u, trace.count(TraceEventKind::kOpticalPass));
  EXPECT_EQ(169u, trace.count(TraceEventKind::kAdcSample));
  EXPECT_EQ(169u, trace.count(TraceEventKind::kSramStage));
  EXPECT_EQ(1u, trace.count(TraceEventKind::kWeightLoad));
  EXPECT_EQ(1u, trace.count(TraceEventKind::kRingSettle));
  EXPECT_EQ(1u, trace.count(TraceEventKind::kDramRead));
  EXPECT_EQ(1u, trace.count(TraceEventKind::kDramWrite));
}

TEST(Trace, EventsAreCausallyOrderedPerLocation) {
  const TraceSimulator sim(PcnnaConfig::paper_defaults());
  const LayerTrace trace = sim.trace_layer(alexnet_layer(2));
  // Reconstruct per-location stage intervals and check the linear order.
  for (const auto& e : trace.events) {
    EXPECT_LE(e.start, e.end);
    EXPECT_GE(e.start, 0.0);
    EXPECT_LE(e.end, trace.total_time + 1e-15);
  }
  double prev_dac_start = -1.0;
  for (const auto& e : trace.events) {
    if (e.kind != TraceEventKind::kInputDac) continue;
    EXPECT_GT(e.start, prev_dac_start); // locations strictly ordered
    prev_dac_start = e.start;
    EXPECT_GE(e.start, trace.weight_load_end - 1e-15);
  }
}

// Under the full-kernel allocation the closed form is the trace's schedule
// summed in another order: the trace's last location ends one initiation
// interval before the closed form's locations * interval + fill, and both
// end at the DRAM end when that is later. So they agree to rounding on
// every conv layer of LeNet-5, AlexNet and VGG-16. The per-channel
// allocation is left out: each of the trace's nc sweeps pays its own
// pipeline fill, which the closed form charges once, so the two are up to
// 1.2 % apart.
TEST(Trace, AgreesWithClosedFormTimingModel) {
  const PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  ASSERT_EQ(core::RingAllocation::kFullKernel, cfg.allocation);
  const TraceSimulator sim(cfg);
  const core::TimingModel model(cfg, core::TimingFidelity::kFull);
  const core::Scheduler scheduler(cfg);
  std::size_t checked = 0;
  for (const auto& net : {nn::lenet5_conv_layers(), nn::alexnet_conv_layers(),
                          nn::vgg16_conv_layers()}) {
    for (const auto& layer : net) {
      const LayerTrace trace = sim.trace_layer(layer);
      const double closed = model.layer_time(layer).full_system_time;
      const std::uint64_t fresh = std::min<std::uint64_t>(
          layer.updated_inputs_per_location(), layer.kernel_size());
      const double interval =
          core::location_stages(cfg, fresh,
                                scheduler.plan(layer).cycles_per_location,
                                layer.K)
              .interval();
      const double expected =
          std::max(trace.compute_end + interval, trace.total_time);
      EXPECT_LE(std::abs(closed - expected), 1e-12 * closed) << layer.name;
      // The trace's own total omits that last interval: still within 2 %.
      EXPECT_NEAR(closed, trace.total_time, 0.02 * closed + 1e-9)
          << layer.name;
      ++checked;
    }
  }
  EXPECT_EQ(21u, checked);
}

TEST(Trace, BusyTimesMatchStageTotals) {
  const PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  const TraceSimulator sim(cfg);
  const core::TimingModel model(cfg, core::TimingFidelity::kFull);
  const auto conv4 = alexnet_layer(3);
  const LayerTrace trace = sim.trace_layer(conv4);
  const auto closed = model.layer_time(conv4);
  EXPECT_NEAR(closed.dac_time, trace.busy(TraceEventKind::kInputDac),
              1e-3 * closed.dac_time);
  EXPECT_NEAR(closed.adc_time, trace.busy(TraceEventKind::kAdcSample),
              1e-3 * closed.adc_time);
  EXPECT_NEAR(closed.optical_core_time,
              trace.busy(TraceEventKind::kOpticalPass),
              1e-3 * closed.optical_core_time);
}

TEST(Trace, PerChannelAllocationEmitsOneSettlePerChannel) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.allocation = core::RingAllocation::kPerChannel;
  const TraceSimulator sim(cfg);
  const auto conv3 = alexnet_layer(2);
  const LayerTrace trace = sim.trace_layer(conv3);
  EXPECT_EQ(256u, trace.count(TraceEventKind::kRingSettle));
  EXPECT_EQ(256u, trace.count(TraceEventKind::kWeightLoad));
  EXPECT_EQ(256u * 169u, trace.count(TraceEventKind::kInputDac));
  // Settling alone costs nc * 10 us.
  EXPECT_GE(trace.total_time, 256.0 * 10e-6);
}

TEST(Trace, DramStreamsConcurrentlyFromTimeZero) {
  const TraceSimulator sim(PcnnaConfig::paper_defaults());
  const LayerTrace trace = sim.trace_layer(alexnet_layer(0));
  for (const auto& e : trace.events) {
    if (e.kind == TraceEventKind::kDramRead) {
      EXPECT_DOUBLE_EQ(0.0, e.start);
    }
  }
}

TEST(Trace, PrintProducesReadableTimeline) {
  const TraceSimulator sim(PcnnaConfig::paper_defaults());
  const LayerTrace trace = sim.trace_layer(alexnet_layer(2));
  std::ostringstream os;
  trace.print(os, 10);
  const std::string s = os.str();
  EXPECT_NE(std::string::npos, s.find("weight-load"));
  EXPECT_NE(std::string::npos, s.find("optical"));
  EXPECT_NE(std::string::npos, s.find("more)")); // truncation marker
}

TEST(Trace, TotalCoversComputeAndDram) {
  const TraceSimulator sim(PcnnaConfig::paper_defaults());
  const LayerTrace trace = sim.trace_layer(alexnet_layer(1));
  EXPECT_GE(trace.total_time, trace.compute_end - 1e-18);
  EXPECT_GE(trace.compute_end, trace.weight_load_end);
}

} // namespace
