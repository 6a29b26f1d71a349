// Event-driven trace simulator, cross-checked against the closed-form
// timing model.
#include <gtest/gtest.h>

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

TEST(Trace, AgreesWithClosedFormTimingModel) {
  const PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  const TraceSimulator sim(cfg);
  const core::TimingModel model(cfg, core::TimingFidelity::kFull);
  for (const auto& layer : nn::alexnet_conv_layers()) {
    const LayerTrace trace = sim.trace_layer(layer);
    const auto closed = model.layer_time(layer);
    // Event-driven vs closed-form: same model, off by at most one pipeline
    // interval plus rounding.
    const double tolerance = 0.02 * closed.full_system_time + 1e-9;
    EXPECT_NEAR(closed.full_system_time, trace.total_time, tolerance)
        << layer.name;
  }
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
