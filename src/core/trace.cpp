#include "core/trace.hpp"

#include <algorithm>
#include <iterator>
#include <ostream>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/trace_writer.hpp"
#include "electronics/dram.hpp"

namespace pcnna::core {

const char* trace_event_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kWeightLoad: return "weight-load";
    case TraceEventKind::kRingSettle: return "ring-settle";
    case TraceEventKind::kDramRead: return "dram-read";
    case TraceEventKind::kInputDac: return "input-dac";
    case TraceEventKind::kOpticalPass: return "optical";
    case TraceEventKind::kAdcSample: return "adc";
    case TraceEventKind::kSramStage: return "sram";
    case TraceEventKind::kDramWrite: return "dram-write";
  }
  return "?";
}

std::uint64_t LayerTrace::count(TraceEventKind kind) const {
  std::uint64_t n = 0;
  for (const TraceEvent& e : events)
    if (e.kind == kind) ++n;
  return n;
}

double LayerTrace::busy(TraceEventKind kind) const {
  double t = 0.0;
  for (const TraceEvent& e : events)
    if (e.kind == kind) t += e.duration();
  return t;
}

void LayerTrace::print(std::ostream& os, std::size_t max_events) const {
  os << "trace of layer '" << layer.name << "': " << events.size()
     << " events, total " << format_time(total_time) << '\n';
  std::size_t shown = 0;
  for (const TraceEvent& e : events) {
    if (shown++ >= max_events) {
      os << "  ... (" << events.size() - max_events << " more)\n";
      break;
    }
    os << "  [" << format_time(e.start) << " .. " << format_time(e.end)
       << "] " << trace_event_name(e.kind) << " loc=" << e.location
       << " units=" << e.units << '\n';
  }
}

void write_chrome_trace(const LayerTrace& trace, std::ostream& os) {
  constexpr TraceEventKind kKinds[] = {
      TraceEventKind::kWeightLoad, TraceEventKind::kRingSettle,
      TraceEventKind::kDramRead,   TraceEventKind::kInputDac,
      TraceEventKind::kOpticalPass, TraceEventKind::kAdcSample,
      TraceEventKind::kSramStage,  TraceEventKind::kDramWrite};
  TraceWriter writer;
  writer.set_process_name(0, "pcnna device: " + trace.layer.name);
  for (std::uint32_t t = 0; t < std::size(kKinds); ++t)
    writer.set_thread_name(0, t, trace_event_name(kKinds[t]));
  for (const TraceEvent& e : trace.events) {
    writer.complete(0, static_cast<std::uint32_t>(e.kind),
                    trace_event_name(e.kind), "device", e.start, e.end,
                    {TraceArg::num("location", static_cast<double>(e.location)),
                     TraceArg::num("units", static_cast<double>(e.units))});
  }
  writer.write(os);
}

TraceSimulator::TraceSimulator(PcnnaConfig config)
    : config_(std::move(config)), scheduler_(config_) {
  config_.validate();
}

LayerTrace TraceSimulator::trace_layer(const nn::ConvLayerParams& layer) const {
  const LayerPlan plan = scheduler_.plan(layer);
  LayerTrace trace;
  trace.layer = layer;

  const std::uint64_t word_bytes = (config_.word_bits + 7) / 8;
  const elec::Dram dram(config_.dram);

  // One sweep per channel pass: one for the full-kernel allocation, nc
  // channel-major sweeps for the per-channel allocation (each preceded by a
  // retuning episode).
  const std::uint64_t sweeps = channel_passes(layer, plan.allocation);
  const std::uint64_t passes_per_loc = plan.groups.size();
  const std::uint64_t weight_chunk = plan.weight_dac_conversions / sweeps;

  // Per-location stage times within one sweep, which loads only that
  // sweep's fresh inputs.
  const std::uint64_t fresh = fresh_per_pass(layer, plan.allocation);
  const LocationStages st =
      location_stages(config_, fresh, passes_per_loc, layer.K);
  const double ii = st.interval();

  double now = 0.0;
  for (std::uint64_t sweep = 0; sweep < sweeps; ++sweep) {
    // Ring programming for this sweep.
    const double load_time =
        static_cast<double>(weight_chunk) / config_.weight_dac.sample_rate;
    trace.events.push_back(TraceEvent{TraceEventKind::kWeightLoad, now,
                                      now + load_time, 0, weight_chunk});
    now += load_time;
    trace.events.push_back(TraceEvent{TraceEventKind::kRingSettle, now,
                                      now + config_.ring_settle_time, 0, 1});
    now += config_.ring_settle_time;
    if (sweep == sweeps - 1) trace.weight_load_end = now;

    // Location pipeline: stage s of location L starts at
    // sweep_start + L*II + sum of earlier stage times.
    const double sweep_start = now;
    for (std::uint64_t loc = 0; loc < plan.locations; ++loc) {
      const double base = sweep_start + static_cast<double>(loc) * ii;
      double t = base;
      trace.events.push_back(
          TraceEvent{TraceEventKind::kInputDac, t, t + st.dac, loc, fresh});
      t += st.dac;
      trace.events.push_back(TraceEvent{TraceEventKind::kOpticalPass, t,
                                        t + st.optical, loc, passes_per_loc});
      t += st.optical;
      trace.events.push_back(
          TraceEvent{TraceEventKind::kAdcSample, t, t + st.adc, loc, layer.K});
      t += st.adc;
      trace.events.push_back(TraceEvent{TraceEventKind::kSramStage, t,
                                        t + st.sram, loc, fresh + layer.K});
      t += st.sram;
      now = std::max(now, t);
    }
  }
  trace.compute_end = now;

  // DRAM feature-map traffic streams concurrently with compute, starting
  // after the first weight chunk is in flight.
  const double read_time =
      dram.transfer_time(plan.dram_read_words * word_bytes);
  const double write_time =
      dram.transfer_time(plan.dram_write_words * word_bytes);
  trace.events.push_back(
      TraceEvent{TraceEventKind::kDramRead, 0.0, read_time, 0,
                 plan.dram_read_words});
  trace.events.push_back(TraceEvent{TraceEventKind::kDramWrite, read_time,
                                    read_time + write_time, 0,
                                    plan.dram_write_words});
  trace.total_time = std::max(trace.compute_end, read_time + write_time);
  return trace;
}

} // namespace pcnna::core
