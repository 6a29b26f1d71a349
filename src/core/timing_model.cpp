#include "core/timing_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/mathutil.hpp"
#include "electronics/dram.hpp"

namespace pcnna::core {

LocationStages location_stages(const PcnnaConfig& config, std::uint64_t fresh,
                               std::uint64_t passes, std::uint64_t outputs) {
  LocationStages st;
  st.dac = static_cast<double>(ceil_div(fresh, config.num_input_dacs)) /
           config.input_dac.sample_rate;
  st.optical = static_cast<double>(passes) * (1.0 / config.fast_clock);
  st.adc = static_cast<double>(ceil_div(outputs, config.num_adcs)) /
           config.adc.sample_rate;
  st.sram =
      static_cast<double>(ceil_div(fresh + outputs, config.sram_port_words)) *
      config.sram.access_time;
  return st;
}

// scheduler_ validates the config.
TimingModel::TimingModel(PcnnaConfig config, TimingFidelity fidelity)
    : config_(std::move(config)), fidelity_(fidelity), scheduler_(config_) {}

double TimingModel::updated_inputs_per_dac(
    const nn::ConvLayerParams& layer) const {
  return static_cast<double>(layer.updated_inputs_per_location()) /
         static_cast<double>(config_.num_input_dacs);
}

LayerTiming TimingModel::layer_time(const nn::ConvLayerParams& layer) const {
  switch (fidelity_) {
    case TimingFidelity::kPaper: return layer_time_paper(layer);
    case TimingFidelity::kFull: return layer_time_full(layer);
  }
  throw Error("unknown timing fidelity");
}

LayerTiming TimingModel::layer_time_paper(
    const nn::ConvLayerParams& layer) const {
  layer.validate();
  LayerTiming t;
  t.layer_name = layer.name;
  t.locations = layer.num_locations();

  const double cycle = 1.0 / config_.fast_clock;
  const double locations = static_cast<double>(t.locations);

  // Eq. (7): the whole optical weighting+summation for all K kernels fits in
  // one fast-clock cycle per receptive-field location.
  t.optical_core_time = locations * cycle;

  // Eq. (8): each location needs nc*m*s fresh values spread over NDAC DACs.
  const double dac_per_location =
      updated_inputs_per_dac(layer) / config_.input_dac.sample_rate;
  t.dac_time = locations * dac_per_location;

  // First location fills the whole receptive field through the DACs.
  const double fill =
      static_cast<double>(layer.kernel_size()) /
      static_cast<double>(config_.num_input_dacs) /
      config_.input_dac.sample_rate;

  const double per_location = std::max(cycle, dac_per_location);
  t.full_system_time = fill + locations * per_location;
  t.bottleneck = dac_per_location > cycle ? "input-DAC" : "optical-clock";
  return t;
}

LayerTiming TimingModel::layer_time_full(
    const nn::ConvLayerParams& layer) const {
  const LayerPlan plan = scheduler_.plan(layer);
  LayerTiming t;
  t.layer_name = layer.name;
  t.locations = plan.locations;

  const double locations = static_cast<double>(plan.locations);

  // Per location: fresh input values through the DACs, cycles_per_location
  // fast cycles of WDM-segmented (and per-channel) bank passes, the
  // location's ADC samples, and the SRAM port staging both.
  const std::uint64_t fresh = std::min<std::uint64_t>(
      layer.updated_inputs_per_location(), layer.kernel_size());
  const LocationStages st =
      location_stages(config_, fresh, plan.cycles_per_location,
                      plan.adc_conversions / plan.locations);
  t.optical_core_time = locations * st.optical;
  t.dac_time = locations * st.dac;
  t.adc_time = locations * st.adc;
  t.sram_time = locations * st.sram;

  // DRAM: all layer traffic at channel bandwidth (overlapped with compute).
  const elec::Dram dram(config_.dram);
  const std::uint64_t word_bytes = (config_.word_bits + 7) / 8;
  t.dram_time = dram.transfer_time(plan.dram_read_words * word_bytes) +
                dram.transfer_time(plan.dram_write_words * word_bytes);

  // Weight programming: every weight through the kernel-weight DAC, plus a
  // thermal settling episode per recalibration.
  t.weight_load_time =
      static_cast<double>(plan.weight_dac_conversions) /
          config_.weight_dac.sample_rate +
      static_cast<double>(plan.recalibrations) * config_.ring_settle_time;

  // Steady-state pipeline: the slowest per-location stage sets the rate;
  // add one pipeline fill of all stages.
  const double fill = st.optical + st.dac + st.adc + st.sram;
  const double compute = locations * st.interval() + fill;

  // Weight programming precedes compute; DRAM traffic (which already
  // includes the weight words) streams concurrently with both. The
  // event-driven TraceSimulator schedules the same location_stages, so on
  // full-kernel layers the two agree to rounding (Trace tests); per-channel
  // traces pay one pipeline fill per channel sweep where this pays one.
  t.full_system_time = std::max(compute + t.weight_load_time, t.dram_time);

  // Name the dominant constraint.
  struct Candidate {
    double value;
    const char* name;
  };
  const Candidate candidates[] = {
      {t.optical_core_time, "optical-clock"},
      {t.dac_time, "input-DAC"},
      {t.adc_time, "ADC"},
      {t.sram_time, "SRAM"},
      {t.dram_time, "DRAM"},
      {t.weight_load_time, "weight-load"},
  };
  const Candidate* best = &candidates[0];
  for (const Candidate& c : candidates)
    if (c.value > best->value) best = &c;
  t.bottleneck = best->name;
  return t;
}

NetworkTiming TimingModel::network_time(
    const std::vector<nn::ConvLayerParams>& layers) const {
  NetworkTiming net;
  net.layers.reserve(layers.size());
  for (const nn::ConvLayerParams& layer : layers) {
    net.layers.push_back(layer_time(layer));
    net.total_optical_core += net.layers.back().optical_core_time;
    net.total_full_system += net.layers.back().full_system_time;
  }
  return net;
}

} // namespace pcnna::core
