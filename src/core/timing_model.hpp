// Analytical execution-time model — paper SS V-B (Eqs. 6-8, Fig. 6).
//
// Two fidelities:
//
//  * kPaper reproduces the paper's model verbatim. The optical core
//    computes all K kernels for one receptive-field location in one
//    5 GHz cycle, so Tconv = Nlocs / fclock (Eq. 7) — independent of K.
//    The full system adds only the input-DAC constraint: per location,
//    Nupdated = nc*m*s / NDAC sequential conversions at the DAC rate
//    (Eq. 8); per-location time is max(clock period, DAC time).
//
//  * kFull prices a LayerPlan with every stage pipelined per location
//    (input DACs, segmented optical passes, ADC serialization, SRAM port)
//    plus layer-level DRAM traffic, weight programming, and thermal
//    settling — the ablation showing which constraints the paper's model
//    leaves out (DESIGN.md inconsistency #2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/scheduler.hpp"
#include "nn/conv_params.hpp"

namespace pcnna::core {

/// Per-layer execution-time breakdown. Fields that a fidelity level does
/// not model are zero.
struct LayerTiming {
  std::string layer_name;
  std::uint64_t locations = 0;

  /// PCNNA(O): optical-core-only time (Eq. 7 in kPaper).
  double optical_core_time = 0.0;

  /// Stage totals across the layer (kFull; kPaper fills dac_time only).
  double dac_time = 0.0;
  double adc_time = 0.0;
  double sram_time = 0.0;
  double dram_time = 0.0;
  double weight_load_time = 0.0;

  /// PCNNA(O+E): full-system time including electronic constraints.
  double full_system_time = 0.0;

  /// Which constraint dominates full_system_time.
  std::string bottleneck;
};

/// Per-location stage times of the kFull pipeline. The closed-form model
/// and the event-driven TraceSimulator both take them from location_stages.
struct LocationStages {
  double dac = 0.0;     ///< fresh inputs through the input DACs
  double optical = 0.0; ///< sequential bank passes on the fast clock
  double adc = 0.0;     ///< outputs serialized over the ADCs
  double sram = 0.0;    ///< fresh inputs in and outputs out through the port
  /// Initiation interval: the slowest stage sets the pipeline rate.
  double interval() const { return std::max({dac, optical, adc, sram}); }
};

/// Stage times of one kernel location that loads `fresh` input values,
/// runs `passes` fast-clock bank passes and digitizes `outputs` values.
LocationStages location_stages(const PcnnaConfig& config, std::uint64_t fresh,
                               std::uint64_t passes, std::uint64_t outputs);

/// Totals across a conv stack.
struct NetworkTiming {
  std::vector<LayerTiming> layers;
  double total_optical_core = 0.0;
  double total_full_system = 0.0;
};

class TimingModel {
 public:
  TimingModel(PcnnaConfig config, TimingFidelity fidelity);

  TimingFidelity fidelity() const { return fidelity_; }

  /// Eq. (8): input values each DAC must convert per kernel location,
  /// nc*m*s / NDAC (real-valued, as the paper computes it: conv4/5 -> ~116).
  double updated_inputs_per_dac(const nn::ConvLayerParams& layer) const;

  /// Execution-time breakdown of one layer.
  LayerTiming layer_time(const nn::ConvLayerParams& layer) const;

  /// Breakdown for every layer plus totals.
  NetworkTiming network_time(
      const std::vector<nn::ConvLayerParams>& layers) const;

 private:
  LayerTiming layer_time_paper(const nn::ConvLayerParams& layer) const;
  LayerTiming layer_time_full(const nn::ConvLayerParams& layer) const;

  PcnnaConfig config_;
  TimingFidelity fidelity_;
  Scheduler scheduler_;
};

} // namespace pcnna::core
