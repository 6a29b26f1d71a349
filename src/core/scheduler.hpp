// Layer scheduler: maps one convolution layer onto the PCNNA hardware.
//
// Decides how a layer's receptive field is split across WDM channel groups
// (segmented bank passes), how many rings the mapping uses, how often banks
// must be recalibrated, and what the on-chip working set and off-chip
// traffic are. The functional engine executes a LayerPlan; the
// full-fidelity timing model prices one.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "nn/conv_params.hpp"

namespace pcnna::core {

/// One channel-group pass of a layer: contiguous slice of the flattened
/// receptive field [begin, end).
struct GroupSlice {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t size() const { return end - begin; }
};

/// Complete mapping of one conv layer onto the hardware.
struct LayerPlan {
  nn::ConvLayerParams layer;
  RingAllocation allocation = RingAllocation::kFullKernel;

  /// Wavelengths (= rings per bank segment) used in each pass.
  std::uint64_t group_size = 0;
  /// WDM segments tiling one channel pass's [0, pass_width): sequential
  /// bank passes per kernel location (full-kernel) or per channel step
  /// (per-channel).
  std::vector<GroupSlice> groups;

  /// Total rings the mapping occupies (Eq. 5 for full-kernel).
  std::uint64_t rings_total = 0;
  /// Bank recalibration episodes per layer (1 for full-kernel; nc for the
  /// per-channel allocation, which retunes rings between channel passes).
  std::uint64_t recalibrations = 1;
  /// Fast-clock cycles per kernel location (number of sequential passes).
  std::uint64_t cycles_per_location = 1;
  /// Kernel locations (Eq. 6).
  std::uint64_t locations = 0;

  /// SRAM working set in words (the live receptive field).
  std::uint64_t sram_words = 0;
  /// Off-chip reads for the layer in words: inputs + kernel weights.
  std::uint64_t dram_read_words = 0;
  /// Off-chip writes for the layer in words: the output feature map.
  std::uint64_t dram_write_words = 0;
  /// Input-DAC conversions over the whole layer (first location loads the
  /// full receptive field; later ones only nc*m*s fresh values).
  std::uint64_t input_dac_conversions = 0;
  /// Weight-DAC conversions over the whole layer (every weight programmed
  /// once per recalibration episode it participates in).
  std::uint64_t weight_dac_conversions = 0;
  /// ADC conversions over the whole layer (one per kernel per location per
  /// accumulation step that must be digitized).
  std::uint64_t adc_conversions = 0;
};

// The ring allocation's geometry: the one place the simulator turns the
// mapping choice into numbers. A full-kernel layer is one pass of nc*m*m
// rings per kernel (Eq. 5); a per-channel layer (the paper's conv4 worked
// number) is nc passes of m*m rings whose partial sums add electronically.

/// Sequential channel passes per kernel location: 1, or nc per-channel.
std::uint64_t channel_passes(const nn::ConvLayerParams& layer,
                             RingAllocation allocation);

/// Receptive-field values (rings per kernel) one pass weighs:
/// kernel_size() / passes, that is nc*m*m or m*m.
std::uint64_t pass_width(const nn::ConvLayerParams& layer,
                         RingAllocation allocation);

/// Fresh input values per location after the first within one pass:
/// min(updated_inputs_per_location() / passes, pass_width).
std::uint64_t fresh_per_pass(const nn::ConvLayerParams& layer,
                             RingAllocation allocation);

class Scheduler {
 public:
  explicit Scheduler(PcnnaConfig config);

  /// Build the mapping for one layer. Throws if the working set cannot fit
  /// the SRAM cache or the layer is degenerate.
  LayerPlan plan(const nn::ConvLayerParams& layer) const;

 private:
  PcnnaConfig config_;
};

} // namespace pcnna::core
