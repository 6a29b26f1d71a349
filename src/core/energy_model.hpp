// Energy model (extension beyond the paper).
//
// The paper motivates photonics with power but reports no energy numbers;
// this model prices a LayerPlan + LayerTiming using the component specs the
// paper cites (DAC/ADC active power, SRAM access energy, DRAM energy/byte)
// plus laser wall-plug efficiency and mean ring-heater power. Used by the
// ablation benches and the examples.
#pragma once

#include <string>

#include "core/config.hpp"
#include "core/scheduler.hpp"
#include "core/timing_model.hpp"

namespace pcnna::core {

/// Per-layer energy breakdown [J].
struct EnergyReport {
  std::string layer_name;
  double laser = 0.0;      ///< WDM sources, electrical draw over layer time
  double heater = 0.0;     ///< ring thermal tuning
  double input_dac = 0.0;  ///< input-path conversions
  double weight_dac = 0.0; ///< weight programming
  double adc = 0.0;        ///< output digitization
  double sram = 0.0;       ///< cache accesses
  double dram = 0.0;       ///< off-chip traffic
  double total() const {
    return laser + heater + input_dac + weight_dac + adc + sram + dram;
  }
  /// Energy per MAC [J] given the layer's MAC count.
  double per_mac(std::uint64_t macs) const {
    return macs == 0 ? 0.0 : total() / static_cast<double>(macs);
  }
};

class EnergyModel {
 public:
  explicit EnergyModel(PcnnaConfig config);

  /// Price one layer: `plan` supplies event counts, `timing` the wall time
  /// power-type consumers integrate over.
  EnergyReport layer_energy(const LayerPlan& plan,
                            const LayerTiming& timing) const;

 private:
  PcnnaConfig config_;
};

} // namespace pcnna::core
