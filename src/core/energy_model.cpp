#include "core/energy_model.hpp"

#include "electronics/adc.hpp"
#include "electronics/dac.hpp"
#include "photonics/laser.hpp"

namespace pcnna::core {

EnergyModel::EnergyModel(PcnnaConfig config) : config_(std::move(config)) {
  config_.validate();
}

EnergyReport EnergyModel::layer_energy(const LayerPlan& plan,
                                       const LayerTiming& timing) const {
  EnergyReport e;
  e.layer_name = plan.layer.name;
  const double active_time = timing.full_system_time;

  // One laser per WDM channel in use, drawing wall-plug power for the layer.
  const phot::LaserDiode laser(config_.laser);
  e.laser = static_cast<double>(plan.group_size) * laser.electrical_power() *
            active_time;

  // Heaters: expectation of the tuning power over random weights is half of
  // the max-detuning drive per ring.
  const double mean_heater_per_ring =
      0.5 * config_.bank.ring.max_detuning / config_.bank.ring.thermal_efficiency;
  e.heater = static_cast<double>(plan.rings_total) * mean_heater_per_ring *
             active_time;

  const elec::Dac input_dac(config_.input_dac);
  const elec::Dac weight_dac(config_.weight_dac);
  const elec::Adc adc(config_.adc);
  e.input_dac = input_dac.conversion_energy(plan.input_dac_conversions);
  e.weight_dac = weight_dac.conversion_energy(plan.weight_dac_conversions);
  e.adc = adc.conversion_energy(plan.adc_conversions);

  // SRAM: every fresh input goes through the cache once (write + read), and
  // every digitized output is staged once.
  const std::uint64_t sram_accesses =
      2 * plan.input_dac_conversions + plan.adc_conversions;
  e.sram = static_cast<double>(sram_accesses) * config_.sram.access_energy;

  const std::uint64_t word_bytes =
      (static_cast<std::uint64_t>(config_.word_bits) + 7) / 8;
  e.dram = static_cast<double>(
               (plan.dram_read_words + plan.dram_write_words) * word_bytes) *
           config_.dram.energy_per_byte;
  return e;
}

} // namespace pcnna::core
