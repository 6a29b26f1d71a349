#include "core/config.hpp"

#include "common/error.hpp"

namespace pcnna::core {

const char* ring_allocation_name(RingAllocation allocation) {
  switch (allocation) {
    case RingAllocation::kFullKernel: return "full-kernel";
    case RingAllocation::kPerChannel: return "per-channel";
  }
  return "?";
}

const char* timing_fidelity_name(TimingFidelity fidelity) {
  switch (fidelity) {
    case TimingFidelity::kPaper: return "paper";
    case TimingFidelity::kFull: return "full";
  }
  return "?";
}

PcnnaConfig PcnnaConfig::paper_defaults() {
  PcnnaConfig cfg;
  // Defaults in the member initializers already encode the paper's
  // component specs; restate the headline ones for clarity.
  cfg.fast_clock = 5.0 * units::GHz;
  cfg.num_input_dacs = 10;
  cfg.input_dac.sample_rate = 6.0 * units::GSa; // [16]
  cfg.input_dac.bits = 16;
  cfg.weight_dac = cfg.input_dac;
  cfg.num_adcs = 1;
  cfg.adc.sample_rate = 2.8 * units::GSa; // [17]
  cfg.validate();
  return cfg;
}

PcnnaConfig PcnnaConfig::ideal() {
  PcnnaConfig cfg = paper_defaults();
  cfg.enable_noise = false;
  cfg.enable_quantization = false;
  cfg.bank.model_crosstalk = false;
  cfg.bank.ring.q_factor = 2.0e6;       // razor-thin linewidth
  cfg.bank.ring.max_drop = 1.0 - 1e-9;  // full on-resonance drop
  cfg.bank.ring.insertion_loss_db = 0.0;
  cfg.bank.ring.tuning_bits = 44;
  cfg.bank.ring.max_detuning = 1.55 * units::nm; // 2000 linewidths at Q = 2e6
  cfg.bank.ring.fab_sigma = 0.0;
  cfg.bank.photodiode.enable_shot_noise = false;
  cfg.bank.photodiode.enable_thermal_noise = false;
  cfg.bank.photodiode.dark_current = 0.0;
  cfg.mzm.insertion_loss_db = 0.0;
  cfg.mzm.extinction_ratio_db = 200.0;
  cfg.validate();
  return cfg;
}

PcnnaConfig PcnnaConfig::small_core() {
  PcnnaConfig cfg = paper_defaults();
  // Per-channel ring allocation (the paper's conv4 worked configuration):
  // banks hold K * m * m rings instead of K * Nkernel, at the price of nc
  // sequential channel passes — and nc thermal-settle recalibration
  // episodes — per layer. This is what actually makes a small PCU slow:
  // the retuning settle dominates the double-buffered request interval.
  cfg.allocation = RingAllocation::kPerChannel;
  cfg.max_wavelengths = 24;
  cfg.num_input_dacs = 4;
  cfg.validate();
  return cfg;
}

void PcnnaConfig::validate() const {
  PCNNA_CHECK_FIELD("", fast_clock, fast_clock > 0.0, "> 0");
  PCNNA_CHECK_FIELD("", num_input_dacs, num_input_dacs >= 1, ">= 1");
  input_dac.validate("input_dac");
  weight_dac.validate("weight_dac");
  PCNNA_CHECK_FIELD("", num_adcs, num_adcs >= 1, ">= 1");
  adc.validate("adc");
  sram.validate("sram");
  dram.validate("dram");
  PCNNA_CHECK_FIELD("", word_bits, word_bits >= 1, ">= 1");
  PCNNA_CHECK_FIELD("", sram_port_words, sram_port_words >= 1, ">= 1");
  bank.ring.validate("bank.ring");
  bank.photodiode.validate("bank.photodiode");
  bank.validate("bank");
  mzm.validate("mzm");
  laser.validate("laser");
  waveguide.validate("waveguide");
  PCNNA_CHECK_FIELD("", max_wavelengths, max_wavelengths >= 1, ">= 1");
  PCNNA_CHECK_FIELD("", ring_settle_time, ring_settle_time >= 0.0, ">= 0");
  PCNNA_CHECK_FIELD("", stuck_ring_rate,
                    stuck_ring_rate >= 0.0 && stuck_ring_rate <= 1.0,
                    "in [0, 1]");
  PCNNA_CHECK_FIELD("", adc_headroom, adc_headroom > 0.0, "> 0");
  PCNNA_CHECK_FIELD("", engine_threads, engine_threads >= 1, ">= 1");
}

} // namespace pcnna::core
