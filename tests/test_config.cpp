// Config validation: every rule has one home on its config struct, reached
// by PcnnaConfig::validate() with the field's full path and by the device
// constructor with the struct's own name; a fleet rejects a bad spec before
// it builds any PCU; and a PCU holds its config once, inside its engine.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "electronics/adc.hpp"
#include "electronics/dac.hpp"
#include "electronics/dram.hpp"
#include "electronics/sram.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "photonics/laser.hpp"
#include "photonics/microring.hpp"
#include "photonics/modulator.hpp"
#include "photonics/photodiode.hpp"
#include "photonics/waveguide.hpp"
#include "photonics/weight_bank.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/pcu.hpp"

namespace {

using namespace pcnna;
using core::PcnnaConfig;

/// The message of the pcnna::Error `f` throws, or "" when it throws none.
template <class F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

struct Rule {
  const char* message; ///< what validate() must say
  void (*set)(PcnnaConfig&);
};

constexpr double kInf = std::numeric_limits<double>::infinity();

// One bad value per rule, on paper_defaults(); both ends of each range,
// +inf included.
const std::vector<Rule>& rules() {
  static const std::vector<Rule> table = {
      {"fast_clock = 0 must be > 0", [](PcnnaConfig& c) { c.fast_clock = 0; }},
      {"fast_clock = inf must be finite",
       [](PcnnaConfig& c) { c.fast_clock = kInf; }},
      {"num_input_dacs = 0 must be >= 1",
       [](PcnnaConfig& c) { c.num_input_dacs = 0; }},
      {"input_dac.bits = 0 must be in [1, 24]",
       [](PcnnaConfig& c) { c.input_dac.bits = 0; }},
      {"input_dac.bits = 25 must be in [1, 24]",
       [](PcnnaConfig& c) { c.input_dac.bits = 25; }},
      {"input_dac.sample_rate = 0 must be > 0",
       [](PcnnaConfig& c) { c.input_dac.sample_rate = 0; }},
      {"input_dac.sample_rate = inf must be finite",
       [](PcnnaConfig& c) { c.input_dac.sample_rate = kInf; }},
      {"input_dac.area = -1 must be >= 0",
       [](PcnnaConfig& c) { c.input_dac.area = -1; }},
      {"input_dac.area = inf must be finite",
       [](PcnnaConfig& c) { c.input_dac.area = kInf; }},
      {"input_dac.power = -1 must be >= 0",
       [](PcnnaConfig& c) { c.input_dac.power = -1; }},
      {"input_dac.power = inf must be finite",
       [](PcnnaConfig& c) { c.input_dac.power = kInf; }},
      {"input_dac.full_scale = 0 must be > 0",
       [](PcnnaConfig& c) { c.input_dac.full_scale = 0; }},
      {"input_dac.full_scale = inf must be finite",
       [](PcnnaConfig& c) { c.input_dac.full_scale = kInf; }},
      {"weight_dac.sample_rate = 0 must be > 0",
       [](PcnnaConfig& c) { c.weight_dac.sample_rate = 0; }},
      {"weight_dac.sample_rate = inf must be finite",
       [](PcnnaConfig& c) { c.weight_dac.sample_rate = kInf; }},
      {"num_adcs = 0 must be >= 1", [](PcnnaConfig& c) { c.num_adcs = 0; }},
      {"adc.bits = 0 must be in [1, 24]",
       [](PcnnaConfig& c) { c.adc.bits = 0; }},
      {"adc.bits = 25 must be in [1, 24]",
       [](PcnnaConfig& c) { c.adc.bits = 25; }},
      {"adc.sample_rate = 0 must be > 0",
       [](PcnnaConfig& c) { c.adc.sample_rate = 0; }},
      {"adc.sample_rate = inf must be finite",
       [](PcnnaConfig& c) { c.adc.sample_rate = kInf; }},
      {"adc.area = -1 must be >= 0", [](PcnnaConfig& c) { c.adc.area = -1; }},
      {"adc.area = inf must be finite",
       [](PcnnaConfig& c) { c.adc.area = kInf; }},
      {"adc.power = -1 must be >= 0",
       [](PcnnaConfig& c) { c.adc.power = -1; }},
      {"adc.power = inf must be finite",
       [](PcnnaConfig& c) { c.adc.power = kInf; }},
      {"adc.full_scale = 0 must be > 0",
       [](PcnnaConfig& c) { c.adc.full_scale = 0; }},
      {"adc.full_scale = inf must be finite",
       [](PcnnaConfig& c) { c.adc.full_scale = kInf; }},
      {"sram.capacity_bits = 0 must be > 0",
       [](PcnnaConfig& c) { c.sram.capacity_bits = 0; }},
      {"sram.capacity_bits = inf must be finite",
       [](PcnnaConfig& c) { c.sram.capacity_bits = kInf; }},
      {"sram.word_bits = 0 must be >= 1",
       [](PcnnaConfig& c) { c.sram.word_bits = 0; }},
      {"sram.access_time = 0 must be > 0",
       [](PcnnaConfig& c) { c.sram.access_time = 0; }},
      {"sram.access_time = inf must be finite",
       [](PcnnaConfig& c) { c.sram.access_time = kInf; }},
      {"sram.access_energy = -1 must be >= 0",
       [](PcnnaConfig& c) { c.sram.access_energy = -1; }},
      {"sram.access_energy = inf must be finite",
       [](PcnnaConfig& c) { c.sram.access_energy = kInf; }},
      {"dram.bandwidth = 0 must be > 0",
       [](PcnnaConfig& c) { c.dram.bandwidth = 0; }},
      {"dram.bandwidth = inf must be finite",
       [](PcnnaConfig& c) { c.dram.bandwidth = kInf; }},
      {"dram.first_access_latency = -1 must be >= 0",
       [](PcnnaConfig& c) { c.dram.first_access_latency = -1; }},
      {"dram.first_access_latency = inf must be finite",
       [](PcnnaConfig& c) { c.dram.first_access_latency = kInf; }},
      {"dram.energy_per_byte = -1 must be >= 0",
       [](PcnnaConfig& c) { c.dram.energy_per_byte = -1; }},
      {"dram.energy_per_byte = inf must be finite",
       [](PcnnaConfig& c) { c.dram.energy_per_byte = kInf; }},
      {"word_bits = 0 must be >= 1", [](PcnnaConfig& c) { c.word_bits = 0; }},
      {"sram_port_words = 0 must be >= 1",
       [](PcnnaConfig& c) { c.sram_port_words = 0; }},
      {"bank.ring.design_wavelength = 0 must be > 0",
       [](PcnnaConfig& c) { c.bank.ring.design_wavelength = 0; }},
      {"bank.ring.design_wavelength = inf must be finite",
       [](PcnnaConfig& c) { c.bank.ring.design_wavelength = kInf; }},
      {"bank.ring.q_factor = 0.5 must be > 1",
       [](PcnnaConfig& c) { c.bank.ring.q_factor = 0.5; }},
      {"bank.ring.q_factor = inf must be finite",
       [](PcnnaConfig& c) { c.bank.ring.q_factor = kInf; }},
      {"bank.ring.max_drop = 0 must be in (0, 1]",
       [](PcnnaConfig& c) { c.bank.ring.max_drop = 0; }},
      {"bank.ring.max_drop = 1.5 must be in (0, 1]",
       [](PcnnaConfig& c) { c.bank.ring.max_drop = 1.5; }},
      {"bank.ring.insertion_loss_db = -1 must be >= 0",
       [](PcnnaConfig& c) { c.bank.ring.insertion_loss_db = -1; }},
      {"bank.ring.insertion_loss_db = inf must be finite",
       [](PcnnaConfig& c) { c.bank.ring.insertion_loss_db = kInf; }},
      {"bank.ring.max_detuning = 0 must be > 0",
       [](PcnnaConfig& c) { c.bank.ring.max_detuning = 0; }},
      {"bank.ring.max_detuning = inf must be finite",
       [](PcnnaConfig& c) { c.bank.ring.max_detuning = kInf; }},
      {"bank.ring.tuning_bits = 0 must be in [1, 48]",
       [](PcnnaConfig& c) { c.bank.ring.tuning_bits = 0; }},
      {"bank.ring.tuning_bits = 49 must be in [1, 48]",
       [](PcnnaConfig& c) { c.bank.ring.tuning_bits = 49; }},
      {"bank.ring.thermal_efficiency = 0 must be > 0",
       [](PcnnaConfig& c) { c.bank.ring.thermal_efficiency = 0; }},
      {"bank.ring.thermal_efficiency = inf must be finite",
       [](PcnnaConfig& c) { c.bank.ring.thermal_efficiency = kInf; }},
      {"bank.ring.fab_sigma = -1 must be >= 0",
       [](PcnnaConfig& c) { c.bank.ring.fab_sigma = -1; }},
      {"bank.ring.fab_sigma = inf must be finite",
       [](PcnnaConfig& c) { c.bank.ring.fab_sigma = kInf; }},
      {"bank.ring.footprint_side = 0 must be > 0",
       [](PcnnaConfig& c) { c.bank.ring.footprint_side = 0; }},
      {"bank.ring.footprint_side = inf must be finite",
       [](PcnnaConfig& c) { c.bank.ring.footprint_side = kInf; }},
      {"bank.photodiode.responsivity = -1 must be > 0",
       [](PcnnaConfig& c) { c.bank.photodiode.responsivity = -1; }},
      {"bank.photodiode.responsivity = inf must be finite",
       [](PcnnaConfig& c) { c.bank.photodiode.responsivity = kInf; }},
      {"bank.photodiode.dark_current = -1 must be >= 0",
       [](PcnnaConfig& c) { c.bank.photodiode.dark_current = -1; }},
      {"bank.photodiode.dark_current = inf must be finite",
       [](PcnnaConfig& c) { c.bank.photodiode.dark_current = kInf; }},
      {"bank.photodiode.temperature = 0 must be > 0",
       [](PcnnaConfig& c) { c.bank.photodiode.temperature = 0; }},
      {"bank.photodiode.temperature = inf must be finite",
       [](PcnnaConfig& c) { c.bank.photodiode.temperature = kInf; }},
      {"bank.photodiode.load_resistance = 0 must be > 0",
       [](PcnnaConfig& c) { c.bank.photodiode.load_resistance = 0; }},
      {"bank.calibration_iterations = -1 must be >= 0",
       [](PcnnaConfig& c) { c.bank.calibration_iterations = -1; }},
      {"mzm.v_pi = 0 must be > 0", [](PcnnaConfig& c) { c.mzm.v_pi = 0; }},
      {"mzm.v_pi = inf must be finite",
       [](PcnnaConfig& c) { c.mzm.v_pi = kInf; }},
      {"mzm.insertion_loss_db = -1 must be >= 0",
       [](PcnnaConfig& c) { c.mzm.insertion_loss_db = -1; }},
      {"mzm.insertion_loss_db = inf must be finite",
       [](PcnnaConfig& c) { c.mzm.insertion_loss_db = kInf; }},
      {"mzm.extinction_ratio_db = 0 must be > 0",
       [](PcnnaConfig& c) { c.mzm.extinction_ratio_db = 0; }},
      {"mzm.extinction_ratio_db = inf must be finite",
       [](PcnnaConfig& c) { c.mzm.extinction_ratio_db = kInf; }},
      {"mzm.bandwidth = 0 must be > 0",
       [](PcnnaConfig& c) { c.mzm.bandwidth = 0; }},
      {"mzm.bandwidth = inf must be finite",
       [](PcnnaConfig& c) { c.mzm.bandwidth = kInf; }},
      {"laser.power = 0 must be > 0", [](PcnnaConfig& c) { c.laser.power = 0; }},
      {"laser.power = inf must be finite",
       [](PcnnaConfig& c) { c.laser.power = kInf; }},
      {"laser.rin_db_per_hz = 0 must be < 0",
       [](PcnnaConfig& c) { c.laser.rin_db_per_hz = 0; }},
      {"laser.wall_plug_efficiency = 0 must be in (0, 1]",
       [](PcnnaConfig& c) { c.laser.wall_plug_efficiency = 0; }},
      {"laser.wall_plug_efficiency = 1.5 must be in (0, 1]",
       [](PcnnaConfig& c) { c.laser.wall_plug_efficiency = 1.5; }},
      {"waveguide.propagation_loss_db_per_cm = -1 must be >= 0",
       [](PcnnaConfig& c) { c.waveguide.propagation_loss_db_per_cm = -1; }},
      {"waveguide.propagation_loss_db_per_cm = inf must be finite",
       [](PcnnaConfig& c) { c.waveguide.propagation_loss_db_per_cm = kInf; }},
      {"waveguide.splitter_excess_loss_db = -1 must be >= 0",
       [](PcnnaConfig& c) { c.waveguide.splitter_excess_loss_db = -1; }},
      {"waveguide.splitter_excess_loss_db = inf must be finite",
       [](PcnnaConfig& c) { c.waveguide.splitter_excess_loss_db = kInf; }},
      {"max_wavelengths = 0 must be >= 1",
       [](PcnnaConfig& c) { c.max_wavelengths = 0; }},
      {"ring_settle_time = -1 must be >= 0",
       [](PcnnaConfig& c) { c.ring_settle_time = -1; }},
      {"ring_settle_time = inf must be finite",
       [](PcnnaConfig& c) { c.ring_settle_time = kInf; }},
      {"stuck_ring_rate = 1.5 must be in [0, 1]",
       [](PcnnaConfig& c) { c.stuck_ring_rate = 1.5; }},
      {"adc_headroom = 0 must be > 0",
       [](PcnnaConfig& c) { c.adc_headroom = 0; }},
      {"adc_headroom = inf must be finite",
       [](PcnnaConfig& c) { c.adc_headroom = kInf; }},
      {"engine_threads = 0 must be >= 1",
       [](PcnnaConfig& c) { c.engine_threads = 0; }},
  };
  return table;
}

TEST(ConfigValidation, PresetsValidate) {
  EXPECT_NO_THROW(PcnnaConfig::paper_defaults().validate());
  EXPECT_NO_THROW(PcnnaConfig::ideal().validate());
  EXPECT_NO_THROW(PcnnaConfig::small_core().validate());
  EXPECT_NO_THROW(PcnnaConfig{}.validate());
}

// An infinite photodiode load is the one +inf a rule accepts: it turns
// thermal noise off (docs/configuration.md, Validation).
TEST(ConfigValidation, AcceptsAnInfiniteLoadResistance) {
  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.bank.photodiode.load_resistance = kInf;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidation, EveryRuleRejectsABadValueAndNamesItsPath) {
  for (const Rule& rule : rules()) {
    PcnnaConfig cfg = PcnnaConfig::paper_defaults();
    rule.set(cfg);
    EXPECT_EQ(rule.message, error_of([&] { cfg.validate(); }));
  }
}

// The device constructors reach the same rules, named from the struct.
TEST(ConfigValidation, DeviceConstructorsReachTheSameRules) {
  Rng rng(1);
  PcnnaConfig c = PcnnaConfig::paper_defaults();
  c.bank.ring.q_factor = 0.5;
  EXPECT_EQ("ring.q_factor = 0.5 must be > 1",
            error_of([&] { phot::MicroringResonator(c.bank.ring, rng); }));
  EXPECT_EQ("ring.q_factor = 0.5 must be > 1", error_of([&] {
              phot::WeightBank(phot::WdmGrid(2), c.bank, rng);
            }));
  c.bank.ring.q_factor = 2e4;
  c.bank.calibration_iterations = -1;
  EXPECT_EQ("bank.calibration_iterations = -1 must be >= 0", error_of([&] {
              phot::WeightBank(phot::WdmGrid(2), c.bank, rng);
            }));
  c = PcnnaConfig::paper_defaults();
  c.bank.photodiode.responsivity = -1;
  EXPECT_EQ("photodiode.responsivity = -1 must be > 0",
            error_of([&] { phot::Photodiode{c.bank.photodiode}; }));
  c.laser.power = 0;
  EXPECT_EQ("laser.power = 0 must be > 0",
            error_of([&] { phot::LaserDiode{c.laser}; }));
  c.mzm.v_pi = 0;
  EXPECT_EQ("mzm.v_pi = 0 must be > 0",
            error_of([&] { phot::MachZehnderModulator{c.mzm}; }));
  c.waveguide.splitter_excess_loss_db = -1;
  EXPECT_EQ("waveguide.splitter_excess_loss_db = -1 must be >= 0",
            error_of([&] { phot::Waveguide{c.waveguide}; }));
  c.input_dac.bits = 0;
  EXPECT_EQ("dac.bits = 0 must be in [1, 24]",
            error_of([&] { elec::Dac{c.input_dac}; }));
  c.adc.full_scale = 0;
  EXPECT_EQ("adc.full_scale = 0 must be > 0",
            error_of([&] { elec::Adc{c.adc}; }));
  c.sram.word_bits = 0;
  EXPECT_EQ("sram.word_bits = 0 must be >= 1",
            error_of([&] { elec::Sram{c.sram}; }));
  c.dram.bandwidth = 0;
  EXPECT_EQ("dram.bandwidth = 0 must be > 0",
            error_of([&] { elec::Dram{c.dram}; }));
}

struct Served {
  nn::Network net = nn::tiny_cnn();
  nn::NetWeights weights;
  Served() {
    Rng rng(5);
    weights = nn::make_network_weights(net, rng);
  }
};

/// What building a 4-PCU fleet whose last spec `bad` edits throws.
std::string fleet_error(void (*bad)(PcnnaConfig&), bool simulate_values) {
  const Served s;
  std::vector<runtime::PcuSpec> specs(4);
  for (runtime::PcuSpec& spec : specs)
    spec.config = PcnnaConfig::paper_defaults();
  bad(specs[3].config);
  runtime::BatchRunnerOptions options;
  options.simulate_values = simulate_values;
  return error_of(
      [&] { runtime::BatchRunner(specs, s.net, s.weights, options); });
}

TEST(BatchRunner, RejectsABadNestedFieldNamingThePcuAndItsPath) {
  EXPECT_EQ("PCU 3: bank.ring.q_factor = 0.5 must be > 1",
            fleet_error([](PcnnaConfig& c) { c.bank.ring.q_factor = 0.5; },
                        /*simulate_values=*/true));
}

// Timing-only serving never builds a ring, so only validation stands
// between this fleet and an infinite energy per request.
TEST(BatchRunner, RejectsZeroThermalEfficiencyOnATimingOnlyFleet) {
  EXPECT_EQ(
      "PCU 3: bank.ring.thermal_efficiency = 0 must be > 0",
      fleet_error([](PcnnaConfig& c) { c.bank.ring.thermal_efficiency = 0; },
                  /*simulate_values=*/false));
}

// A negative settle time would price a negative warmup and swap.
TEST(BatchRunner, RejectsANegativeRingSettleTime) {
  EXPECT_EQ("PCU 3: ring_settle_time = -1 must be >= 0",
            fleet_error([](PcnnaConfig& c) { c.ring_settle_time = -1; },
                        /*simulate_values=*/false));
}

// A fleet of 1,024 PCUs pays for every byte a Pcu holds besides its
// engine; the engine's PcnnaConfig is the chip's only copy.
TEST(Pcu, HoldsNoConfigCopyOutsideItsEngine) {
  EXPECT_LT(sizeof(runtime::Pcu) - sizeof(core::OpticalConvEngine),
            sizeof(core::PcnnaConfig));
}

} // namespace
