// Top-level PCNNA hardware configuration.
//
// Aggregates every component spec the paper fixes (SS IV-V): the 5 GHz fast
// clock, 10 input DACs at 6 GSa/s, one kernel-weight DAC, the 2.8 GSa/s
// ADC, the 128 kb / 7 ns SRAM cache, off-chip DRAM, and the photonic core
// (MRR banks, lasers, MZMs, photodiodes). `paper_defaults()` is the exact
// configuration of the paper's evaluation; `ideal()` removes noise and
// quantization for functional-correctness tests.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/units.hpp"
#include "electronics/adc.hpp"
#include "electronics/dac.hpp"
#include "electronics/dram.hpp"
#include "electronics/sram.hpp"
#include "photonics/laser.hpp"
#include "photonics/modulator.hpp"
#include "photonics/waveguide.hpp"
#include "photonics/weight_bank.hpp"

namespace pcnna::core {

/// How rings are allocated to a layer (DESIGN.md inconsistency #1).
enum class RingAllocation {
  /// Eq. (5): K * Nkernel rings — every receptive-field value of every
  /// kernel has a dedicated ring; one fast-clock cycle per location.
  kFullKernel,
  /// The paper's conv4 worked number (3456 = K * m * m): one input channel
  /// is weighted at a time and channel partial sums accumulate
  /// electronically; rings are retuned per channel pass.
  kPerChannel,
};

const char* ring_allocation_name(RingAllocation allocation);

/// Which effects the execution-time model includes.
enum class TimingFidelity {
  /// The paper's model (SS V-B): optical core takes one cycle per kernel
  /// location; the full system adds only the input-DAC constraint (Eq. 8).
  kPaper,
  /// Pipelined stage model that also accounts for ADC serialization, SRAM
  /// port width, DRAM traffic, WDM channel tiling, per-channel passes and
  /// weight programming (the ablation of DESIGN.md inconsistency #2).
  kFull,
};

const char* timing_fidelity_name(TimingFidelity fidelity);

struct PcnnaConfig {
  // --- clocks (paper SS IV) ---
  double fast_clock = 5.0 * units::GHz; ///< optical core + near electronics
  double io_clock = 500.0 * units::MHz; ///< external-interface domain

  // --- mixed-signal front/back end (paper SS V-B) ---
  std::size_t num_input_dacs = 10;
  elec::DacConfig input_dac{};  ///< 16 b, 6 GSa/s [16]
  elec::DacConfig weight_dac{}; ///< 1 kernel-weight DAC
  std::size_t num_adcs = 1;
  elec::AdcConfig adc{};        ///< 2.8 GSa/s [17]
  elec::SramConfig sram{};      ///< 128 kb, 7 ns [15]
  elec::DramConfig dram{};
  int word_bits = 16;           ///< feature-map/weight word width in memory

  /// SRAM words moved per port access in the full-fidelity timing model
  /// (a wide scratchpad port; 1 reproduces a strictly serial 7 ns/word).
  std::size_t sram_port_words = 64;

  // --- photonic core ---
  phot::WeightBankConfig bank{};
  phot::MzmConfig mzm{};
  phot::LaserConfig laser{};
  phot::WaveguideConfig waveguide{};
  /// WDM channel budget: receptive fields wider than this are split into
  /// segmented bank passes whose partial sums add electronically.
  std::size_t max_wavelengths = 96;
  RingAllocation allocation = RingAllocation::kFullKernel;
  /// Thermo-optic settling time after a ring retuning episode; charged per
  /// recalibration by the full-fidelity timing model (the hidden cost of the
  /// per-channel allocation, which retunes between channel passes).
  double ring_settle_time = 10.0 * units::us;

  // --- functional-simulation knobs ---
  bool enable_noise = true;       ///< RIN + shot + thermal noise
  bool enable_quantization = true;///< DAC/ADC value quantization
  /// Run fully-connected layers on the optical core too (the original
  /// broadcast-and-weight use case; the paper's PCNNA only offloads conv).
  bool accelerate_fc = false;
  /// Failure injection: probability that any given ring's heater is stuck
  /// at its parked (zero-weight) drive. Calibration works around healthy
  /// rings; stuck ones keep weight ~0.
  double stuck_ring_rate = 0.0;
  /// Dual-rail input encoding: signed inputs are split x = x+ - x-, the two
  /// non-negative halves run as separate optical passes, and the results
  /// subtract electronically. Doubles the optical/DAC work of layers that
  /// actually contain negative inputs; layers with non-negative inputs
  /// (post-ReLU) run single-rail regardless.
  bool dual_rail_inputs = false;
  double adc_headroom = 4.0;      ///< ADC full scale = headroom * sqrt(group)
  std::uint64_t seed = 1;         ///< fabrication + noise seed
  /// Intra-image parallelism of the functional engine: number of host
  /// threads sweeping kernel locations of one conv layer (1 = sequential).
  /// Outputs are bit-identical for any value — pixels are partitioned into
  /// fixed tiles, per-pixel accumulation order is unchanged, and with noise
  /// enabled each tile draws from its own generator, skipped ahead to its
  /// first draw in sequential pixel order. Purely a host-simulation knob;
  /// no modeled hardware quantity depends on it. The serving runtime
  /// multiplies this by its per-PCU worker threads, so keep the product
  /// within the host core budget.
  std::size_t engine_threads = 1;

  /// The configuration used throughout the paper's evaluation.
  static PcnnaConfig paper_defaults();

  /// Noise-free, quantization-free, crosstalk-free, high-resolution config
  /// for functional-correctness tests (optical MAC must match the golden
  /// convolution almost exactly).
  static PcnnaConfig ideal();

  /// A deliberately budget-constrained PCU: the per-channel ring
  /// allocation (K * m * m rings — the paper's conv4 worked number —
  /// instead of K * Nkernel), a quarter of the WDM channel budget
  /// (24 wavelengths), and 4 input DACs. Multi-channel layers pay nc
  /// sequential passes and nc thermal-settle recalibrations, and wide
  /// receptive fields segment into extra bank passes, so requests take
  /// several times longer than on paper_defaults() — the "small cheap
  /// PCU" of a heterogeneous serving fleet (docs/configuration.md,
  /// runtime::PcuSpec).
  static PcnnaConfig small_core();

  /// Throws pcnna::Error if fields are inconsistent.
  void validate() const;

  /// Memberwise equality. The serving runtime uses this to detect whether
  /// a PCU fleet is homogeneous (any PCU computes bit-identical outputs
  /// for a given request) or heterogeneous (outputs depend on which PCU's
  /// device model serves the request).
  friend bool operator==(const PcnnaConfig&, const PcnnaConfig&) = default;
};

} // namespace pcnna::core
