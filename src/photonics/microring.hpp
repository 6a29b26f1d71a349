// Add-drop microring resonator (MRR).
//
// The multiply in the photonic MAC: a ring tuned in or out of resonance with
// its laser wavelength routes a controllable fraction of that channel's
// power to the drop port (paper SS III: "Multiplication is carried out by
// tuning rings in and out of resonance to a respective laser wavelength").
//
// The drop-port power response around resonance is Lorentzian:
//   D(lambda) = d_max * (G/2)^2 / ((lambda - lambda_res)^2 + (G/2)^2),
// with linewidth G = lambda0 / Q. Thermal tuning shifts lambda_res; the
// tuning drive is quantized by the weight-DAC resolution. Fabrication
// disorder offsets the as-built resonance from its design target.
#pragma once

#include "common/rng.hpp"
#include "common/units.hpp"

namespace pcnna::phot {

struct MicroringConfig {
  double design_wavelength = 1550.0 * units::nm; ///< target resonance [m]
  double q_factor = 20'000.0;          ///< loaded quality factor
  double max_drop = 0.98;              ///< drop fraction on resonance
  double insertion_loss_db = 0.01;     ///< per-ring through-path loss
  double max_detuning = 0.4 * units::nm; ///< tuning range to one side [m]
  int tuning_bits = 12;                ///< DAC resolution of the heater drive
  double thermal_efficiency = 0.25 * units::nm / units::mW; ///< shift per heater watt
  double fab_sigma = 0.0;              ///< std-dev of as-built resonance offset [m]
  /// Ring footprint (paper SS V-A cites 25 um x 25 um per ring [10]).
  double footprint_side = 25.0 * units::um;

  void validate(const char* path) const; ///< throws naming a bad field
  friend bool operator==(const MicroringConfig&,
                         const MicroringConfig&) = default;
};

class MicroringResonator {
 public:
  /// `rng` supplies the fabrication-disorder draw when fab_sigma > 0.
  MicroringResonator(MicroringConfig config, Rng& rng);

  const MicroringConfig& config() const { return config_; }

  /// Lorentzian full width at half maximum [m].
  double linewidth() const { return config_.design_wavelength / config_.q_factor; }

  /// As-built (disordered) natural resonance wavelength [m].
  double natural_resonance() const { return natural_resonance_; }

  /// Current (tuned) resonance wavelength [m].
  double resonance() const { return natural_resonance_ + applied_shift_; }

  /// Command a thermal shift relative to the natural resonance. The shift is
  /// clamped to [0, max_detuning + |fab offset allowance|] and quantized to
  /// `tuning_bits` levels over that range. Returns the shift actually applied.
  /// A stuck ring (see set_stuck) ignores the command and keeps its current
  /// shift.
  double set_thermal_shift(double shift);

  /// Failure injection: freeze the heater at its current drive. Subsequent
  /// set_thermal_shift calls are ignored until the ring is un-stuck —
  /// models a dead heater driver or an open heater trace.
  void set_stuck(bool stuck) { stuck_ = stuck; }
  bool stuck() const { return stuck_; }

  /// Heater shift currently applied [m].
  double thermal_shift() const { return applied_shift_; }

  /// Heater electrical power for the current shift [W].
  double heater_power() const { return applied_shift_ / config_.thermal_efficiency; }

  /// Drop-port power fraction at `wavelength` (Lorentzian). Inline, with the
  /// squared half width precomputed: the weight bank's probe sweeps call it
  /// O(channels^2) times per calibration, and each call is then a single
  /// division.
  double drop_fraction(double wavelength) const {
    const double delta = wavelength - resonance();
    const double lorentz = half_width_sq_ / (delta * delta + half_width_sq_);
    return config_.max_drop * lorentz;
  }

  /// Through-port power fraction at `wavelength`:
  /// (1 - insertion loss) * (1 - drop_fraction).
  double through_fraction(double wavelength) const;

  /// Ring footprint area [m^2].
  double area() const { return config_.footprint_side * config_.footprint_side; }

 private:
  MicroringConfig config_;
  double natural_resonance_;
  double applied_shift_ = 0.0;
  double loss_factor_;
  /// (0.5 * linewidth())^2, fixed at construction like the config.
  double half_width_sq_;
  bool stuck_ = false;
};

} // namespace pcnna::phot
