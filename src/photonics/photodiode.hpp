// Photodiode and balanced photodetector models.
//
// The accumulate in the photonic MAC: "a photodiode sums up all the incoming
// wavelengths into an aggregate photo-current" (paper SS III). A balanced
// pair subtracts the through-port bus from the drop-port bus, which is what
// turns a 0..1 drop fraction into a signed -1..+1 weight.
#pragma once

#include "common/rng.hpp"
#include "common/units.hpp"

namespace pcnna::phot {

struct PhotodiodeConfig {
  double responsivity = 1.0;          ///< [A/W]
  double dark_current = 10e-9;        ///< [A]
  double temperature = 300.0;         ///< [K] for Johnson noise
  /// Effective input impedance of the transimpedance receiver [ohm]; sets
  /// the input-referred Johnson noise floor (a raw 50-ohm termination would
  /// be ~4.5x noisier than this TIA-class value).
  double load_resistance = 1000.0;
  bool enable_shot_noise = true;
  bool enable_thermal_noise = true;

  void validate(const char* path) const; ///< throws naming a bad field
  friend bool operator==(const PhotodiodeConfig&,
                         const PhotodiodeConfig&) = default;
};

/// Single photodiode: optical power in, current out, with shot and thermal
/// noise integrated over the detection bandwidth.
class Photodiode {
 public:
  explicit Photodiode(PhotodiodeConfig config);

  const PhotodiodeConfig& config() const { return config_; }

  /// Noiseless photocurrent for incident power [W] -> [A].
  double ideal_current(double power) const {
    return config_.responsivity * power + config_.dark_current;
  }

  /// RMS noise current for a mean current `current` over `bandwidth` [A].
  double noise_sigma(double current, double bandwidth) const;

  /// One noisy detection sample: current for `power` integrated over
  /// `bandwidth`. bandwidth == 0 -> deterministic.
  double detect(double power, double bandwidth, Rng& rng) const;

 private:
  PhotodiodeConfig config_;
};

/// Balanced photodetector: I = detect(P_plus) - detect(P_minus).
class BalancedPhotodiode {
 public:
  explicit BalancedPhotodiode(PhotodiodeConfig config)
      : plus_(config), minus_(config) {}

  /// Signed differential current [A]; both branches draw independent noise.
  double detect(double p_plus, double p_minus, double bandwidth,
                Rng& rng) const {
    return plus_.detect(p_plus, bandwidth, rng) -
           minus_.detect(p_minus, bandwidth, rng);
  }

  /// Noiseless differential current [A]; dark currents cancel.
  double ideal_current(double p_plus, double p_minus) const {
    return plus_.ideal_current(p_plus) - minus_.ideal_current(p_minus);
  }

  const Photodiode& plus_branch() const { return plus_; }
  const Photodiode& minus_branch() const { return minus_; }

 private:
  Photodiode plus_;
  Photodiode minus_;
};

} // namespace pcnna::phot
