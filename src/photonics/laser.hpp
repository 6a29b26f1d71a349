// Laser diode model.
//
// Each WDM channel is sourced by a continuous-wave laser diode whose beam is
// amplitude-modulated by the input value (paper Fig. 4: "Laser beams of
// different wavelengths generated by Laser Diodes (LD) modulate the analog
// signal from the DAC"). The dominant laser impairment for analog computing
// is relative intensity noise (RIN).
#pragma once

#include "common/rng.hpp"
#include "common/units.hpp"

namespace pcnna::phot {

/// Static laser parameters.
struct LaserConfig {
  /// CW output power [W]. Telecom-class DFB pump; the broadcast tree
  /// divides this by the kernel fan-out, so per-bank channel power is tens
  /// of microwatts at AlexNet scale.
  double power = 10.0 * units::mW;
  double rin_db_per_hz = -155.0;    ///< relative intensity noise [dB/Hz]
  double wall_plug_efficiency = 0.2;///< electrical->optical efficiency

  void validate(const char* path) const; ///< throws naming a bad field
  friend bool operator==(const LaserConfig&, const LaserConfig&) = default;
};

/// A continuous-wave laser diode on one WDM channel.
class LaserDiode {
 public:
  explicit LaserDiode(LaserConfig config);

  const LaserConfig& config() const { return config_; }

  /// Noiseless CW power [W].
  double cw_power() const { return config_.power; }

  /// Emit one sample of optical power integrated over `bandwidth` [Hz].
  /// RIN contributes a Gaussian power fluctuation with variance
  /// P^2 * 10^(RIN/10) * B. With bandwidth == 0 this is deterministic.
  double emit(double bandwidth, Rng& rng) const;

  /// Electrical power drawn from the supply [W].
  double electrical_power() const {
    return config_.power / config_.wall_plug_efficiency;
  }

 private:
  LaserConfig config_;
};

} // namespace pcnna::phot
