// Mach-Zehnder modulator (MZM).
//
// The analog input voltage from the DAC drives an MZM that imprints the
// input value onto the laser beam's amplitude (paper SS V-B: "analog input
// values from DAC modulate the laser beams with Mach Zehnder Modulators").
//
// The raw MZM power transfer is the interferometer response
//   T(v) = sin^2(pi/2 * v / Vpi),
// which is nonlinear in the drive voltage. For analog computing the drive
// is pre-distorted (arcsine predistortion) so transmitted power is linear in
// the intended value x in [0, 1]; residual nonidealities are the finite
// extinction ratio (light leaks through at x = 0) and excess insertion loss.
#pragma once

#include "common/units.hpp"

namespace pcnna::phot {

struct MzmConfig {
  double v_pi = 1.5;                ///< half-wave voltage [V]
  double insertion_loss_db = 3.0;   ///< excess loss through the device
  double extinction_ratio_db = 25.0;///< on/off power ratio
  bool predistort = true;           ///< apply arcsine predistortion
  double bandwidth = 20.0 * units::GHz; ///< 3 dB modulation bandwidth

  void validate(const char* path) const; ///< throws naming a bad field
  friend bool operator==(const MzmConfig&, const MzmConfig&) = default;
};

class MachZehnderModulator {
 public:
  explicit MachZehnderModulator(MzmConfig config);

  const MzmConfig& config() const { return config_; }

  /// Raw interferometer power transfer for a drive voltage [0, Vpi] -> [0, 1]
  /// (before insertion loss and extinction-ratio floor).
  double raw_transfer(double volts) const;

  /// Transmit fraction for a normalized input value x in [0, 1]:
  /// with predistortion the response is linear in x up to the insertion loss
  /// and extinction floor; without it, the raw sin^2 response is used
  /// (models an uncompensated drive chain).
  double transmit_fraction(double x) const;

  /// Transmitted power for input power `p_in` and value x.
  double modulate(double p_in, double x) const {
    return p_in * transmit_fraction(x);
  }

 private:
  MzmConfig config_;
  double loss_factor_;  ///< linear insertion-loss factor
  double floor_;        ///< linear extinction floor (T at x = 0)
};

} // namespace pcnna::phot
