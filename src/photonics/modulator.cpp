#include "photonics/modulator.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/mathutil.hpp"

namespace pcnna::phot {

namespace {
constexpr double kPi = 3.14159265358979323846;
}

void MzmConfig::validate(const char* path) const {
  PCNNA_CHECK_FIELD(path, v_pi, v_pi > 0.0, "> 0");
  PCNNA_CHECK_FIELD(path, insertion_loss_db, insertion_loss_db >= 0.0, ">= 0");
  PCNNA_CHECK_FIELD(path, extinction_ratio_db, extinction_ratio_db > 0.0,
                    "> 0");
  PCNNA_CHECK_FIELD(path, bandwidth, bandwidth > 0.0, "> 0");
}

MachZehnderModulator::MachZehnderModulator(MzmConfig config)
    : config_(config),
      loss_factor_(from_db(-config.insertion_loss_db)),
      floor_(from_db(-config.extinction_ratio_db)) {
  config.validate("mzm");
}

double MachZehnderModulator::raw_transfer(double volts) const {
  const double t = std::sin(kPi / 2.0 * volts / config_.v_pi);
  return t * t;
}

double MachZehnderModulator::transmit_fraction(double x) const {
  PCNNA_CHECK_MSG(x >= 0.0 && x <= 1.0,
                  "MZM input value " << x << " outside [0, 1]");
  double t;
  if (config_.predistort) {
    // Drive v = (2 Vpi / pi) * asin(sqrt(x)) makes T linear in x.
    t = x;
  } else {
    // Uncompensated linear voltage ramp: v = x * Vpi.
    t = raw_transfer(x * config_.v_pi);
  }
  // Finite extinction: transmission floor at x = 0.
  t = floor_ + (1.0 - floor_) * t;
  return loss_factor_ * t;
}

} // namespace pcnna::phot
