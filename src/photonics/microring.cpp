#include "photonics/microring.hpp"

#include <cstdint>
#include <cmath>

#include "common/error.hpp"
#include "common/mathutil.hpp"

namespace pcnna::phot {

void MicroringConfig::validate(const char* path) const {
  PCNNA_CHECK_FIELD(path, design_wavelength, design_wavelength > 0.0, "> 0");
  PCNNA_CHECK_FIELD(path, q_factor, q_factor > 1.0, "> 1");
  PCNNA_CHECK_FIELD(path, max_drop, max_drop > 0.0 && max_drop <= 1.0,
                    "in (0, 1]");
  PCNNA_CHECK_FIELD(path, insertion_loss_db, insertion_loss_db >= 0.0, ">= 0");
  PCNNA_CHECK_FIELD(path, max_detuning, max_detuning > 0.0, "> 0");
  PCNNA_CHECK_FIELD(path, tuning_bits, tuning_bits >= 1 && tuning_bits <= 48,
                    "in [1, 48]");
  PCNNA_CHECK_FIELD(path, thermal_efficiency, thermal_efficiency > 0.0, "> 0");
  PCNNA_CHECK_FIELD(path, fab_sigma, fab_sigma >= 0.0, ">= 0");
  PCNNA_CHECK_FIELD(path, footprint_side, footprint_side > 0.0, "> 0");
}

MicroringResonator::MicroringResonator(MicroringConfig config, Rng& rng)
    : config_(config), loss_factor_(from_db(-config.insertion_loss_db)) {
  config.validate("ring");
  const double offset =
      config.fab_sigma > 0.0 ? rng.normal(0.0, config.fab_sigma) : 0.0;
  natural_resonance_ = config.design_wavelength + offset;
  const double half_width = 0.5 * linewidth();
  half_width_sq_ = half_width * half_width;
}

double MicroringResonator::set_thermal_shift(double shift) {
  if (stuck_) return applied_shift_;
  // Heaters only shift the resonance one way (red); allow enough headroom to
  // compensate worst-case fabrication offsets (the bank blue-biases designs
  // by 4 sigma and the draw itself can add another 4 sigma) on top of the
  // weight detuning.
  const double max_shift = config_.max_detuning + 8.0 * config_.fab_sigma;
  const double clamped = clamp(shift, 0.0, max_shift);
  const double levels =
      static_cast<double>((std::uint64_t{1} << config_.tuning_bits) - 1u);
  const double step = max_shift / levels;
  applied_shift_ = std::round(clamped / step) * step;
  return applied_shift_;
}

double MicroringResonator::through_fraction(double wavelength) const {
  return loss_factor_ * (1.0 - drop_fraction(wavelength));
}

} // namespace pcnna::phot
