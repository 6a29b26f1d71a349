#include "photonics/photodiode.hpp"

#include <cmath>

#include "common/error.hpp"

namespace pcnna::phot {

void PhotodiodeConfig::validate(const char* path) const {
  PCNNA_CHECK_FIELD(path, responsivity, responsivity > 0.0, "> 0");
  PCNNA_CHECK_FIELD(path, dark_current, dark_current >= 0.0, ">= 0");
  PCNNA_CHECK_FIELD(path, temperature, temperature > 0.0, "> 0");
  // +inf is an infinite load: no thermal noise.
  PCNNA_CHECK_FIELD_OR_INF(path, load_resistance, load_resistance > 0.0,
                           "> 0");
}

Photodiode::Photodiode(PhotodiodeConfig config) : config_(config) {
  config.validate("photodiode");
}

double Photodiode::noise_sigma(double current, double bandwidth) const {
  if (bandwidth <= 0.0) return 0.0;
  double variance = 0.0;
  if (config_.enable_shot_noise) {
    variance += 2.0 * units::q_e * std::abs(current) * bandwidth;
  }
  if (config_.enable_thermal_noise) {
    variance += 4.0 * units::k_B * config_.temperature * bandwidth /
                config_.load_resistance;
  }
  return std::sqrt(variance);
}

double Photodiode::detect(double power, double bandwidth, Rng& rng) const {
  PCNNA_CHECK(power >= 0.0);
  const double mean = ideal_current(power);
  const double sigma = noise_sigma(mean, bandwidth);
  if (sigma == 0.0) return mean;
  return rng.normal(mean, sigma);
}

} // namespace pcnna::phot
