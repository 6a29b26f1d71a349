#include "photonics/laser.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/mathutil.hpp"

namespace pcnna::phot {

void LaserConfig::validate(const char* path) const {
  PCNNA_CHECK_FIELD(path, power, power > 0.0, "> 0");
  PCNNA_CHECK_FIELD(path, rin_db_per_hz, rin_db_per_hz < 0.0, "< 0");
  PCNNA_CHECK_FIELD(path, wall_plug_efficiency,
                    wall_plug_efficiency > 0.0 && wall_plug_efficiency <= 1.0,
                    "in (0, 1]");
}

LaserDiode::LaserDiode(LaserConfig config) : config_(config) {
  config.validate("laser");
}

double LaserDiode::emit(double bandwidth, Rng& rng) const {
  PCNNA_CHECK(bandwidth >= 0.0);
  if (bandwidth == 0.0) return config_.power;
  const double rin_linear = from_db(config_.rin_db_per_hz);
  const double sigma = config_.power * std::sqrt(rin_linear * bandwidth);
  // Power cannot go negative even in a noisy draw.
  return std::max(0.0, rng.normal(config_.power, sigma));
}

} // namespace pcnna::phot
