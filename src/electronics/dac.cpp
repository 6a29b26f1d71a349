#include "electronics/dac.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/mathutil.hpp"

namespace pcnna::elec {

void DacConfig::validate(const char* path) const {
  PCNNA_CHECK_FIELD(path, bits, bits >= 1 && bits <= 24, "in [1, 24]");
  PCNNA_CHECK_FIELD(path, sample_rate, sample_rate > 0.0, "> 0");
  PCNNA_CHECK_FIELD(path, area, area >= 0.0, ">= 0");
  PCNNA_CHECK_FIELD(path, power, power >= 0.0, ">= 0");
  PCNNA_CHECK_FIELD(path, full_scale, full_scale > 0.0, "> 0");
}

Dac::Dac(DacConfig config) : config_(config) { config.validate("dac"); }

double Dac::convert(double normalized) const {
  const double x = clamp(normalized, 0.0, 1.0);
  const double steps = static_cast<double>(levels() - 1);
  return std::round(x * steps) / steps * config_.full_scale;
}

} // namespace pcnna::elec
