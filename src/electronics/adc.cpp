#include "electronics/adc.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/mathutil.hpp"

namespace pcnna::elec {

void AdcConfig::validate(const char* path) const {
  PCNNA_CHECK_FIELD(path, bits, bits >= 1 && bits <= 24, "in [1, 24]");
  PCNNA_CHECK_FIELD(path, sample_rate, sample_rate > 0.0, "> 0");
  PCNNA_CHECK_FIELD(path, area, area >= 0.0, ">= 0");
  PCNNA_CHECK_FIELD(path, power, power >= 0.0, ">= 0");
  PCNNA_CHECK_FIELD(path, full_scale, full_scale > 0.0, "> 0");
}

Adc::Adc(AdcConfig config) : config_(config) { config.validate("adc"); }

double Adc::convert(double analog) const {
  const double fs = config_.full_scale;
  const double x = clamp(analog, -fs, fs);
  const double steps = static_cast<double>(levels() - 1);
  // Map [-fs, fs] -> [0, steps], quantize, map back.
  const double code = std::round((x + fs) / (2.0 * fs) * steps);
  return code / steps * 2.0 * fs - fs;
}

} // namespace pcnna::elec
