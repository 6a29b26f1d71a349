// Analog-to-digital converter model.
//
// The paper's back end digitizes the photodiode outputs with a 2.8 GSa/s
// time-interleaved ADC ([17]: 44.6 mW, 50.9 dB SNDR ~ 8.2 ENOB).
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace pcnna::elec {

struct AdcConfig {
  int bits = 8;                          ///< effective resolution (ENOB ~ 8)
  double sample_rate = 2.8 * units::GSa; ///< conversions per second
  double area = 0.58 * units::mm2;       ///< die area (paper [17], 65 nm)
  double power = 44.6 * units::mW;       ///< active power draw (paper [17])
  double full_scale = 1.0;               ///< input range is [-fs, +fs]

  void validate(const char* path) const; ///< throws naming a bad field
  friend bool operator==(const AdcConfig&, const AdcConfig&) = default;
};

/// A single ADC channel; input is a signed analog value in [-fs, +fs].
class Adc {
 public:
  explicit Adc(AdcConfig config);

  const AdcConfig& config() const { return config_; }

  std::uint64_t levels() const { return std::uint64_t{1} << config_.bits; }

  /// Quantize a signed analog value to the ADC grid; clips outside range.
  double convert(double analog) const;

  /// Quantization step in input units.
  double lsb() const {
    return 2.0 * config_.full_scale / static_cast<double>(levels() - 1);
  }

  /// Time to digitize `samples` sequential values [s].
  double conversion_time(std::uint64_t samples) const {
    return static_cast<double>(samples) / config_.sample_rate;
  }

  /// Energy for `samples` conversions [J].
  double conversion_energy(std::uint64_t samples) const {
    return config_.power * conversion_time(samples);
  }

 private:
  AdcConfig config_;
};

} // namespace pcnna::elec
