// Digital-to-analog converter model.
//
// The paper's front end uses one kernel-weight DAC and 10 input DACs at
// 6 GSa/s (16 b, [16]); the input DACs are the full-system bottleneck
// (SS V-B, Eq. 8). The model covers both the value path (quantization to
// `bits`) and the rate path (conversion time per sample), plus area/power
// for the footprint and energy accounting.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace pcnna::elec {

struct DacConfig {
  int bits = 16;                        ///< resolution
  double sample_rate = 6.0 * units::GSa;///< conversions per second
  double area = 0.52 * units::mm2;      ///< die area per DAC (paper [16])
  double power = 350.0 * units::mW;     ///< active power draw
  double full_scale = 1.0;              ///< output range is [0, full_scale]

  void validate(const char* path) const; ///< throws naming a bad field
  friend bool operator==(const DacConfig&, const DacConfig&) = default;
};

/// A single DAC channel.
class Dac {
 public:
  explicit Dac(DacConfig config);

  const DacConfig& config() const { return config_; }

  /// Number of representable levels (2^bits).
  std::uint64_t levels() const { return std::uint64_t{1} << config_.bits; }

  /// Quantize a normalized value in [0, 1] to the DAC grid and scale to the
  /// full-scale output. Values outside [0, 1] are clipped.
  double convert(double normalized) const;

  /// Quantization step in output units.
  double lsb() const {
    return config_.full_scale / static_cast<double>(levels() - 1);
  }

  /// Time to convert `samples` sequential values [s].
  double conversion_time(std::uint64_t samples) const {
    return static_cast<double>(samples) / config_.sample_rate;
  }

  /// Energy for `samples` conversions [J] (power * busy time).
  double conversion_energy(std::uint64_t samples) const {
    return config_.power * conversion_time(samples);
  }

 private:
  DacConfig config_;
};

} // namespace pcnna::elec
