// On-chip SRAM cache model.
//
// Paper SS V-B: "Buffered inputs are cached in the SRAM memory [15], which
// has a 128kb capacity that can store 8 thousand 16bit values. The access
// time for the memory is 7ns and it has a footprint of 0.443mm2."
//
// The scheduler checks each layer's live receptive field against the
// capacity in words; the timing model reads the access time and the energy
// model the per-word access energy from the config.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "common/units.hpp"

namespace pcnna::elec {

struct SramConfig {
  double capacity_bits = 128.0 * units::kb; ///< 128 kb (paper [15])
  int word_bits = 16;                       ///< one CNN value per word
  double access_time = 7.0 * units::ns;     ///< per-word access (paper [15])
  double area = 0.443 * units::mm2;         ///< footprint (paper [15])
  double access_energy = 2.0 * units::pJ;   ///< per-word access energy
  double retention_power = 25.0 * units::uW;///< static draw (paper [15] class)

  void validate(const char* path) const; ///< throws naming a bad field
  friend bool operator==(const SramConfig&, const SramConfig&) = default;
};

/// A validated SRAM configuration and its capacity in words.
class Sram {
 public:
  explicit Sram(SramConfig config);

  const SramConfig& config() const { return config_; }

  /// Total capacity in words (paper: ~8000 for the 128 kb / 16 b config).
  std::uint64_t capacity_words() const;

 private:
  SramConfig config_;
};

} // namespace pcnna::elec
