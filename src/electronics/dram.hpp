// Off-chip DRAM channel model.
//
// Paper SS IV: kernel weights and feature maps live in off-chip DRAM;
// convolution results are stored back per layer. A bandwidth + first-access
// latency model is enough for the execution-time analysis; the energy model
// prices the LayerPlan's traffic with DramConfig::energy_per_byte.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "common/units.hpp"

namespace pcnna::elec {

struct DramConfig {
  double bandwidth = 12.8e9;               ///< bytes/s (DDR3-1600 x64 class)
  double first_access_latency = 50.0 * units::ns; ///< row activate + CAS
  double energy_per_byte = 20.0 * units::pJ; ///< access energy

  void validate(const char* path) const; ///< throws naming a bad field
  friend bool operator==(const DramConfig&, const DramConfig&) = default;
};

/// Bandwidth/latency model of one DRAM channel.
class Dram {
 public:
  explicit Dram(DramConfig config);

  const DramConfig& config() const { return config_; }

  /// Time to move `bytes` as one burst [s].
  double transfer_time(std::uint64_t bytes) const {
    if (bytes == 0) return 0.0;
    return config_.first_access_latency +
           static_cast<double>(bytes) / config_.bandwidth;
  }

 private:
  DramConfig config_;
};

} // namespace pcnna::elec
