// Waveguide propagation and splitting losses.
//
// Broadcast-and-weight places all wavelengths on one bus waveguide and
// broadcasts it to every weight bank; the broadcast split and propagation
// loss set the optical power budget at each photodiode.
#pragma once

#include <cmath>

#include "common/error.hpp"
#include "common/mathutil.hpp"
#include "common/units.hpp"

namespace pcnna::phot {

struct WaveguideConfig {
  double propagation_loss_db_per_cm = 2.0; ///< silicon strip waveguide
  double splitter_excess_loss_db = 0.1;    ///< per 1x2 split stage

  /// Throws pcnna::Error naming the first bad field under `path`.
  void validate(const char* path) const {
    PCNNA_CHECK_FIELD(path, propagation_loss_db_per_cm,
                      propagation_loss_db_per_cm >= 0.0, ">= 0");
    PCNNA_CHECK_FIELD(path, splitter_excess_loss_db,
                      splitter_excess_loss_db >= 0.0, ">= 0");
  }
  friend bool operator==(const WaveguideConfig&,
                         const WaveguideConfig&) = default;
};

/// Stateless loss calculator for bus waveguides and broadcast trees.
class Waveguide {
 public:
  explicit Waveguide(WaveguideConfig config) : config_(config) {
    config.validate("waveguide");
  }

  const WaveguideConfig& config() const { return config_; }

  /// Linear transmission factor after propagating `length` meters.
  double propagation_factor(double length) const {
    PCNNA_CHECK(length >= 0.0);
    const double loss_db = config_.propagation_loss_db_per_cm * (length / 1e-2);
    return from_db(-loss_db);
  }

  /// Linear per-output factor of a 1-to-`fanout` broadcast tree built from
  /// 1x2 splitters: ideal 1/fanout split plus excess loss per stage.
  double broadcast_factor(std::size_t fanout) const {
    PCNNA_CHECK(fanout >= 1);
    if (fanout == 1) return 1.0;
    const double stages = std::ceil(std::log2(static_cast<double>(fanout)));
    const double excess = from_db(-config_.splitter_excess_loss_db * stages);
    return excess / static_cast<double>(fanout);
  }

 private:
  WaveguideConfig config_;
};

} // namespace pcnna::phot
