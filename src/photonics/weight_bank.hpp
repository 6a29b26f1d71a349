// Microring weight bank — the photonic MAC unit.
//
// One bank implements the dot product between the broadcast WDM input bundle
// and one kernel's weight vector (paper SS III / Fig. 1): every channel's
// power is split between a drop bus and the surviving through bus by its
// ring, and a balanced photodiode computes
//   I = R * (P_drop_total - P_through_total)
//     = R * sum_i P_i * w_i,      w_i in [-1, +1].
//
// Programming a weight means thermally detuning the ring so the Lorentzian
// drop fraction hits d_i = (w_i + t) / (1 + t) (t = through-path loss
// factor); tune() inverts the Lorentzian, applies the quantized heater
// drive, and optionally iterates to cancel inter-channel crosstalk;
// calibrate() is tune() followed by a read-back of the achieved weights.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "photonics/microring.hpp"
#include "photonics/optical_signal.hpp"
#include "photonics/photodiode.hpp"
#include "photonics/wdm.hpp"

namespace pcnna::phot {

struct WeightBankConfig {
  MicroringConfig ring;           ///< per-ring template (resonance set per channel)
  PhotodiodeConfig photodiode;
  bool model_crosstalk = true;    ///< rings also act on neighboring channels
  int calibration_iterations = 4; ///< fixed-point crosstalk-cancel passes

  void validate(const char* path) const; ///< calibration_iterations only
  friend bool operator==(const WeightBankConfig&,
                         const WeightBankConfig&) = default;
};

class WeightBank {
 public:
  /// Build one ring per grid channel. `rng` drives fabrication disorder.
  WeightBank(const WdmGrid& grid, WeightBankConfig config, Rng& rng);

  /// Rebuild this bank in place as the constructor would build it on
  /// `grid`: new rings drawn from `rng` in ascending channel order, parked
  /// at weight zero, none stuck. Reuses the capacity of the ring and target
  /// buffers, so it allocates nothing when `grid` is no wider than the
  /// widest grid this bank has held: a pool thread may refabricate a bank
  /// its calling thread built.
  void refabricate(const WdmGrid& grid, Rng& rng);

  /// Make room for `channels` rings, so that refabricating on a grid that
  /// wide allocates nothing.
  void reserve(std::size_t channels);

  std::size_t channels() const { return rings_.size(); }
  const WeightBankConfig& config() const { return config_; }
  const MicroringResonator& ring(std::size_t i) const { return rings_.at(i); }

  /// Largest weight the bank can represent (< 1 for max_drop < 1).
  double max_weight() const;
  /// Most negative weight the bank can represent (> -1 for finite detuning).
  double min_weight() const;

  /// Program the bank without reading the result back. `weights` must have
  /// one entry per channel, each in [-1, 1]; targets outside
  /// [min_weight(), max_weight()] are clamped. Each ring's heater drive is
  /// set from the inverted Lorentzian, then (with crosstalk modeled)
  /// calibration_iterations fixed-point passes nudge every ring by its
  /// measured weight error. Draws no random numbers and allocates nothing,
  /// so distinct banks may be tuned concurrently. Callers that snapshot the
  /// response anyway follow it with one channel_splits_into(): the achieved
  /// weight of channel i is splits[i].drop - splits[i].thru, bitwise what
  /// effective_weight(i) returns.
  void tune(std::span<const double> weights);

  /// tune(), then return the achieved effective weights (measured through
  /// the physical model, including tuning quantization and residual
  /// crosstalk).
  std::vector<double> calibrate(std::span<const double> weights);

  /// Weight targets from the last tune() call (after clamping).
  std::span<const double> target_weights() const { return targets_; }

  /// Measured effective weight of channel `ch` (unit-power probe):
  /// drop - thru of propagate() on a one-hot bundle, bit for bit.
  double effective_weight(std::size_t ch) const;

  /// Measured effective weights of all channels.
  std::vector<double> effective_weights() const;

  /// Per-channel linear response: fraction of a channel's input power that
  /// reaches the drop bus and the through bus (crosstalk included). The bank
  /// is linear in the input powers, so
  ///   P_drop  = sum_i in[i] * split[i].drop,
  ///   P_thru  = sum_i in[i] * split[i].thru.
  /// Callers on hot paths cache this after tune() instead of invoking the
  /// O(channels^2) propagate() per sample.
  struct ChannelSplit {
    double drop = 0.0;
    double thru = 0.0;
  };
  std::vector<ChannelSplit> channel_splits() const;

  /// Allocation-free variant for hot paths that snapshot bank responses
  /// after every recalibration (e.g. the engine's per-channel allocation,
  /// which retunes nc times per layer): writes the splits of all channels
  /// into `out`, which must have channels() entries. Identical values to
  /// channel_splits().
  void channel_splits_into(std::span<ChannelSplit> out) const;

  /// Split an input bundle into total drop-bus and through-bus power [W].
  /// With crosstalk modeling the bundle passes the rings sequentially.
  void propagate(const WdmSignal& in, double& drop_total,
                 double& through_total) const;

  /// Noiseless weighted power: sum_i P_i * w_eff_i [W-equivalent, signed].
  double ideal_weighted_power(const WdmSignal& in) const;

  /// Balanced-photodiode output for an input bundle: signed current [A],
  /// noise integrated over `bandwidth` (0 -> deterministic).
  double detect(const WdmSignal& in, double bandwidth, Rng& rng) const;

  /// Failure injection: freeze ring `i`'s heater at its current drive (see
  /// MicroringResonator::set_stuck). Subsequent calibrations cannot move it;
  /// the fixed-point refinement will still adjust the *other* rings around
  /// the fault.
  void fail_ring(std::size_t i, bool stuck = true);

  /// Number of rings currently stuck.
  std::size_t stuck_rings() const;

  /// Sum of heater powers across rings [W].
  double total_heater_power() const;

  /// Total ring footprint [m^2].
  double total_area() const;

 private:
  /// Solve drop fraction -> detuning and apply it to ring `i`.
  void apply_drop_target(std::size_t i, double drop_target);

  /// Pass power `p` on channel `c` down the bus and return `acc` with what
  /// the rings drop added to .drop and what survives the bus added to
  /// .thru: the per-channel body of propagate().
  ChannelSplit trace_channel(std::size_t c, double p, ChannelSplit acc) const;

  /// Splits of a unit-power probe on channel `ch` alone: propagate() of a
  /// one-hot bundle without building the bundle.
  ChannelSplit probe(std::size_t ch) const;

  WdmGrid grid_;
  WeightBankConfig config_;
  std::vector<MicroringResonator> rings_;
  std::vector<double> targets_;
  std::vector<double> drop_targets_;
  BalancedPhotodiode pd_;
  double through_loss_factor_; ///< per-ring through-path transmission
};

} // namespace pcnna::phot
