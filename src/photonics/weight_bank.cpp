#include "photonics/weight_bank.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/mathutil.hpp"

namespace pcnna::phot {

void WeightBankConfig::validate(const char* path) const {
  PCNNA_CHECK_FIELD(path, calibration_iterations, calibration_iterations >= 0,
                    ">= 0");
}

WeightBank::WeightBank(const WdmGrid& grid, WeightBankConfig config, Rng& rng)
    : grid_(grid),
      config_(config),
      pd_(config.photodiode),
      through_loss_factor_(from_db(-config.ring.insertion_loss_db)) {
  config.validate("bank");
  reserve(grid.channels());
  refabricate(grid, rng);
}

void WeightBank::refabricate(const WdmGrid& grid, Rng& rng) {
  grid_ = grid;
  rings_.clear();
  for (std::size_t i = 0; i < grid.channels(); ++i) {
    MicroringConfig ring_cfg = config_.ring;
    // Bias the design resonance blue of the channel so that the one-sided
    // (red) thermal tuning can always reach the channel even with worst-case
    // fabrication offsets.
    ring_cfg.design_wavelength =
        grid.wavelength(i) - 4.0 * config_.ring.fab_sigma;
    rings_.emplace_back(ring_cfg, rng);
  }
  targets_.assign(grid.channels(), 0.0);
  drop_targets_.assign(grid.channels(), 0.0);
  // Park every ring at weight zero.
  const double zero_drop = through_loss_factor_ / (1.0 + through_loss_factor_);
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    drop_targets_[i] = zero_drop;
    apply_drop_target(i, zero_drop);
  }
}

void WeightBank::reserve(std::size_t channels) {
  rings_.reserve(channels);
  targets_.reserve(channels);
  drop_targets_.reserve(channels);
}

double WeightBank::max_weight() const {
  const double t = through_loss_factor_;
  return config_.ring.max_drop * (1.0 + t) - t;
}

double WeightBank::min_weight() const {
  const double h = 0.5 * config_.ring.design_wavelength / config_.ring.q_factor;
  const double d = config_.ring.max_detuning;
  const double lorentz_far = (h * h) / (d * d + h * h);
  const double d_far = config_.ring.max_drop * lorentz_far;
  const double t = through_loss_factor_;
  return d_far * (1.0 + t) - t;
}

void WeightBank::apply_drop_target(std::size_t i, double drop_target) {
  MicroringResonator& ring = rings_[i];
  const double d_max = config_.ring.max_drop;
  // Keep strictly inside (0, d_max] so the Lorentzian inversion is finite.
  const double d = clamp(drop_target, 1e-9, d_max * (1.0 - 1e-12));
  const double h = 0.5 * ring.linewidth();
  double detuning = h * std::sqrt(d_max / d - 1.0);
  detuning = clamp(detuning, 0.0, config_.ring.max_detuning);
  // Park the resonance `detuning` red of the channel; the heater must also
  // make up the (blue-biased) natural-resonance offset.
  const double desired_resonance = grid_.wavelength(i) + detuning;
  const double shift = desired_resonance - ring.natural_resonance();
  ring.set_thermal_shift(shift);
}

void WeightBank::tune(std::span<const double> weights) {
  PCNNA_CHECK_MSG(weights.size() == rings_.size(),
                  "got " << weights.size() << " weights for " << rings_.size()
                         << " rings");
  const double w_lo = min_weight();
  const double w_hi = max_weight();
  const double t = through_loss_factor_;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    PCNNA_CHECK_MSG(std::abs(weights[i]) <= 1.0 + 1e-9,
                    "weight " << weights[i] << " outside [-1, 1]");
    targets_[i] = clamp(weights[i], w_lo, w_hi);
    drop_targets_[i] = (targets_[i] + t) / (1.0 + t);
    apply_drop_target(i, drop_targets_[i]);
  }
  if (config_.model_crosstalk) {
    // Fixed-point refinement: nudge each ring's drop target by the measured
    // weight error. Crosstalk tails are small, so this converges quickly.
    for (int iter = 0; iter < config_.calibration_iterations; ++iter) {
      for (std::size_t i = 0; i < rings_.size(); ++i) {
        const double err = targets_[i] - effective_weight(i);
        drop_targets_[i] =
            clamp(drop_targets_[i] + err / (1.0 + t), 1e-9, config_.ring.max_drop);
        apply_drop_target(i, drop_targets_[i]);
      }
    }
  }
}

std::vector<double> WeightBank::calibrate(std::span<const double> weights) {
  tune(weights);
  return effective_weights();
}

double WeightBank::effective_weight(std::size_t ch) const {
  PCNNA_CHECK(ch < rings_.size());
  const ChannelSplit split = probe(ch);
  return split.drop - split.thru;
}

std::vector<double> WeightBank::effective_weights() const {
  std::vector<double> out(rings_.size());
  for (std::size_t i = 0; i < rings_.size(); ++i) out[i] = effective_weight(i);
  return out;
}

std::vector<WeightBank::ChannelSplit> WeightBank::channel_splits() const {
  std::vector<ChannelSplit> splits(rings_.size());
  channel_splits_into(splits);
  return splits;
}

void WeightBank::channel_splits_into(std::span<ChannelSplit> out) const {
  PCNNA_CHECK_MSG(out.size() == rings_.size(),
                  "split buffer has " << out.size() << " entries, bank has "
                                      << rings_.size());
  for (std::size_t i = 0; i < rings_.size(); ++i) out[i] = probe(i);
}

WeightBank::ChannelSplit WeightBank::trace_channel(std::size_t c, double p,
                                                   ChannelSplit acc) const {
  const double lambda = grid_.wavelength(c);
  if (config_.model_crosstalk) {
    // The channel traverses every ring on the bus in order.
    for (const MicroringResonator& ring : rings_) {
      const double d = ring.drop_fraction(lambda);
      acc.drop += p * d;
      p *= through_loss_factor_ * (1.0 - d);
    }
  } else {
    // Idealized: only the channel's own ring interacts with it.
    const double d = rings_[c].drop_fraction(lambda);
    acc.drop += p * d;
    p *= through_loss_factor_ * (1.0 - d);
  }
  acc.thru += p;
  return acc;
}

WeightBank::ChannelSplit WeightBank::probe(std::size_t ch) const {
  // Zero-started accumulators, exactly as propagate() on a bundle whose
  // only nonzero channel is `ch`.
  return trace_channel(ch, 1.0, ChannelSplit{});
}

void WeightBank::propagate(const WdmSignal& in, double& drop_total,
                           double& through_total) const {
  PCNNA_CHECK_MSG(in.channels() == rings_.size(),
                  "signal has " << in.channels() << " channels, bank has "
                                << rings_.size());
  ChannelSplit acc;
  for (std::size_t c = 0; c < in.channels(); ++c) {
    if (in[c] <= 0.0) continue;
    acc = trace_channel(c, in[c], acc);
  }
  drop_total = acc.drop;
  through_total = acc.thru;
}

double WeightBank::ideal_weighted_power(const WdmSignal& in) const {
  double drop = 0.0, thru = 0.0;
  propagate(in, drop, thru);
  return drop - thru;
}

double WeightBank::detect(const WdmSignal& in, double bandwidth,
                          Rng& rng) const {
  double drop = 0.0, thru = 0.0;
  propagate(in, drop, thru);
  return pd_.detect(drop, thru, bandwidth, rng);
}

void WeightBank::fail_ring(std::size_t i, bool stuck) {
  PCNNA_CHECK(i < rings_.size());
  rings_[i].set_stuck(stuck);
}

std::size_t WeightBank::stuck_rings() const {
  std::size_t count = 0;
  for (const MicroringResonator& ring : rings_)
    if (ring.stuck()) ++count;
  return count;
}

double WeightBank::total_heater_power() const {
  double acc = 0.0;
  for (const MicroringResonator& ring : rings_) acc += ring.heater_power();
  return acc;
}

double WeightBank::total_area() const {
  double acc = 0.0;
  for (const MicroringResonator& ring : rings_) acc += ring.area();
  return acc;
}

} // namespace pcnna::phot
