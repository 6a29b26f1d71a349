// FROZEN reference conv engine — verbatim snapshot of the pre-rewrite
// OpticalConvEngine conv2d path (see engine_reference.hpp). Do not optimize.
// Fabrication is the one exception to the snapshot: banks and the
// usable-range probe come from the chip stream (bank_fab), as in the
// engine, so both engines build the same chip.
#include "core/engine_reference.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/mathutil.hpp"
#include "electronics/adc.hpp"
#include "electronics/dac.hpp"
#include "nn/conv_ref.hpp"
#include "photonics/laser.hpp"
#include "photonics/modulator.hpp"
#include "photonics/waveguide.hpp"
#include "photonics/wdm.hpp"

namespace pcnna::core {
namespace {

/// Precomputed constants of the analog signal chain shared by every bank.
struct AnalogChain {
  double p0 = 0.0;        ///< laser CW power [W]
  double bcast = 1.0;     ///< broadcast-tree factor to one bank
  double mzm_loss = 1.0;  ///< MZM insertion-loss factor
  double mzm_floor = 0.0; ///< MZM extinction floor (transmission at x = 0)
  double resp = 1.0;      ///< photodiode responsivity [A/W]
  /// Current corresponding to one unit of normalized MAC:
  /// resp * p0 * bcast * mzm_loss * (1 - floor).
  double denom_current = 1.0;
  /// Per-channel power at x = 0 (extinction leakage) [W].
  double dark_power = 0.0;
};

AnalogChain make_chain(const PcnnaConfig& cfg, std::size_t fanout) {
  const phot::LaserDiode laser(cfg.laser);
  const phot::MachZehnderModulator mzm(cfg.mzm);
  const phot::Waveguide wg(cfg.waveguide);
  AnalogChain chain;
  chain.p0 = laser.cw_power();
  chain.bcast = wg.broadcast_factor(fanout);
  chain.mzm_loss = from_db(-cfg.mzm.insertion_loss_db);
  chain.mzm_floor = from_db(-cfg.mzm.extinction_ratio_db);
  chain.resp = cfg.bank.photodiode.responsivity;
  chain.denom_current = chain.resp * chain.p0 * chain.bcast * chain.mzm_loss *
                        (1.0 - chain.mzm_floor);
  chain.dark_power = chain.p0 * chain.bcast * chain.mzm_loss * chain.mzm_floor;
  return chain;
}

/// One calibrated bank segment, reduced to its linear response.
struct BankProgram {
  std::vector<phot::WeightBank::ChannelSplit> splits;
  double baseline_current = 0.0; ///< balanced current with all inputs at 0
  double heater_power = 0.0;
  double area = 0.0;
};

/// Quantize a signed weight in [-1, 1] through the kernel-weight DAC.
double quantize_weight(const elec::Dac& dac, double w) {
  return dac.convert((w + 1.0) / 2.0) * 2.0 - 1.0;
}

struct CalibrationError {
  double sum = 0.0;
  double max = 0.0;
  std::uint64_t count = 0;
  void add(double err) {
    sum += err;
    if (err > max) max = err;
    ++count;
  }
};

/// Failure injection: freeze each ring's heater at its parked drive with
/// the configured probability (PcnnaConfig::stuck_ring_rate).
void inject_faults(const PcnnaConfig& cfg, phot::WeightBank& bank, Rng& rng,
                   EngineStats& st) {
  if (cfg.stuck_ring_rate <= 0.0) return;
  for (std::size_t i = 0; i < bank.channels(); ++i) {
    if (rng.uniform() < cfg.stuck_ring_rate) {
      bank.fail_ring(i);
      ++st.stuck_rings;
    }
  }
}

/// ADC full scale for the normalized MAC values of a layer, in units of
/// sum_i x'_i * w'_i with x' in [0, 1] and |w'| <= 1.
double adc_full_scale(double headroom, std::size_t n_channels,
                      double mean_x_sq, double mean_w_sq) {
  const double variance =
      static_cast<double>(n_channels) * mean_x_sq * mean_w_sq;
  return std::max(1e-6, headroom * std::sqrt(variance));
}

/// Mean square of a range of values after dividing by `scale`.
template <typename Range>
double mean_square_scaled(const Range& values, double scale) {
  if (values.empty() || scale == 0.0) return 0.0;
  double acc = 0.0;
  for (double v : values) {
    const double x = v / scale;
    acc += x * x;
  }
  return acc / static_cast<double>(values.size());
}

/// Empirically measure the symmetric weight range a bank of `channels`
/// rings can represent.
double reference_usable_range(const PcnnaConfig& cfg, std::size_t channels,
                             Rng& rng) {
  PCNNA_CHECK(channels >= 1);
  const phot::WdmGrid grid(channels);
  phot::WeightBank bank(grid, cfg.bank, rng);
  const std::size_t mid = channels / 2;
  const std::vector<double> hi(channels, 1.0);
  bank.calibrate(hi);
  const double w_hi = bank.effective_weight(mid);
  const std::vector<double> lo(channels, -1.0);
  bank.calibrate(lo);
  const double w_lo = bank.effective_weight(mid);
  return std::min(w_hi, -w_lo);
}

} // namespace

ReferenceConvEngine::ReferenceConvEngine(PcnnaConfig config)
    : config_(std::move(config)), key_(config_.seed) {
  config_.validate();
}

nn::Tensor ReferenceConvEngine::conv2d(const nn::Tensor& input,
                                       const nn::Tensor& weights,
                                       const nn::Tensor& bias,
                                       std::size_t stride, std::size_t pad,
                                       EngineStats* stats) {
  return conv2d(key_, input, weights, bias, stride, pad, stats);
}

nn::Tensor ReferenceConvEngine::conv2d(std::uint64_t key,
                                       const nn::Tensor& input,
                                       const nn::Tensor& weights,
                                       const nn::Tensor& bias,
                                       std::size_t stride, std::size_t pad,
                                       EngineStats* stats) {
  PCNNA_CHECK_MSG(input.shape().n == 1, "batched inputs not supported");
  PCNNA_CHECK_MSG(input.shape().h == input.shape().w,
                  "PCNNA layers operate on square feature maps");
  if (!input.empty() && input.min() < 0.0) {
    PCNNA_CHECK_MSG(config_.dual_rail_inputs,
                    "photonic amplitude encoding requires non-negative inputs"
                    " (apply ReLU or normalize first, or enable"
                    " dual_rail_inputs)");
    nn::Tensor pos(input.shape()), neg(input.shape());
    for (std::size_t i = 0; i < input.size(); ++i) {
      pos[i] = std::max(0.0, input[i]);
      neg[i] = std::max(0.0, -input[i]);
    }
    EngineStats pos_stats, neg_stats;
    nn::Tensor out = conv2d(key, pos, weights, bias, stride, pad, &pos_stats);
    const nn::Tensor out_neg = conv2d(derive_seed(key, kNegativeRail), neg,
                                      weights, {}, stride, pad, &neg_stats);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] -= out_neg[i];
    if (stats) {
      *stats = pos_stats;
      stats->optical_passes += neg_stats.optical_passes;
      stats->dac_conversions += neg_stats.dac_conversions;
      stats->adc_conversions += neg_stats.adc_conversions;
      stats->banks_built += neg_stats.banks_built;
      stats->stuck_rings += neg_stats.stuck_rings;
    }
    return out;
  }
  PCNNA_CHECK(weights.shape().c == input.shape().c);
  PCNNA_CHECK(weights.shape().h == weights.shape().w);

  nn::ConvLayerParams params;
  params.name = "engine";
  params.n = input.shape().h;
  params.m = weights.shape().h;
  params.p = pad;
  params.s = stride;
  params.nc = input.shape().c;
  params.K = weights.shape().n;
  params.validate();

  const Scheduler scheduler(config_);
  const LayerPlan plan = scheduler.plan(params);

  EngineStats local;
  EngineStats& st = stats ? *stats : local;
  st = EngineStats{};
  st.locations = plan.locations;
  st.dac_conversions = plan.input_dac_conversions;
  st.weight_dac_conversions = plan.weight_dac_conversions;
  st.recalibrations = plan.recalibrations;
  st.rings_used = plan.rings_total;
  st.wavelengths_used = plan.group_size;

  nn::Tensor out = plan.allocation == RingAllocation::kFullKernel
                       ? run_full_kernel(plan, key, input, weights, bias, st)
                       : run_per_channel(plan, key, input, weights, bias, st);
  return out;
}

nn::Tensor ReferenceConvEngine::run_full_kernel(const LayerPlan& plan,
                                                std::uint64_t key,
                                                const nn::Tensor& input,
                                                const nn::Tensor& weights,
                                                const nn::Tensor& bias,
                                                EngineStats& stats) {
  const nn::ConvLayerParams& layer = plan.layer;
  const std::size_t K = layer.K;
  const std::size_t n_kernel = layer.kernel_size();
  const std::size_t side = layer.output_side();

  nn::Tensor out(nn::Shape4{1, K, side, side});

  const double x_scale = input.abs_max();
  const double w_absmax = weights.abs_max();
  if (x_scale == 0.0 || w_absmax == 0.0) {
    for (std::size_t k = 0; k < K; ++k) {
      const double b = bias.empty() ? 0.0 : bias.at(0, k, 0, 0);
      for (std::size_t l = 0; l < side * side; ++l) out[k * side * side + l] = b;
    }
    return out;
  }

  const AnalogChain chain = make_chain(config_, K);
  const phot::LaserDiode laser(config_.laser);
  const phot::MachZehnderModulator mzm(config_.mzm);
  const phot::BalancedPhotodiode pd(config_.bank.photodiode);
  const elec::Dac input_dac(config_.input_dac);
  const elec::Dac weight_dac(config_.weight_dac);
  elec::AdcConfig adc_cfg = config_.adc;
  adc_cfg.full_scale = 1.0;
  const elec::Adc adc(adc_cfg);

  Rng probe = bank_fab(config_.seed, kProbeBank).disorder;
  const double usable =
      reference_usable_range(config_, plan.group_size, probe);
  PCNNA_CHECK_MSG(usable > 0.0, "weight bank has no usable signed range");
  const double denom = 0.95 * usable;
  const double recover = x_scale * w_absmax / denom;

  // --- Program every bank segment once (weights are fixed for the layer).
  CalibrationError cal_err;
  std::vector<std::vector<BankProgram>> programs(plan.groups.size());
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    const GroupSlice& slice = plan.groups[g];
    const phot::WdmGrid grid(slice.size());
    programs[g].reserve(K);
    for (std::size_t k = 0; k < K; ++k) {
      BankFab fab = bank_fab(config_.seed, g * K + k);
      phot::WeightBank bank(grid, config_.bank, fab.disorder);
      inject_faults(config_, bank, fab.stuck, stats);
      std::vector<double> targets(slice.size());
      for (std::uint64_t i = 0; i < slice.size(); ++i) {
        double w = weights[k * n_kernel + slice.begin + i] / w_absmax * denom;
        if (config_.enable_quantization) w = quantize_weight(weight_dac, w);
        targets[i] = w;
      }
      const std::vector<double> achieved = bank.calibrate(targets);
      for (std::uint64_t i = 0; i < slice.size(); ++i)
        cal_err.add(std::abs(achieved[i] - targets[i]));

      BankProgram prog;
      prog.splits = bank.channel_splits();
      double base = 0.0;
      for (const auto& split : prog.splits)
        base += chain.dark_power * (split.drop - split.thru);
      prog.baseline_current = chain.resp * base;
      prog.heater_power = bank.total_heater_power();
      prog.area = bank.total_area();
      programs[g].push_back(std::move(prog));

      ++stats.banks_built;
      stats.total_heater_power += prog.heater_power;
      stats.total_ring_area += prog.area;
    }
  }

  const double bw = config_.enable_noise ? config_.fast_clock : 0.0;
  const double mean_w_sq =
      mean_square_scaled(weights.data(), w_absmax) * denom * denom;
  const double mean_x_sq = mean_square_scaled(input.data(), x_scale);
  const double adc_fs =
      adc_full_scale(config_.adc_headroom, n_kernel, mean_x_sq, mean_w_sq);

  std::vector<double> x_norm(n_kernel);
  std::vector<double> powers;
  std::vector<double> acc(K);

  // --- Sequential kernel locations; all K banks in parallel per location.
  for (std::size_t oy = 0; oy < side; ++oy) {
    for (std::size_t ox = 0; ox < side; ++ox) {
      Rng rng = pixel_noise(key, 0, oy * side + ox);
      const std::vector<double> field =
          nn::receptive_field(input, layer.m, layer.s, layer.p, oy, ox);
      for (std::size_t i = 0; i < n_kernel; ++i) {
        double x = field[i] / x_scale;
        if (config_.enable_quantization) x = input_dac.convert(x);
        x_norm[i] = x;
      }
      std::fill(acc.begin(), acc.end(), 0.0);

      for (std::size_t g = 0; g < plan.groups.size(); ++g) {
        const GroupSlice& slice = plan.groups[g];
        powers.resize(slice.size());
        for (std::uint64_t i = 0; i < slice.size(); ++i) {
          const double p_src = laser.emit(bw, rng) * chain.bcast;
          powers[i] = mzm.modulate(p_src, x_norm[slice.begin + i]);
        }
        for (std::size_t k = 0; k < K; ++k) {
          const BankProgram& prog = programs[g][k];
          double p_drop = 0.0, p_thru = 0.0;
          for (std::uint64_t i = 0; i < slice.size(); ++i) {
            p_drop += powers[i] * prog.splits[i].drop;
            p_thru += powers[i] * prog.splits[i].thru;
          }
          const double current = pd.detect(p_drop, p_thru, bw, rng);
          acc[k] += (current - prog.baseline_current) / chain.denom_current;
        }
        ++stats.optical_passes;
      }

      for (std::size_t k = 0; k < K; ++k) {
        double v = acc[k];
        if (config_.enable_quantization) v = adc.convert(v / adc_fs) * adc_fs;
        ++stats.adc_conversions;
        const double b = bias.empty() ? 0.0 : bias.at(0, k, 0, 0);
        out.at(0, k, oy, ox) = v * recover + b;
      }
    }
  }

  if (cal_err.count > 0) {
    stats.mean_calibration_error = cal_err.sum / static_cast<double>(cal_err.count);
    stats.max_calibration_error = cal_err.max;
  }
  return out;
}

nn::Tensor ReferenceConvEngine::run_per_channel(const LayerPlan& plan,
                                                std::uint64_t key,
                                                const nn::Tensor& input,
                                                const nn::Tensor& weights,
                                                const nn::Tensor& bias,
                                                EngineStats& stats) {
  const nn::ConvLayerParams& layer = plan.layer;
  const std::size_t K = layer.K;
  const std::size_t per_channel = layer.m * layer.m;
  const std::size_t n_kernel = layer.kernel_size();
  const std::size_t side = layer.output_side();

  nn::Tensor out(nn::Shape4{1, K, side, side});

  const double x_scale = input.abs_max();
  const double w_absmax = weights.abs_max();
  if (x_scale == 0.0 || w_absmax == 0.0) {
    for (std::size_t k = 0; k < K; ++k) {
      const double b = bias.empty() ? 0.0 : bias.at(0, k, 0, 0);
      for (std::size_t l = 0; l < side * side; ++l) out[k * side * side + l] = b;
    }
    return out;
  }

  const AnalogChain chain = make_chain(config_, K);
  const phot::LaserDiode laser(config_.laser);
  const phot::MachZehnderModulator mzm(config_.mzm);
  const phot::BalancedPhotodiode pd(config_.bank.photodiode);
  const elec::Dac input_dac(config_.input_dac);
  const elec::Dac weight_dac(config_.weight_dac);
  elec::AdcConfig adc_cfg = config_.adc;
  adc_cfg.full_scale = 1.0;
  const elec::Adc adc(adc_cfg);

  Rng probe = bank_fab(config_.seed, kProbeBank).disorder;
  const double usable =
      reference_usable_range(config_, plan.group_size, probe);
  PCNNA_CHECK_MSG(usable > 0.0, "weight bank has no usable signed range");
  const double denom = 0.95 * usable;
  const double recover = x_scale * w_absmax / denom;

  std::vector<std::vector<phot::WeightBank>> banks(plan.groups.size());
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    const phot::WdmGrid grid(plan.groups[g].size());
    banks[g].reserve(K);
    for (std::size_t k = 0; k < K; ++k) {
      BankFab fab = bank_fab(config_.seed, g * K + k);
      banks[g].emplace_back(grid, config_.bank, fab.disorder);
      inject_faults(config_, banks[g].back(), fab.stuck, stats);
      ++stats.banks_built;
      stats.total_ring_area += banks[g].back().total_area();
    }
  }

  const double bw = config_.enable_noise ? config_.fast_clock : 0.0;
  const double mean_w_sq =
      mean_square_scaled(weights.data(), w_absmax) * denom * denom;
  const double mean_x_sq = mean_square_scaled(input.data(), x_scale);
  const double adc_fs =
      adc_full_scale(config_.adc_headroom, per_channel, mean_x_sq, mean_w_sq);

  CalibrationError cal_err;
  std::vector<std::vector<BankProgram>> programs(
      plan.groups.size(), std::vector<BankProgram>(K));
  std::vector<double> x_norm(per_channel);
  std::vector<double> powers;

  // Channel-major execution: retune, then sweep all locations.
  for (std::size_t c = 0; c < layer.nc; ++c) {
    for (std::size_t g = 0; g < plan.groups.size(); ++g) {
      const GroupSlice& slice = plan.groups[g];
      for (std::size_t k = 0; k < K; ++k) {
        std::vector<double> targets(slice.size());
        for (std::uint64_t i = 0; i < slice.size(); ++i) {
          double w = weights[k * n_kernel + c * per_channel + slice.begin + i] /
                     w_absmax * denom;
          if (config_.enable_quantization) w = quantize_weight(weight_dac, w);
          targets[i] = w;
        }
        const std::vector<double> achieved = banks[g][k].calibrate(targets);
        for (std::uint64_t i = 0; i < slice.size(); ++i)
          cal_err.add(std::abs(achieved[i] - targets[i]));

        BankProgram& prog = programs[g][k];
        prog.splits = banks[g][k].channel_splits();
        double base = 0.0;
        for (const auto& split : prog.splits)
          base += chain.dark_power * (split.drop - split.thru);
        prog.baseline_current = chain.resp * base;
      }
    }

    for (std::size_t oy = 0; oy < side; ++oy) {
      for (std::size_t ox = 0; ox < side; ++ox) {
        Rng rng = pixel_noise(key, c, oy * side + ox);
        const std::vector<double> field =
            nn::receptive_field(input, layer.m, layer.s, layer.p, oy, ox);
        for (std::size_t i = 0; i < per_channel; ++i) {
          double x = field[c * per_channel + i] / x_scale;
          if (config_.enable_quantization) x = input_dac.convert(x);
          x_norm[i] = x;
        }
        for (std::size_t g = 0; g < plan.groups.size(); ++g) {
          const GroupSlice& slice = plan.groups[g];
          powers.resize(slice.size());
          for (std::uint64_t i = 0; i < slice.size(); ++i) {
            const double p_src = laser.emit(bw, rng) * chain.bcast;
            powers[i] = mzm.modulate(p_src, x_norm[slice.begin + i]);
          }
          for (std::size_t k = 0; k < K; ++k) {
            const BankProgram& prog = programs[g][k];
            double p_drop = 0.0, p_thru = 0.0;
            for (std::uint64_t i = 0; i < slice.size(); ++i) {
              p_drop += powers[i] * prog.splits[i].drop;
              p_thru += powers[i] * prog.splits[i].thru;
            }
            const double current = pd.detect(p_drop, p_thru, bw, rng);
            double v = (current - prog.baseline_current) / chain.denom_current;
            if (config_.enable_quantization)
              v = adc.convert(v / adc_fs) * adc_fs;
            ++stats.adc_conversions;
            out.at(0, k, oy, ox) += v;
          }
          ++stats.optical_passes;
        }
      }
    }
  }

  for (std::size_t k = 0; k < K; ++k) {
    const double b = bias.empty() ? 0.0 : bias.at(0, k, 0, 0);
    for (std::size_t oy = 0; oy < side; ++oy)
      for (std::size_t ox = 0; ox < side; ++ox)
        out.at(0, k, oy, ox) = out.at(0, k, oy, ox) * recover + b;
  }

  for (const auto& group : banks)
    for (const auto& bank : group)
      stats.total_heater_power += bank.total_heater_power();

  if (cal_err.count > 0) {
    stats.mean_calibration_error = cal_err.sum / static_cast<double>(cal_err.count);
    stats.max_calibration_error = cal_err.max;
  }
  return out;
}

} // namespace pcnna::core
