#include "core/noise_budget.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/mathutil.hpp"
#include "common/units.hpp"
#include "core/optical_conv_engine.hpp"

namespace pcnna::core {

double NoiseBudget::total_mac_sigma() const {
  return std::sqrt(mac_sigma * mac_sigma +
                   adc_quantization_sigma * adc_quantization_sigma);
}

NoiseBudgetModel::NoiseBudgetModel(PcnnaConfig config, SignalStats stats)
    : config_(std::move(config)), stats_(stats) {
  config_.validate();
  PCNNA_CHECK(stats.x_rms > 0.0 && stats.w_rms > 0.0);
}

NoiseBudget NoiseBudgetModel::pass_budget(std::size_t channels_per_pass,
                                          std::size_t passes,
                                          std::size_t fanout,
                                          std::size_t n_kernel) const {
  PCNNA_CHECK(channels_per_pass > 0 && passes > 0 && fanout > 0);
  NoiseBudget b;

  // The engine's own signal chain constants.
  const OpticalConvEngine::AnalogChain chain =
      OpticalConvEngine::make_chain(config_, fanout);
  const double resp = chain.resp;
  b.denom_current = chain.denom_current;

  // Mean per-channel optical power arriving at the bank.
  const double p_ch =
      chain.p0 * chain.bcast * chain.mzm_loss *
      (chain.mzm_floor + (1.0 - chain.mzm_floor) * stats_.x_mean);
  const double p_total = static_cast<double>(channels_per_pass) * p_ch;
  // Zero-weight rings split the bundle evenly; on average half the power
  // lands on each branch.
  b.mean_branch_current = resp * 0.5 * p_total;

  const double bw = config_.enable_noise ? config_.fast_clock : 0.0;
  if (bw > 0.0) {
    // RIN: per-channel power fluctuation sigma_P = P_ch sqrt(rin * B); the
    // balanced detector weights channel i by w_i, so the variances add with
    // E[w^2].
    const double rin_linear = from_db(config_.laser.rin_db_per_hz);
    const double sigma_p = p_ch * std::sqrt(rin_linear * bw);
    b.sigma_rin = resp * sigma_p * stats_.w_rms *
                  std::sqrt(static_cast<double>(channels_per_pass));

    // Shot noise of both branches: var = 2 q I B summed over branches;
    // total branch current is R * P_total regardless of the split.
    if (config_.bank.photodiode.enable_shot_noise) {
      b.sigma_shot = std::sqrt(2.0 * units::q_e * resp * p_total * bw);
    }

    // Johnson noise, two independent branches.
    if (config_.bank.photodiode.enable_thermal_noise) {
      const double var_one = 4.0 * units::k_B *
                             config_.bank.photodiode.temperature * bw /
                             config_.bank.photodiode.load_resistance;
      b.sigma_thermal = std::sqrt(2.0 * var_one);
    }
  }
  b.sigma_pass = std::sqrt(b.sigma_rin * b.sigma_rin +
                           b.sigma_shot * b.sigma_shot +
                           b.sigma_thermal * b.sigma_thermal);

  // Passes accumulate independently (analog wire-sum or digital add).
  b.mac_sigma =
      b.sigma_pass * std::sqrt(static_cast<double>(passes)) / b.denom_current;

  // ADC quantization, using the same range calibration as the engine:
  // fs = headroom * sqrt(channels * E[x^2] * E[w^2]) per digitized value.
  if (config_.enable_quantization) {
    const double fs = std::max(
        1e-6, config_.adc_headroom *
                  std::sqrt(static_cast<double>(channels_per_pass) *
                            stats_.x_rms * stats_.x_rms * stats_.w_rms *
                            stats_.w_rms));
    const double levels =
        std::pow(2.0, static_cast<double>(config_.adc.bits)) - 1.0;
    const double lsb = 2.0 * fs / levels;
    // Per digitization lsb/sqrt(12); with digital accumulation across
    // passes the quantization errors also add in quadrature. (The analog
    // wire-sum case digitizes once; callers pass passes accordingly via the
    // layer_budget wrapper.)
    b.adc_quantization_sigma = lsb / std::sqrt(12.0);
  }

  b.mac_rms = std::sqrt(static_cast<double>(n_kernel)) * stats_.x_rms *
              stats_.w_rms;
  const double total = b.total_mac_sigma();
  b.snr_db = total > 0.0 ? 20.0 * std::log10(b.mac_rms / total) : 1e9;

  const double candidates[] = {b.sigma_rin, b.sigma_shot, b.sigma_thermal,
                               b.adc_quantization_sigma * b.denom_current};
  const char* names[] = {"RIN", "shot", "thermal", "ADC"};
  std::size_t best = 0;
  for (std::size_t i = 1; i < 4; ++i)
    if (candidates[i] > candidates[best]) best = i;
  b.dominant_source = names[best];
  return b;
}

NoiseBudget NoiseBudgetModel::layer_budget(
    const nn::ConvLayerParams& layer) const {
  layer.validate();
  const Scheduler scheduler(config_);
  const LayerPlan plan = scheduler.plan(layer);

  const std::size_t passes =
      config_.allocation == RingAllocation::kFullKernel
          ? plan.groups.size()
          : plan.groups.size() * layer.nc;
  NoiseBudget b = pass_budget(plan.group_size, passes, layer.K,
                              layer.kernel_size());
  b.layer_name = layer.name;

  // Per-channel allocation digitizes every pass: quantization noise adds in
  // quadrature across passes instead of once.
  if (config_.enable_quantization &&
      config_.allocation == RingAllocation::kPerChannel) {
    b.adc_quantization_sigma *= std::sqrt(static_cast<double>(passes));
    const double total = b.total_mac_sigma();
    b.snr_db = total > 0.0 ? 20.0 * std::log10(b.mac_rms / total) : 1e9;
  }
  return b;
}

} // namespace pcnna::core
