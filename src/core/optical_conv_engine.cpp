#include "core/optical_conv_engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/mathutil.hpp"
#include "electronics/adc.hpp"
#include "electronics/dac.hpp"
#include "photonics/laser.hpp"
#include "photonics/modulator.hpp"
#include "photonics/waveguide.hpp"
#include "photonics/wdm.hpp"

// Hot-path bit-identity contract
// ------------------------------
// Every value this file computes must stay bit-identical to the frozen
// pre-rewrite engine (engine_reference.cpp): the serving runtime's
// request-level reproducibility guarantees are built on engine outputs, so
// the rewrite hoists and restructures but never reassociates. Concretely:
//
//  * per-element math (normalize, DAC quantize, MZM transfer) is hoisted
//    out of the pixel loops into per-layer tables — legal because they are
//    pure functions of the input element, evaluated with the identical
//    expressions;
//  * each per-bank dot product accumulates channel-ascending with += ,
//    exactly like the reference — the loop interchange to K independent
//    accumulation chains changes the schedule, never the per-accumulator
//    addition order;
//  * RNG draw order is pinned: all setup draws (measured_usable_range, then
//    bank fabrication and inject_stuck_faults on the first pass) happen
//    sequentially in construction order, a layer whose input or weights are
//    all zero draws nothing, and hot-loop draws (laser RIN, photodiode noise)
//    take the values of sequential pixel order — when engine_threads > 1
//    each pixel tile draws from its own generator, skipped ahead on the
//    calling thread to the tile's first draw (Rng::discard_normals leaves
//    the state bitwise where that many normal() calls would), and the
//    engine generator continues from the last tile's final state. This
//    needs a per-pixel draw count that does not depend on the data
//    (pd_draws_per_branch); otherwise the sweep stays on one thread;
//  * bank tuning draws nothing, so it alone fans out during setup; its sums
//    (calibration error, heater power, ring area) are reduced afterwards on
//    the calling thread in the sequential (g, k, ring) order, the
//    calibration error pass by pass;
//  * run_conv programs the first pass before it reads the ADC statistics
//    and builds the transfer table, patch map and worker scratch. That
//    order changes no value; it is kept because building the tables before
//    programming measured slower on perfbench's widefm_2x2 (ROADMAP).
namespace pcnna::core {

OpticalConvEngine::AnalogChain OpticalConvEngine::make_chain(
    const PcnnaConfig& cfg, std::size_t fanout) {
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

namespace {

using AnalogChain = OpticalConvEngine::AnalogChain;

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

/// Electronic scaling of one layer: inputs are normalized to [0, 1] and
/// weights to the bank's representable range; `recover` undoes the product
/// after detection.
struct LayerScale {
  double x_scale = 1.0;  ///< largest |input|
  double w_absmax = 1.0; ///< largest |weight|
  double denom = 1.0;    ///< bank weight that stands for |w| == w_absmax
  double recover = 1.0;  ///< x_scale * w_absmax / denom

  /// ADC full scale for partial sums of `channels` normalized products, in
  /// units of sum_i x'_i * w'_i with x' in [0, 1] and |w'| <= denom.
  ///
  /// A real deployment programs the back-end gain per layer from known
  /// weight and input statistics (the weights are on-chip already and the
  /// input buffer is observable); we model that range calibration as
  ///   fs = headroom * sqrt(N * E[x'^2] * E[w'^2]),
  /// i.e. `headroom` standard deviations of the zero-mean random-sum model.
  double adc_full_scale(double headroom, std::size_t channels,
                        const nn::Tensor& input,
                        const nn::Tensor& weights) const {
    const double mean_w_sq =
        mean_square_scaled(weights.data(), w_absmax) * denom * denom;
    const double mean_x_sq = mean_square_scaled(input.data(), x_scale);
    const double variance =
        static_cast<double>(channels) * mean_x_sq * mean_w_sq;
    return std::max(1e-6, headroom * std::sqrt(variance));
  }
};

/// Scale a layer, probing the usable weight range with a scratch bank of
/// `probe_channels` rings. Returns nullopt, having drawn nothing, when the
/// input or the weights are all zero: such a layer outputs its bias alone.
std::optional<LayerScale> scale_layer(const PcnnaConfig& cfg,
                                      const nn::Tensor& input,
                                      const nn::Tensor& weights,
                                      std::size_t probe_channels, Rng& rng) {
  LayerScale s;
  s.x_scale = input.abs_max();
  s.w_absmax = weights.abs_max();
  if (s.x_scale == 0.0 || s.w_absmax == 0.0) return std::nullopt;
  const double usable = measured_usable_range(cfg, probe_channels, rng);
  PCNNA_CHECK_MSG(usable > 0.0, "weight bank has no usable signed range");
  s.denom = 0.95 * usable;
  s.recover = s.x_scale * s.w_absmax / s.denom;
  return s;
}

/// Output of a layer that scale_layer found all zero: every location of
/// output channel k reads bias k, or zero without a bias.
nn::Tensor bias_only(const nn::Shape4& shape, const nn::Tensor& bias) {
  nn::Tensor out(shape);
  if (bias.empty()) return out;
  const std::size_t pixels = shape.h * shape.w;
  for (std::size_t k = 0; k < shape.c; ++k)
    std::fill_n(out.data().data() + k * pixels, pixels, bias[k]);
  return out;
}

// --- noise sources -------------------------------------------------------
// The hot loop consumes standard normals through one of these.

/// Noisy path: draw from a generator inline (Rng::normal(mean, sigma) is
/// mean + sigma * Rng::normal(), the reference behavior).
struct RngNormalSource {
  Rng* rng;
  double next() { return rng->normal(); }
};

/// Noise-free path: never called (kNoise == false elides all call sites).
struct NullNormalSource {
  double next() { return 0.0; }
};

/// Replicates BalancedPhotodiode::detect bit for bit while sourcing the
/// standard normals from `src`: each branch computes its ideal current,
/// then adds sigma * z when its noise sigma is nonzero (plus branch first —
/// the draw order the sequential engine produces).
template <bool kNoise, typename Source>
inline double detect_balanced(const phot::BalancedPhotodiode& pd,
                              double p_drop, double p_thru, double bw,
                              Source& src) {
  double cur_p = pd.plus_branch().ideal_current(p_drop);
  double cur_m = pd.minus_branch().ideal_current(p_thru);
  if constexpr (kNoise) {
    const double sp = pd.plus_branch().noise_sigma(cur_p, bw);
    if (sp != 0.0) cur_p = cur_p + sp * src.next();
    const double sm = pd.minus_branch().noise_sigma(cur_m, bw);
    if (sm != 0.0) cur_m = cur_m + sm * src.next();
  }
  return cur_p - cur_m;
}

/// Normals one balanced-detect branch draws per sample at bandwidth `bw`,
/// or nullopt when that count depends on the data. A fixed count is the
/// precondition for splitting the noisy sweep into tiles, because a tile's
/// generator is positioned by skipping the draws of the tiles before it.
/// A branch current is never below dark_current (responsivity > 0 and
/// power >= 0), and sigma never decreases as |current| grows, so:
///  * sigma(dark_current) > 0: every sample draws one normal;
///  * sigma(dark_current) == 0 with shot noise off: sigma is zero at every
///    current (no bandwidth, no noise source, or thermal noise into an
///    infinite load), so no sample draws;
///  * sigma(dark_current) == 0 with shot noise on: sigma is zero exactly
///    when the current is, so the count depends on the data.
std::optional<std::size_t> pd_draws_per_branch(const phot::Photodiode& pd,
                                               double bw) {
  if (pd.noise_sigma(pd.config().dark_current, bw) > 0.0) return 1;
  if (bw <= 0.0 || !pd.config().enable_shot_noise) return 0;
  return std::nullopt;
}

/// Per-layer constants of one pixel sweep, shared read-only by all workers.
struct SweepCtx {
  const GroupSlice* groups = nullptr;
  std::size_t n_groups = 0;
  const double* transfer = nullptr;
  double transfer_pad = 0.0;
  const std::int32_t* patch = nullptr;
  std::size_t n_kernel = 0;   ///< patch row stride
  std::size_t patch_offset = 0; ///< pass * pass width
  const double* drop_t = nullptr;
  const double* thru_t = nullptr;
  const double* baseline = nullptr;
  const std::size_t* group_base = nullptr;
  std::size_t K = 0;
  std::size_t pixels = 0;
  double bcast = 1.0;
  double laser_mean = 0.0;
  double laser_sigma = 0.0;
  double p_src0 = 0.0; ///< noise-free modulated source power (p0 * bcast)
  const phot::BalancedPhotodiode* pd = nullptr;
  double bw = 0.0;
  double denom_current = 1.0;
  bool quantize = false;
  const elec::Adc* adc = nullptr;
  double adc_fs = 1.0;
  double recover = 1.0;
  const double* bias = nullptr; ///< null when the layer has no bias
  double* out = nullptr;
  /// Full-kernel: analog wire-sum across groups, one ADC sample per kernel
  /// (false). Per-channel: every group of every pass is digitized and
  /// accumulated into `out` electronically (true).
  bool accumulate = false;
};

/// Inner MAC step: rank-1 update of the K drop/through accumulators with
/// one channel's power. The __restrict qualifiers let the compiler
/// vectorize across the K independent chains — legal bitwise because each
/// chain's addition order is untouched (lanes are distinct accumulators).
inline void mac_update(std::size_t K, double pw, const double* __restrict dr,
                       const double* __restrict th, double* __restrict dacc,
                       double* __restrict tacc) {
  for (std::size_t k = 0; k < K; ++k) {
    dacc[k] += pw * dr[k];
    tacc[k] += pw * th[k];
  }
}

/// One kernel location: modulate the receptive field, run all K banks, and
/// digitize. Identical value/draw sequence to the reference engine's
/// per-pixel body.
template <bool kNoise, typename Source>
void conv_pixel(const SweepCtx& c, std::size_t p, Source& src,
                EngineScratch::Worker& wk) {
  const std::int32_t* prow = c.patch + p * c.n_kernel + c.patch_offset;
  double* powers = wk.powers.data();
  double* dacc = wk.drop_acc.data();
  double* tacc = wk.thru_acc.data();
  double* acc = wk.acc.data();
  if (!c.accumulate) std::fill(acc, acc + c.K, 0.0);

  for (std::size_t g = 0; g < c.n_groups; ++g) {
    const GroupSlice& slice = c.groups[g];
    const std::size_t width = slice.size();
    // Modulate this group's input slice through the precomputed transfer
    // table (gather via the im2col patch map).
    for (std::size_t i = 0; i < width; ++i) {
      const std::int32_t idx = prow[slice.begin + i];
      const double tf = idx >= 0 ? c.transfer[idx] : c.transfer_pad;
      if constexpr (kNoise) {
        const double emit =
            std::max(0.0, c.laser_mean + c.laser_sigma * src.next());
        powers[i] = emit * c.bcast * tf;
      } else {
        powers[i] = c.p_src0 * tf;
      }
    }

    // Branch-free MAC: K independent drop/through accumulation chains over
    // the transposed bank responses; each chain adds channel-ascending,
    // exactly like the reference inner loop.
    std::fill(dacc, dacc + c.K, 0.0);
    std::fill(tacc, tacc + c.K, 0.0);
    const double* drop = c.drop_t + c.group_base[g];
    const double* thru = c.thru_t + c.group_base[g];
    for (std::size_t i = 0; i < width; ++i)
      mac_update(c.K, powers[i], drop + i * c.K, thru + i * c.K, dacc, tacc);

    const double* base = c.baseline + g * c.K;
    if (!c.accumulate) {
      for (std::size_t k = 0; k < c.K; ++k) {
        const double current =
            detect_balanced<kNoise>(*c.pd, dacc[k], tacc[k], c.bw, src);
        acc[k] += (current - base[k]) / c.denom_current;
      }
    } else {
      // Per-channel partial sums are digitized every pass and accumulated
      // electronically.
      for (std::size_t k = 0; k < c.K; ++k) {
        const double current =
            detect_balanced<kNoise>(*c.pd, dacc[k], tacc[k], c.bw, src);
        double v = (current - base[k]) / c.denom_current;
        if (c.quantize) v = c.adc->convert(v / c.adc_fs) * c.adc_fs;
        ++wk.adc_conversions;
        c.out[k * c.pixels + p] += v;
      }
    }
    ++wk.optical_passes;
  }

  if (!c.accumulate) {
    // Segment currents wire-sum in analog; one ADC sample per kernel.
    for (std::size_t k = 0; k < c.K; ++k) {
      double v = acc[k];
      if (c.quantize) v = c.adc->convert(v / c.adc_fs) * c.adc_fs;
      ++wk.adc_conversions;
      const double b = c.bias ? c.bias[k] : 0.0;
      c.out[k * c.pixels + p] = v * c.recover + b;
    }
  }
}

/// Drive conv_pixel over all kernel locations, in fixed contiguous pixel
/// tiles (one per worker; a single worker runs on the calling thread).
/// With noise, tile w draws from its own generator, positioned at the first
/// draw its pixels make in sequential order; `rng` ends where the last tile
/// stops, as if one thread had swept every pixel.
void sweep_pixels(const SweepCtx& ctx, std::size_t workers,
                  std::size_t draws_per_pixel, Rng& rng,
                  EngineScratch& scratch, ThreadPool* pool) {
  const std::size_t pixels = ctx.pixels;
  const auto chunk = [&](std::size_t w) {
    return ThreadPool::chunk_begin(pixels, w, workers);
  };
  // The pool may hold more threads than this layer's effective worker
  // count (small output maps clamp it); surplus workers no-op.
  const auto fan_out = [&](const auto& tile) {
    if (workers == 1) {
      tile(0);
    } else {
      pool->run(tile);
    }
  };

  if (ctx.bw == 0.0) {
    fan_out([&](std::size_t w) {
      if (w >= workers) return;
      NullNormalSource src;
      EngineScratch::Worker& wk = scratch.workers[w];
      for (std::size_t p = chunk(w); p < chunk(w + 1); ++p)
        conv_pixel<false>(ctx, p, src, wk);
    });
    return;
  }

  // Skipping ahead is the only serial noise work: two xoshiro steps per
  // pair of draws, against a Box–Muller transform per pair on the workers.
  scratch.tile_rng.resize(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    if (w > 0)
      rng.discard_normals((chunk(w) - chunk(w - 1)) * draws_per_pixel);
    scratch.tile_rng[w] = rng;
  }
  fan_out([&](std::size_t w) {
    if (w >= workers) return;
    // Draw from a copy on this worker's stack: adjacent tile_rng entries
    // share a cache line, and drawing in place would bounce it.
    Rng local = scratch.tile_rng[w];
    RngNormalSource src{&local};
    EngineScratch::Worker& wk = scratch.workers[w];
    for (std::size_t p = chunk(w); p < chunk(w + 1); ++p)
      conv_pixel<true>(ctx, p, src, wk);
    scratch.tile_rng[w] = local;
  });
  rng = scratch.tile_rng[workers - 1];
}

/// Size the transposed SoA program arrays for one layer plan (K response
/// chains per group slice).
void size_bank_soa(const LayerPlan& plan, EngineScratch& s) {
  const std::size_t K = plan.layer.K;
  const std::size_t G = plan.groups.size();
  s.group_base.assign(G + 1, 0);
  for (std::size_t g = 0; g < G; ++g)
    s.group_base[g + 1] = s.group_base[g] + plan.groups[g].size() * K;
  s.drop_t.assign(s.group_base[G], 0.0);
  s.thru_t.assign(s.group_base[G], 0.0);
  s.baseline.assign(G * K, 0.0);
}

/// Banks each bank-programming worker tunes per batch under the full-kernel
/// allocation. Bounds how many fabricated banks a layer holds at once (c5
/// of LeNet-5 has 600 banks of 80 rings) while keeping the fork/join cost
/// small against a bank's calibration.
constexpr std::size_t kBanksPerWorker = 4;

/// Per-layer constants of bank programming, shared read-only by all
/// workers. Bank b of a layer is group b / K, kernel b % K.
struct ProgramCtx {
  const LayerPlan* plan = nullptr;
  const nn::Tensor* weights = nullptr;
  std::size_t channel_offset = 0; ///< pass * pass width
  double w_absmax = 1.0;
  double denom = 1.0;
  bool quantize = false;
  const elec::Dac* weight_dac = nullptr;
  const AnalogChain* chain = nullptr;
};

/// Tune bank b to its weight slice and flatten the response into the
/// transposed SoA arrays, with one probe sweep. Stages the bank's targets
/// and splits in its own rows `targets`/`splits` (width entries each).
/// Writes only bank b's rows and SoA entries, so it is safe to run
/// concurrently for distinct banks. Identical value sequence to the
/// reference engine's per-bank programming block.
void program_bank_soa(phot::WeightBank& bank, std::size_t b,
                      const ProgramCtx& c, double* targets,
                      phot::WeightBank::ChannelSplit* splits,
                      EngineScratch& s) {
  const std::size_t K = c.plan->layer.K;
  const std::size_t g = b / K;
  const std::size_t k = b % K;
  const GroupSlice& slice = c.plan->groups[g];
  const std::size_t width = slice.size();
  const std::size_t n_kernel = c.plan->layer.kernel_size();
  const nn::Tensor& weights = *c.weights;

  for (std::size_t i = 0; i < width; ++i) {
    double w = weights[k * n_kernel + c.channel_offset + slice.begin + i] /
               c.w_absmax * c.denom;
    if (c.quantize) w = quantize_weight(*c.weight_dac, w);
    targets[i] = w;
  }
  bank.tune(std::span<const double>(targets, width));

  bank.channel_splits_into(std::span(splits, width));
  double base = 0.0;
  for (std::size_t i = 0; i < width; ++i)
    base += c.chain->dark_power * (splits[i].drop - splits[i].thru);
  s.baseline[g * K + k] = c.chain->resp * base;
  const std::size_t gb = s.group_base[g];
  for (std::size_t i = 0; i < width; ++i) {
    s.drop_t[gb + i * K + k] = splits[i].drop;
    s.thru_t[gb + i * K + k] = splits[i].thru;
  }
}

/// Program banks[j] as bank first + j of the layer across `workers`
/// workers (contiguous ThreadPool::chunk_begin ranges), then fold the
/// calibration errors into `cal_err` on the calling thread in (bank, ring)
/// order. The achieved weight of ring i is split.drop - split.thru,
/// bitwise what calibrate() returns. Tuning draws no random numbers and
/// every bank writes disjoint rows and SoA entries, so the result is
/// bitwise independent of `workers`. The staging is sized here, before the
/// fan-out, so pool threads never allocate.
void program_banks(std::span<phot::WeightBank> banks, std::size_t first,
                   const ProgramCtx& ctx, std::size_t workers,
                   ThreadPool* pool, EngineScratch& s,
                   CalibrationError& cal_err) {
  const std::size_t n = banks.size();
  const std::size_t stride = ctx.plan->group_size;
  s.targets.resize(n * stride);
  s.splits.resize(n * stride);

  auto range = [&](std::size_t w) {
    if (w >= workers) return; // pool wider than this layer's bank count
    for (std::size_t j = ThreadPool::chunk_begin(n, w, workers);
         j < ThreadPool::chunk_begin(n, w + 1, workers); ++j)
      program_bank_soa(banks[j], first + j, ctx, &s.targets[j * stride],
                       &s.splits[j * stride], s);
  };
  if (workers == 1) {
    range(0);
  } else {
    pool->run(range);
  }

  const std::size_t K = ctx.plan->layer.K;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t width = ctx.plan->groups[(first + j) / K].size();
    for (std::size_t i = j * stride; i < j * stride + width; ++i)
      cal_err.add(std::abs((s.splits[i].drop - s.splits[i].thru) -
                           s.targets[i]));
  }
}

/// Fill the read-only sweep context from already-sized scratch. The single
/// home of the laser-RIN sigma expression (must mirror LaserDiode::emit
/// bit for bit).
SweepCtx make_sweep_ctx(const LayerPlan& plan, const PcnnaConfig& cfg,
                        const AnalogChain& chain,
                        const phot::BalancedPhotodiode& pd,
                        const elec::Adc& adc, double bw, double adc_fs,
                        double recover, bool accumulate,
                        const nn::Tensor& bias, nn::Tensor& out,
                        EngineScratch& s) {
  SweepCtx ctx;
  ctx.groups = plan.groups.data();
  ctx.n_groups = plan.groups.size();
  ctx.transfer = s.transfer.data();
  ctx.transfer_pad = s.transfer_pad;
  ctx.patch = s.patch.data();
  ctx.n_kernel = plan.layer.kernel_size();
  ctx.drop_t = s.drop_t.data();
  ctx.thru_t = s.thru_t.data();
  ctx.baseline = s.baseline.data();
  ctx.group_base = s.group_base.data();
  ctx.K = plan.layer.K;
  const std::size_t side = plan.layer.output_side();
  ctx.pixels = side * side;
  ctx.bcast = chain.bcast;
  ctx.laser_mean = chain.p0;
  ctx.laser_sigma =
      bw > 0.0 ? chain.p0 * std::sqrt(from_db(cfg.laser.rin_db_per_hz) * bw)
               : 0.0;
  ctx.p_src0 = chain.p0 * chain.bcast;
  ctx.pd = &pd;
  ctx.bw = bw;
  ctx.denom_current = chain.denom_current;
  ctx.quantize = cfg.enable_quantization;
  ctx.adc = &adc;
  ctx.adc_fs = adc_fs;
  ctx.recover = recover;
  // Per-channel passes (accumulate) add the bias during the final rescale
  // instead.
  ctx.bias = (!accumulate && !bias.empty()) ? bias.data().data() : nullptr;
  ctx.out = out.data().data();
  ctx.accumulate = accumulate;
  return ctx;
}

/// Per-layer patch-streaming precompute: normalize, DAC-quantize, and push
/// every input element through the MZM transfer exactly once.
void precompute_transfer(const nn::Tensor& input, double x_scale,
                         bool quantize, const elec::Dac& dac,
                         const phot::MachZehnderModulator& mzm,
                         EngineScratch& s) {
  const std::span<const double> in = input.data();
  s.transfer.resize(in.size());
  for (std::size_t e = 0; e < in.size(); ++e) {
    double x = in[e] / x_scale;
    if (quantize) x = dac.convert(x);
    s.transfer[e] = mzm.transmit_fraction(x);
  }
  double xp = 0.0 / x_scale;
  if (quantize) xp = dac.convert(xp);
  s.transfer_pad = mzm.transmit_fraction(xp);
}

/// Build the im2col gather map. Receptive-field order (channel-major, then
/// ky, then kx) mirrors nn::receptive_field.
void build_patch_map(const nn::ConvLayerParams& layer, const nn::Shape4& in,
                     EngineScratch& s) {
  const std::size_t side = layer.output_side();
  const std::size_t n_kernel = layer.kernel_size();
  const long long H = static_cast<long long>(in.h);
  const long long W = static_cast<long long>(in.w);
  s.patch.resize(side * side * n_kernel);
  std::int32_t* row = s.patch.data();
  for (std::size_t oy = 0; oy < side; ++oy) {
    for (std::size_t ox = 0; ox < side; ++ox) {
      for (std::size_t c = 0; c < layer.nc; ++c) {
        for (std::size_t ky = 0; ky < layer.m; ++ky) {
          const long long iy = static_cast<long long>(oy * layer.s + ky) -
                               static_cast<long long>(layer.p);
          for (std::size_t kx = 0; kx < layer.m; ++kx) {
            const long long ix = static_cast<long long>(ox * layer.s + kx) -
                                 static_cast<long long>(layer.p);
            *row++ = (iy >= 0 && iy < H && ix >= 0 && ix < W)
                         ? static_cast<std::int32_t>(
                               (static_cast<long long>(c) * H + iy) * W + ix)
                         : -1;
          }
        }
      }
    }
  }
}

} // namespace

void inject_stuck_faults(const PcnnaConfig& cfg, phot::WeightBank& bank,
                         Rng& rng, EngineStats& st) {
  if (cfg.stuck_ring_rate <= 0.0) return;
  for (std::size_t i = 0; i < bank.channels(); ++i) {
    if (rng.uniform() < cfg.stuck_ring_rate) {
      bank.fail_ring(i);
      ++st.stuck_rings;
    }
  }
}

double measured_usable_range(const PcnnaConfig& cfg, std::size_t channels,
                             Rng& rng) {
  PCNNA_CHECK(channels >= 1);
  const phot::WdmGrid grid(channels);
  phot::WeightBank bank(grid, cfg.bank, rng);
  return measured_usable_range(bank);
}

double measured_usable_range(phot::WeightBank& bank) {
  const std::size_t channels = bank.channels();
  PCNNA_CHECK(channels >= 1);
  const std::size_t mid = channels / 2;
  const std::vector<double> hi(channels, 1.0);
  bank.tune(hi);
  const double w_hi = bank.effective_weight(mid);
  const std::vector<double> lo(channels, -1.0);
  bank.tune(lo);
  const double w_lo = bank.effective_weight(mid);
  return std::min(w_hi, -w_lo);
}

OpticalConvEngine::OpticalConvEngine(PcnnaConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  config_.validate();
}

std::size_t OpticalConvEngine::prepare_workers(std::size_t pixels,
                                               bool fixed_draw_count,
                                               std::size_t group_size,
                                               std::size_t K) {
  std::size_t n = config_.engine_threads;
  // Tiles skip ahead to their slice of the noise stream, which needs a
  // data-independent per-pixel draw count; otherwise stay sequential
  // (outputs are identical either way — this only affects host scheduling).
  if (!fixed_draw_count) n = 1;
  n = std::max<std::size_t>(1, std::min(n, pixels));
  // The pool is created once at full engine_threads size and kept for the
  // engine's lifetime; layers whose pixel count clamps the effective worker
  // count below that leave the surplus workers idle for the sweep (see
  // sweep_pixels) instead of respawning threads per layer.
  ensure_pool(n);
  scratch_.workers.resize(n);
  for (EngineScratch::Worker& w : scratch_.workers) {
    w.powers.resize(group_size);
    w.drop_acc.resize(K);
    w.thru_acc.resize(K);
    w.acc.resize(K);
    w.optical_passes = 0;
    w.adc_conversions = 0;
  }
  return n;
}

std::size_t OpticalConvEngine::bank_workers(std::size_t banks) {
  const std::size_t n =
      std::max<std::size_t>(1, std::min(config_.engine_threads, banks));
  ensure_pool(n);
  return n;
}

void OpticalConvEngine::ensure_pool(std::size_t workers) {
  if (workers > 1 && !pool_)
    pool_ = std::make_unique<ThreadPool>(config_.engine_threads);
}

nn::Tensor OpticalConvEngine::conv2d(const nn::Tensor& input,
                                     const nn::Tensor& weights,
                                     const nn::Tensor& bias,
                                     std::size_t stride, std::size_t pad,
                                     EngineStats* stats) {
  PCNNA_CHECK_MSG(input.shape().n == 1, "batched inputs not supported");
  PCNNA_CHECK_MSG(input.shape().h == input.shape().w,
                  "PCNNA layers operate on square feature maps");
  const std::size_t K = weights.shape().n;
  const nn::Shape4& bs = bias.shape();
  PCNNA_CHECK_MSG(bias.empty() || (bs == nn::Shape4{1, K, 1, 1}),
                  "bias has shape [" << bs.n << ", " << bs.c << ", " << bs.h
                                     << ", " << bs.w << "], but " << K
                                     << " kernels need [1, " << K
                                     << ", 1, 1]");
  if (!input.empty() && input.min() < 0.0) {
    PCNNA_CHECK_MSG(config_.dual_rail_inputs,
                    "photonic amplitude encoding requires non-negative inputs"
                    " (apply ReLU or normalize first, or enable"
                    " dual_rail_inputs)");
    // Dual-rail: x = x+ - x-; both halves are non-negative, so each runs on
    // the single-rail path; results subtract electronically. The bias rides
    // on the positive rail only.
    nn::Tensor pos(input.shape()), neg(input.shape());
    for (std::size_t i = 0; i < input.size(); ++i) {
      pos[i] = std::max(0.0, input[i]);
      neg[i] = std::max(0.0, -input[i]);
    }
    EngineStats pos_stats, neg_stats;
    nn::Tensor out = conv2d(pos, weights, bias, stride, pad, &pos_stats);
    const nn::Tensor out_neg = conv2d(neg, weights, {}, stride, pad, &neg_stats);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] -= out_neg[i];
    if (stats) {
      *stats = pos_stats;
      stats->optical_passes += neg_stats.optical_passes;
      stats->dac_conversions += neg_stats.dac_conversions;
      stats->adc_conversions += neg_stats.adc_conversions;
      stats->banks_built += neg_stats.banks_built;
      stats->stuck_rings += neg_stats.stuck_rings;
      stats->patches_streamed += neg_stats.patches_streamed;
      stats->noise_draws += neg_stats.noise_draws;
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
  params.K = K;
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
  return run_conv(plan, input, weights, bias, st);
}

nn::Tensor OpticalConvEngine::run_conv(const LayerPlan& plan,
                                       const nn::Tensor& input,
                                       const nn::Tensor& weights,
                                       const nn::Tensor& bias,
                                       EngineStats& stats) {
  const nn::ConvLayerParams& layer = plan.layer;
  const std::size_t K = layer.K;
  const std::size_t side = layer.output_side();
  const std::size_t pixels = side * side;
  const nn::Shape4 out_shape{1, K, side, side};

  const std::optional<LayerScale> scale =
      scale_layer(config_, input, weights, plan.group_size, rng_);
  if (!scale) return bias_only(out_shape, bias);

  // A full-kernel layer is one pass of nc * m * m rings per kernel. A
  // per-channel layer is nc passes of m * m rings, and every pass is
  // digitized and accumulated electronically, even when nc == 1.
  const bool per_channel = plan.allocation == RingAllocation::kPerChannel;
  const std::size_t passes = per_channel ? layer.nc : 1;
  const std::size_t pass_width = layer.kernel_size() / passes;

  const AnalogChain chain = make_chain(config_, K);
  const phot::MachZehnderModulator mzm(config_.mzm);
  const phot::BalancedPhotodiode pd(config_.bank.photodiode);
  const elec::Dac input_dac(config_.input_dac);
  const elec::Dac weight_dac(config_.weight_dac);
  elec::AdcConfig adc_cfg = config_.adc;
  adc_cfg.full_scale = 1.0;
  const elec::Adc adc(adc_cfg);

  // Each pass programs every bank segment with its slice of the weights,
  // flattening calibrated responses straight into transposed SoA form. Pass
  // 0 fabricates and fault-injects the banks in (g, k) order, a batch at a
  // time, and every batch is tuned across the pool. Full-kernel weights are
  // fixed for the layer, so each batch is dropped once tuned; per-channel
  // passes retune the same physical rings, so all G * K banks form one
  // batch that lives across passes. Bank totals are folded in (g, k) order
  // once the last pass has programmed.
  const std::size_t G = plan.groups.size();
  const std::size_t n_banks = G * K;
  size_bank_soa(plan, scratch_);
  const std::size_t bank_threads = bank_workers(n_banks);
  const std::size_t batch_cap =
      per_channel ? n_banks : bank_threads * kBanksPerWorker;
  ProgramCtx prog{&plan, &weights, /*channel_offset=*/0, scale->w_absmax,
                  scale->denom, config_.enable_quantization, &weight_dac,
                  &chain};
  CalibrationError cal_err;
  std::vector<phot::WeightBank> batch;
  batch.reserve(std::min(batch_cap, n_banks));
  const auto program_pass = [&](std::size_t pass) {
    prog.channel_offset = pass * pass_width;
    for (std::size_t first = 0; first < n_banks; first += batch_cap) {
      if (pass == 0) {
        batch.clear();
        const std::size_t last = std::min(first + batch_cap, n_banks);
        for (std::size_t b = first; b < last; ++b) {
          batch.emplace_back(phot::WdmGrid(plan.groups[b / K].size()),
                             config_.bank, rng_);
          inject_stuck_faults(config_, batch.back(), rng_, stats);
        }
      }
      program_banks(batch, first, prog, bank_threads, pool_.get(), scratch_,
                    cal_err);
      if (pass + 1 == passes) {
        for (const phot::WeightBank& bank : batch) {
          ++stats.banks_built;
          stats.total_heater_power += bank.total_heater_power();
          stats.total_ring_area += bank.total_area();
        }
      }
    }
  };
  program_pass(0);

  const double bw = config_.enable_noise ? config_.fast_clock : 0.0;
  // Per-layer ADC range calibration from weight and input statistics.
  const double adc_fs =
      scale->adc_full_scale(config_.adc_headroom, pass_width, input, weights);
  precompute_transfer(input, scale->x_scale, config_.enable_quantization,
                      input_dac, mzm, scratch_);
  build_patch_map(layer, input.shape(), scratch_);

  const std::optional<std::size_t> branch_draws =
      pd_draws_per_branch(pd.plus_branch(), bw);
  const std::size_t draws_per_pixel =
      pass_width + 2 * branch_draws.value_or(1) * K * G;
  const std::size_t workers = prepare_workers(
      pixels, branch_draws.has_value(), plan.group_size, K);
  nn::Tensor out(out_shape);
  SweepCtx ctx =
      make_sweep_ctx(plan, config_, chain, pd, adc, bw, adc_fs,
                     scale->recover, per_channel, bias, out, scratch_);
  for (std::size_t pass = 0; pass < passes; ++pass) {
    if (pass > 0) program_pass(pass);
    ctx.patch_offset = pass * pass_width;
    sweep_pixels(ctx, workers, draws_per_pixel, rng_, scratch_, pool_.get());
    stats.patches_streamed += pixels;
    if (bw > 0.0) stats.noise_draws += pixels * draws_per_pixel;
  }

  // Per-channel partial sums are rescaled and biased once all passes are in.
  if (per_channel) {
    for (std::size_t k = 0; k < K; ++k) {
      const double b = bias.empty() ? 0.0 : bias[k];
      for (std::size_t l = k * pixels; l < (k + 1) * pixels; ++l)
        out[l] = out[l] * scale->recover + b;
    }
  }

  for (const EngineScratch::Worker& w : scratch_.workers) {
    stats.optical_passes += w.optical_passes;
    stats.adc_conversions += w.adc_conversions;
  }

  if (cal_err.count > 0) {
    stats.mean_calibration_error = cal_err.sum / static_cast<double>(cal_err.count);
    stats.max_calibration_error = cal_err.max;
  }
  return out;
}

nn::Tensor OpticalConvEngine::fully_connected(const nn::Tensor& input,
                                              const nn::Tensor& weights,
                                              const nn::Tensor& bias,
                                              EngineStats* stats) {
  const std::size_t in = input.size();
  const std::size_t out_n = weights.shape().n;
  PCNNA_CHECK_MSG(weights.shape().c == in && weights.shape().h == 1 &&
                      weights.shape().w == 1,
                  "FC weights must be [out, in, 1, 1] with in == input size");
  PCNNA_CHECK_MSG(input.min() >= 0.0,
                  "photonic amplitude encoding requires non-negative inputs");
  if (!bias.empty()) PCNNA_CHECK(bias.size() == out_n);

  EngineStats local;
  EngineStats& st = stats ? *stats : local;
  st = EngineStats{};
  st.locations = 1;
  st.recalibrations = 1;

  const std::size_t group_size =
      std::min<std::size_t>(config_.max_wavelengths, in);
  const std::optional<LayerScale> scale =
      scale_layer(config_, input, weights, group_size, rng_);
  if (!scale) return bias_only(nn::Shape4{1, out_n, 1, 1}, bias);

  const AnalogChain chain = make_chain(config_, out_n);
  const phot::LaserDiode laser(config_.laser);
  const phot::MachZehnderModulator mzm(config_.mzm);
  const phot::BalancedPhotodiode pd(config_.bank.photodiode);
  const elec::Dac input_dac(config_.input_dac);
  const elec::Dac weight_dac(config_.weight_dac);
  elec::AdcConfig adc_cfg = config_.adc;
  adc_cfg.full_scale = 1.0;
  const elec::Adc adc(adc_cfg);

  st.wavelengths_used = group_size;
  st.weight_dac_conversions = weights.size();
  st.dac_conversions = in;
  st.rings_used = out_n * in;

  const double bw = config_.enable_noise ? config_.fast_clock : 0.0;
  const double adc_fs =
      scale->adc_full_scale(config_.adc_headroom, in, input, weights);

  CalibrationError cal_err;
  std::vector<double> acc(out_n, 0.0);
  std::vector<double> powers, targets;
  std::vector<phot::WeightBank::ChannelSplit> splits;
  for (std::size_t begin = 0; begin < in; begin += group_size) {
    const std::size_t end = std::min(begin + group_size, in);
    const std::size_t width = end - begin;
    const phot::WdmGrid grid(width);

    // Modulate this input slice once; all banks share the broadcast bundle.
    powers.resize(width);
    for (std::size_t i = 0; i < width; ++i) {
      double x = input[begin + i] / scale->x_scale;
      if (config_.enable_quantization) x = input_dac.convert(x);
      powers[i] = mzm.modulate(laser.emit(bw, rng_) * chain.bcast, x);
    }

    targets.resize(width);
    splits.resize(width);
    for (std::size_t o = 0; o < out_n; ++o) {
      phot::WeightBank bank(grid, config_.bank, rng_);
      inject_stuck_faults(config_, bank, rng_, st);
      for (std::size_t i = 0; i < width; ++i) {
        double w = weights[o * in + begin + i] / scale->w_absmax * scale->denom;
        if (config_.enable_quantization) w = quantize_weight(weight_dac, w);
        targets[i] = w;
      }
      // One probe sweep: the achieved weight is drop - thru.
      bank.tune(targets);
      bank.channel_splits_into(splits);
      for (std::size_t i = 0; i < width; ++i)
        cal_err.add(std::abs((splits[i].drop - splits[i].thru) - targets[i]));
      ++st.banks_built;
      st.total_heater_power += bank.total_heater_power();
      st.total_ring_area += bank.total_area();

      double p_drop = 0.0, p_thru = 0.0, base = 0.0;
      for (std::size_t i = 0; i < width; ++i) {
        p_drop += powers[i] * splits[i].drop;
        p_thru += powers[i] * splits[i].thru;
        base += chain.dark_power * (splits[i].drop - splits[i].thru);
      }
      const double current = pd.detect(p_drop, p_thru, bw, rng_);
      acc[o] += (current - chain.resp * base) / chain.denom_current;
    }
    ++st.optical_passes;
  }

  nn::Tensor out(nn::Shape4{1, out_n, 1, 1});
  for (std::size_t o = 0; o < out_n; ++o) {
    double v = acc[o];
    if (config_.enable_quantization) v = adc.convert(v / adc_fs) * adc_fs;
    ++st.adc_conversions;
    out[o] = v * scale->recover + (bias.empty() ? 0.0 : bias[o]);
  }

  if (cal_err.count > 0) {
    st.mean_calibration_error = cal_err.sum / static_cast<double>(cal_err.count);
    st.max_calibration_error = cal_err.max;
  }
  return out;
}

} // namespace pcnna::core
