// Functional simulation of the PCNNA optical core.
//
// Computes a convolution by actually pushing values through the photonic
// component models: inputs are DAC-quantized, imprinted on WDM laser
// channels by MZMs, weighted by calibrated microring banks, summed on
// balanced photodiodes (with RIN/shot/thermal noise), digitized by the ADC,
// and rescaled electronically. Under PcnnaConfig::ideal() the result matches
// the golden CPU convolution to near machine precision; under
// paper_defaults() it quantifies the analog error budget. A fully-connected
// layer runs as the 1x1 conv it is priced as: conv2d on its input as a
// [1, in, 1, 1] map with weights [out, in, 1, 1] (core::offloaded_layer).
//
// Execution follows the paper SS IV exactly, as one loop for both ring
// allocations: program the weight banks with the layer's kernels (once per
// layer and chip: a LayerProgram keeps the result), then evaluate all K
// kernels in parallel for one receptive-field location at a time,
// locations in sequence. A full-kernel layer is one such pass over
// nc * m * m rings; a per-channel layer is nc passes over m * m rings whose
// digitized partial sums add electronically. Within a pass, receptive
// fields wider than the WDM budget split into segmented bank groups whose
// balanced-photodiode currents wire-sum in analog (full-kernel) or are
// digitized one group at a time (per-channel).
//
// Hot-path organization (PR 3 rewrite; docs/architecture.md "Engine hot
// path" has the full argument):
//
//  * patch streaming — the DAC quantization and MZM transfer of every input
//    element are evaluated once per layer into a lookup table, and the
//    per-pixel receptive field becomes a precomputed im2col-style index
//    gather; nothing per-pixel re-derives per-element values;
//  * layer-lifetime scratch — every buffer the per-pixel loop touches lives
//    in an EngineScratch owned by the engine and reused across pixels,
//    layers, and conv2d calls; the oy/ox loops allocate nothing;
//  * structure-of-arrays bank programs — calibrated bank responses are
//    flattened into transposed drop/through arrays so the per-pixel MAC is
//    a branch-free linear pass over contiguous memory with K independent
//    accumulation chains;
//  * one probe sweep per bank program — WeightBank::tune() sets the heaters
//    and a single channel_splits_into() sweep yields both the SoA response
//    and the achieved weights (drop - thru) for the calibration error;
//  * optional deterministic intra-image parallelism over
//    PcnnaConfig::engine_threads workers, in two phases:
//    - filling a layer's program: each worker takes the next bank
//      position, fabricates it into its own bank from the chip stream,
//      and tunes it for every pass (neither depends on the order or the
//      thread; every bank writes its own SoA slice). Heater power, ring
//      area, and calibration error are reduced afterwards on the calling
//      thread in (pass, g, k, ring) order. Pool threads never allocate:
//      their banks and staging are sized first;
//    - pixel sweep: kernel locations are partitioned into fixed tiles.
//      Per-pixel accumulation order is unchanged. With noise enabled each
//      pixel draws from its own keyed generator (pixel_noise), so no tile
//      depends on another's draws.
//    Outputs and EngineStats are bit-identical for every thread count and
//    tile size (tests/test_engine_hot_path.cpp proves A/B bit-identity
//    against the frozen pre-rewrite engine in engine_reference.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/scheduler.hpp"
#include "nn/tensor.hpp"

namespace pcnna::core {

/// Bookkeeping from one engine convolution.
struct EngineStats {
  std::uint64_t locations = 0;
  std::uint64_t optical_passes = 0;    ///< bank passes (fast-clock events)
  std::uint64_t dac_conversions = 0;   ///< input-DAC samples (plan-level)
  std::uint64_t adc_conversions = 0;   ///< output samples digitized
  /// Kernel-location patches streamed through the engine pixel sweep, one
  /// per sweep_pixels location (the per-channel path streams every patch
  /// once per input channel). Filled by the streaming engine only; the
  /// frozen reference engine leaves it zero.
  std::uint64_t patches_streamed = 0;
  /// Noise-source draws consumed by the pixel sweep (laser RIN plus
  /// photodiode shot/thermal noise): pixels * draws_per_pixel when noise is
  /// enabled, zero on the ideal config. A photodiode branch whose noise
  /// sigma is zero at its dark current counts no draws unless shot noise
  /// is on; in that data-dependent corner each branch sample counts as one
  /// draw, an upper bound. A pure function of the config and layer plan,
  /// so independent of engine_threads.
  std::uint64_t noise_draws = 0;
  std::uint64_t weight_dac_conversions = 0;
  std::uint64_t recalibrations = 0;    ///< bank retuning episodes
  std::uint64_t banks_built = 0;
  std::uint64_t rings_used = 0;        ///< total rings in the mapping
  std::uint64_t wavelengths_used = 0;  ///< WDM channels per pass
  std::uint64_t stuck_rings = 0;       ///< injected heater faults
  double mean_calibration_error = 0.0; ///< mean |w_eff - w_target|
  double max_calibration_error = 0.0;
  double total_heater_power = 0.0;     ///< [W] summed over all banks
  double total_ring_area = 0.0;        ///< [m^2]
};

// The chip stream
// ---------------
// A PcnnaConfig describes one chip, fabricated once from PcnnaConfig::seed
// (paper SS IV: the rings are built once and only retuned per layer). Every
// bank the engine programs is a fixed position on it: bank g * K + k of a
// layer (group g, kernel k; per-channel passes retune the same positions)
// and kProbeBank for the usable-range probe. Each position owns two
// generators derived from (seed, position) with derive_seed: the disorder
// stream draws one normal per ring in ascending ring order when
// bank.ring.fab_sigma > 0, and the stuck stream one uniform per ring in
// ascending ring order when stuck_ring_rate > 0 (ring r is stuck when its
// uniform is below the rate). Ring r of a position thus has its resonance
// offset and stuck flag as a pure function of (seed, position, r): the same
// in every layer, at every bank width, thread count and request seed, and
// independent of the order banks are built in.
//
// The noise streams
// -----------------
// Sensor noise is keyed the same way, by the call's key (reseed_rng;
// core::Accelerator passes derive_seed(request seed, op)). Kernel location
// `pixel` of pass `pass` of a conv call draws its laser RIN and
// photodiode noise from pixel_noise(key, pass, pixel), in the order of the
// reference engine's per-pixel body; a dual-rail call runs its negative
// rail as a call under derive_seed(key, kNegativeRail). No call changes the
// key, so a call's noise is a pure function of (key, layer, input): the
// same at every thread count and tile size, and whatever the engine ran
// before.

/// Bank position of the usable-range probe, apart from every layer bank.
inline constexpr std::uint64_t kProbeBank = ~std::uint64_t{0};

/// The two fabrication generators of bank `position` on the chip of
/// `chip_seed`.
struct BankFab {
  Rng disorder; ///< resonance offsets, one normal per ring
  Rng stuck;    ///< stuck flags, one uniform per ring
};
BankFab bank_fab(std::uint64_t chip_seed, std::uint64_t position);

/// Noise generator of kernel location `pixel` in pass `pass` of a conv
/// call under `key`: Rng(derive_seed(derive_seed(key, pass), pixel)).
Rng pixel_noise(std::uint64_t key, std::uint64_t pass, std::uint64_t pixel);

/// Child id of a dual-rail call's negative-rail key, apart from every pass.
inline constexpr std::uint64_t kNegativeRail = ~std::uint64_t{0};

/// Rebuild `bank` in place as bank `position` of the chip on `grid`
/// (WeightBank::refabricate from the disorder stream), then freeze the
/// heaters of the rings the stuck stream marks, at their parked drive.
/// Returns how many it froze. Allocates nothing when `bank` has held a grid
/// at least as wide, so pool workers may fabricate banks the calling thread
/// sized.
std::size_t fabricate_bank(const PcnnaConfig& cfg, std::uint64_t position,
                           const phot::WdmGrid& grid, phot::WeightBank& bank);

/// Empirically measure the symmetric weight range a bank of `channels`
/// rings can represent: program every ring to the positive/negative
/// extreme and probe the middle channel. Accounts for the cumulative
/// through-path insertion loss and crosstalk that the single-ring closed
/// form misses. The bank is built from `rng` (one normal per ring in
/// ascending ring order when bank.ring.fab_sigma > 0, nothing otherwise);
/// the probe calibrations and weight queries draw nothing.
double measured_usable_range(const PcnnaConfig& cfg, std::size_t channels,
                             Rng& rng);

/// The chip's usable range at `channels` rings: the probe above on the
/// chip's probe bank, kProbeBank, built from its disorder stream with no
/// stuck heaters. The engine scales every layer by it.
double measured_usable_range(const PcnnaConfig& cfg, std::size_t channels);

/// Re-probe variant over an *existing* bank: same hi/lo middle-channel
/// probe as above, but against `bank`'s current physical state — stuck
/// rings (WeightBank::fail_ring, fabricate_bank) and accumulated
/// fabrication disorder included — instead of constructing a pristine one.
/// Draws nothing; the probe is two tunings plus weight queries. The
/// bank's programmed weights are clobbered (it ends at the all-negative
/// extreme); recalibrate afterwards if the bank is still in service.
double measured_usable_range(phot::WeightBank& bank);

/// Weight-only scale of one layer: the inputs are normalized per call, the
/// weights once.
struct WeightScale {
  double w_absmax = 0.0;  ///< largest |weight|; 0 for an all-zero layer
  double denom = 1.0;     ///< bank weight that stands for |w| == w_absmax
  /// Mean square of the bank weights, w / w_absmax * denom, behind the ADC
  /// full scale.
  double mean_w_sq = 0.0;
};

/// The program of one offloaded layer on one chip: every bank's
/// calibrated response and what programming it contributes to EngineStats.
/// It depends only on (config, weights), because fabrication reads the
/// chip stream and tuning draws nothing, so a layer served again reads it
/// in place instead of reprogramming. runtime::Pcu keeps one per (model,
/// op); a call without one fills the engine's own and drops it.
struct LayerProgram {
  /// Set once every field below holds this layer's program.
  bool filled = false;
  WeightScale scale;
  /// Transposed structure-of-arrays bank responses of every pass: for pass
  /// p, group g, channel i and kernel k, the drop/through response lives at
  /// p * group_base.back() + group_base[g] + i * K + k (contiguous in k so
  /// the per-pixel MAC keeps K independent accumulation chains on
  /// contiguous memory). Two doubles per weight.
  std::vector<double> drop_t, thru_t;
  /// Balanced baseline current per (pass, group, kernel):
  /// baseline[(p * G + g) * K + k].
  std::vector<double> baseline;
  std::vector<std::size_t> group_base;
  // EngineStats totals of programming every bank, replayed by each call.
  std::uint64_t banks_built = 0;
  std::uint64_t stuck_rings = 0;
  double heater_power = 0.0;
  double ring_area = 0.0;
  double mean_calibration_error = 0.0;
  double max_calibration_error = 0.0;
};

/// Layer-lifetime scratch of the engine hot path. Owned by the engine and
/// reused across conv2d calls; per-layer precomputes are rebuilt at the top
/// of each call, per-worker buffers are resized (capacity persists) and
/// nothing inside the per-pixel loops allocates.
struct EngineScratch {
  // --- per-layer precomputes (patch-streaming pipeline) ---
  /// MZM transmit fraction of every input element after normalization and
  /// (optional) input-DAC quantization; evaluated once per layer.
  std::vector<double> transfer;
  /// Transmit fraction of a zero-padded element.
  double transfer_pad = 0.0;
  /// im2col-style gather map: for output pixel p and flattened
  /// receptive-field position r, patch[p * n_kernel + r] is the flat input
  /// element index, or -1 for zero padding. Receptive-field order matches
  /// nn::receptive_field (channel-major, then ky, then kx).
  std::vector<std::int32_t> patch;
  /// The program of a call that brings none of its own.
  LayerProgram program;

  // --- program-fill staging (a layer's first call only) ---
  // Sized on the calling thread before the workers fan out, so pool
  // threads never allocate.
  /// One bank per programming worker, refabricated in place as each bank
  /// position it programs.
  std::vector<phot::WeightBank> banks;
  /// Weight targets and probed splits of each worker's bank, one row of
  /// plan.group_size entries per worker.
  std::vector<double> targets;
  std::vector<phot::WeightBank::ChannelSplit> splits;
  /// Calibration error of every ring, row (pass * banks + bank) of
  /// plan.group_size entries, and heater power, ring area and stuck rings
  /// of every bank: folded on the calling thread in (pass, bank, ring)
  /// and bank order once the workers join.
  std::vector<double> cal_errors;
  struct BankTotals {
    double heater_power = 0.0;
    double ring_area = 0.0;
    std::size_t stuck_rings = 0;
  };
  std::vector<BankTotals> bank_totals;

  // --- per-worker hot-loop buffers ---
  struct Worker {
    std::vector<double> powers;          ///< modulated powers of one group
    std::vector<double> drop_acc;        ///< per-kernel drop-bus dot product
    std::vector<double> thru_acc;        ///< per-kernel through-bus dot product
    std::vector<double> acc;             ///< per-kernel normalized MAC
    std::uint64_t optical_passes = 0;
    std::uint64_t adc_conversions = 0;
  };
  std::vector<Worker> workers;
};

class OpticalConvEngine {
 public:
  /// Precomputed constants of the analog signal chain shared by every bank
  /// of one layer: laser, broadcast tree, MZM, and photodiode. The engine
  /// and the closed-form NoiseBudgetModel both take them from make_chain.
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

  /// The analog chain of `cfg` broadcasting to `fanout` banks.
  static AnalogChain make_chain(const PcnnaConfig& cfg, std::size_t fanout);

  explicit OpticalConvEngine(PcnnaConfig config);

  const PcnnaConfig& config() const { return config_; }

  /// Photonic convolution with the same contract as nn::conv2d_direct:
  /// `input` [1, C, H, W] (values must be >= 0 — photonic amplitude
  /// encoding; normalize or ReLU first), `weights` [K, C, m, m], optional
  /// `bias` [1, K, 1, 1]. Returns [1, K, Ho, Wo].
  ///
  /// `program`, when given, is these weights' program on this engine's
  /// chip: the first call whose input is not all zero fills it, on the
  /// engine's pool, and later calls read it in place. The caller keys it
  /// to (config, weights). Without one, the call fills the engine's own
  /// program and drops it. Outputs and EngineStats are the same bits either
  /// way.
  nn::Tensor conv2d(const nn::Tensor& input, const nn::Tensor& weights,
                    const nn::Tensor& bias, std::size_t stride,
                    std::size_t pad, EngineStats* stats = nullptr,
                    LayerProgram* program = nullptr);

  /// Set the key of later calls' noise streams (initially
  /// PcnnaConfig::seed). core::Accelerator keys each op by request seed and
  /// op index, so an output does not depend on which PCU serves it, in
  /// what order, or how a pipeline splits the network.
  void reseed_rng(std::uint64_t key) { key_ = key; }

 private:
  /// conv2d under noise key `key`.
  nn::Tensor conv2d(std::uint64_t key, const nn::Tensor& input,
                    const nn::Tensor& weights, const nn::Tensor& bias,
                    std::size_t stride, std::size_t pad, EngineStats* stats,
                    LayerProgram* program);

  /// Run one planned conv layer under noise key `key`: fill `program`
  /// unless it is filled, then sweep every kernel location pass by pass
  /// through its banks.
  /// Full-kernel plans run 1 pass of nc * m * m rings; per-channel plans
  /// run nc passes of m * m rings and rescale and bias after the last one.
  nn::Tensor run_conv(const LayerPlan& plan, std::uint64_t key,
                      const nn::Tensor& input, const nn::Tensor& weights,
                      const nn::Tensor& bias, EngineStats& stats,
                      LayerProgram& program);

  /// Program every bank of every pass of the layer into `program`: probe
  /// the chip's usable range, then fabricate each bank position from the
  /// chip stream and tune it, across the pool, and fold the banks' totals
  /// on the calling thread.
  void fill_program(const LayerPlan& plan, const nn::Tensor& weights,
                    LayerProgram& program);

  /// Decide the worker count for one layer's pixel sweep and make the pool
  /// and per-worker scratch (sized for `group_size` channels and K kernel
  /// accumulators) match it.
  std::size_t prepare_workers(std::size_t pixels, std::size_t group_size,
                              std::size_t K);

  /// Worker count for programming a layer's `banks` weight banks:
  /// min(engine_threads, banks), independent of the pixel sweep's clamp.
  /// Creates the pool when that count exceeds one.
  std::size_t bank_workers(std::size_t banks);

  /// Create the pool, sized to engine_threads, the first time a phase runs
  /// `workers` > 1. Never from the constructor: a fleet builds many engines
  /// whose threads would mostly sit idle.
  void ensure_pool(std::size_t workers);

  PcnnaConfig config_;
  std::uint64_t key_;
  EngineScratch scratch_;
  std::unique_ptr<ThreadPool> pool_;
};

} // namespace pcnna::core
