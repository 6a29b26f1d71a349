// Functional simulation of the PCNNA optical core.
//
// Computes a convolution by actually pushing values through the photonic
// component models: inputs are DAC-quantized, imprinted on WDM laser
// channels by MZMs, weighted by calibrated microring banks, summed on
// balanced photodiodes (with RIN/shot/thermal noise), digitized by the ADC,
// and rescaled electronically. Under PcnnaConfig::ideal() the result matches
// the golden CPU convolution to near machine precision; under
// paper_defaults() it quantifies the analog error budget.
//
// Execution follows the paper SS IV exactly: all K kernels are evaluated in
// parallel for one receptive-field location, locations run sequentially,
// and receptive fields wider than the WDM budget are split into segmented
// bank passes whose balanced-photodiode currents wire-sum in analog
// (full-kernel allocation) or into per-channel passes with electronic
// partial-sum accumulation (per-channel allocation).
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
//    - bank programming: banks are fabricated and fault-injected on the
//      calling thread in (g, k) order, in bounded batches, and each batch is
//      tuned across the pool (tuning draws no random numbers; every bank
//      writes its own SoA slice). Heater power, ring area, and calibration
//      error are reduced afterwards on the calling thread in (g, k, ring)
//      order. Pool threads never allocate: their staging is sized first;
//    - pixel sweep: kernel locations are partitioned into fixed tiles.
//      Per-pixel accumulation order is unchanged, and with noise enabled the
//      per-pixel RNG draws are pre-generated in sequential pixel order
//      before the tiles fan out.
//    Outputs, EngineStats, and the post-call RNG state are bit-identical for
//    every thread count (tests/test_engine_hot_path.cpp proves A/B
//    bit-identity against the frozen pre-rewrite engine in
//    engine_reference.hpp).
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
  /// Noise-source draws consumed by the pixel sweep (shot/thermal/branch
  /// noise): pixels * draws_per_pixel when noise is enabled, zero on the
  /// ideal config. A pure function of the layer plan — independent of
  /// engine_threads by the pre-drawn parallel noise contract.
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

/// Failure injection: freeze each ring's heater at its parked drive with
/// probability PcnnaConfig::stuck_ring_rate.
///
/// Draw-order contract (pinned by EngineRngContract tests): when
/// stuck_ring_rate > 0 this consumes exactly one rng.uniform() per ring, in
/// ascending ring index, regardless of whether the ring ends up stuck; when
/// stuck_ring_rate <= 0 it consumes nothing. The engine calls it only
/// during sequential layer setup (bank construction order), never from the
/// pixel loops, so intra-image parallelism cannot perturb fault patterns.
void inject_stuck_faults(const PcnnaConfig& cfg, phot::WeightBank& bank,
                         Rng& rng, EngineStats& st);

/// Empirically measure the symmetric weight range a bank of `channels`
/// rings can represent: program every ring to the positive/negative
/// extreme and probe the middle channel. Accounts for the cumulative
/// through-path insertion loss and crosstalk that the single-ring closed
/// form misses.
///
/// Draw-order contract (pinned by EngineRngContract tests): consumes
/// exactly the fabrication draws of constructing one `channels`-ring bank —
/// one rng.normal() per ring in ascending ring index when
/// bank.ring.fab_sigma > 0, nothing otherwise. The probe calibrations and
/// weight queries draw nothing. Called once per conv2d invocation, before
/// any layer banks are built.
double measured_usable_range(const PcnnaConfig& cfg, std::size_t channels,
                             Rng& rng);

/// Re-probe variant over an *existing* bank: same hi/lo middle-channel
/// probe as above, but against `bank`'s current physical state — stuck
/// rings (WeightBank::fail_ring, inject_stuck_faults) and accumulated
/// fabrication disorder included — instead of constructing a pristine one.
/// Draws nothing; the probe is two tunings plus weight queries. The
/// bank's programmed weights are clobbered (it ends at the all-negative
/// extreme); recalibrate afterwards if the bank is still in service.
double measured_usable_range(phot::WeightBank& bank);

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
  /// Transposed structure-of-arrays bank programs: for group g, channel i,
  /// kernel k, the drop/through response lives at
  /// group_base[g] + i * K + k (contiguous in k so the per-pixel MAC keeps
  /// K independent accumulation chains on contiguous memory).
  std::vector<double> drop_t, thru_t;
  /// Balanced baseline current per (group, kernel): baseline[g * K + k].
  std::vector<double> baseline;
  std::vector<std::size_t> group_base;
  /// Pre-drawn standard normals for the parallel noisy path, in sequential
  /// pixel order (see docs/architecture.md for the determinism argument).
  std::vector<double> noise_z;

  // --- bank-programming staging (layer setup only) ---
  /// Weight targets and probed splits of the banks being programmed, one
  /// row of plan.group_size entries per bank. Sized on the calling thread
  /// before the workers fan out, so pool threads never allocate; the
  /// calibration error is reduced from them in (bank, ring) order after
  /// the workers join.
  std::vector<double> targets;
  std::vector<phot::WeightBank::ChannelSplit> splits;

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
  explicit OpticalConvEngine(PcnnaConfig config);

  const PcnnaConfig& config() const { return config_; }

  /// Photonic convolution with the same contract as nn::conv2d_direct:
  /// `input` [1, C, H, W] (values must be >= 0 — photonic amplitude
  /// encoding; normalize or ReLU first), `weights` [K, C, m, m], optional
  /// `bias` [1, K, 1, 1]. Returns [1, K, Ho, Wo].
  nn::Tensor conv2d(const nn::Tensor& input, const nn::Tensor& weights,
                    const nn::Tensor& bias, std::size_t stride,
                    std::size_t pad, EngineStats* stats = nullptr);

  /// Photonic fully-connected layer (the original broadcast-and-weight use
  /// case, Tait et al.): `weights` [out, in, 1, 1], `bias` [1, out, 1, 1]
  /// (optional), input flattened and non-negative. The input vector maps
  /// onto WDM channel groups; one bank per output neuron; group partial
  /// sums wire-sum in analog before one ADC sample per output.
  nn::Tensor fully_connected(const nn::Tensor& input,
                             const nn::Tensor& weights,
                             const nn::Tensor& bias,
                             EngineStats* stats = nullptr);

  /// Reset the internal noise/fabrication RNG to the config seed (makes two
  /// runs bit-identical).
  void reset_rng() { rng_.reseed(config_.seed); }

  /// Reseed the noise/fabrication RNG to an explicit seed. The batch runtime
  /// reseeds per request so a request's output is the same no matter which
  /// PCU serves it or in what order.
  void reseed_rng(std::uint64_t seed) { rng_.reseed(seed); }

  /// Snapshot the noise/fabrication RNG mid-stream. The pipelined serving
  /// runtime captures the state after one stage's layer range and restores
  /// it on the next stage's PCU, so a split run draws exactly the values a
  /// whole-network run from the same request seed would.
  Rng::State rng_state() const { return rng_.state(); }

  /// Restore a snapshot taken with rng_state().
  void set_rng_state(const Rng::State& state) { rng_.set_state(state); }

 private:
  nn::Tensor run_full_kernel(const LayerPlan& plan, const nn::Tensor& input,
                             const nn::Tensor& weights, const nn::Tensor& bias,
                             EngineStats& stats);
  nn::Tensor run_per_channel(const LayerPlan& plan, const nn::Tensor& input,
                             const nn::Tensor& weights, const nn::Tensor& bias,
                             EngineStats& stats);

  /// Decide the worker count for one layer's pixel sweep and make the pool
  /// and per-worker scratch (sized for `group_size` channels and K kernel
  /// accumulators) match it.
  std::size_t prepare_workers(std::size_t pixels, bool fixed_draw_count,
                              std::size_t group_size, std::size_t K);

  /// Worker count for programming a layer's `banks` weight banks:
  /// min(engine_threads, banks), independent of the pixel sweep's clamp.
  /// Creates the pool when that count exceeds one.
  std::size_t bank_workers(std::size_t banks);

  /// Create the pool, sized to engine_threads, the first time a phase runs
  /// `workers` > 1. Never from the constructor: a fleet builds many engines
  /// whose threads would mostly sit idle.
  void ensure_pool(std::size_t workers);

  PcnnaConfig config_;
  Rng rng_;
  EngineScratch scratch_;
  std::unique_ptr<ThreadPool> pool_;
};

} // namespace pcnna::core
