// One photonic conv unit (PCU) of the batch-serving fleet.
//
// A Pcu wraps a core::Accelerator replica that can be programmed with any
// of the fleet's registered models and serves InferenceRequests one at a
// time. Since the fleet became heterogeneous, each Pcu carries its *own*
// PcnnaConfig (ring/WDM budget, DAC counts, fidelity-limited usable range),
// held once, in the accelerator's engine, plus its warmup policy and a
// free-form capability tag — a fleet can mix big-budget PCUs for wide
// layers with small cheap ones. Besides the functional run it prices each
// request two ways:
//
//  * serial: the paper's single-image schedule — every layer pays its
//    weight-bank reprogramming (MRR retuning + thermal settling) before its
//    optical pass (sum of LayerTiming::full_system_time).
//
//  * double-buffered: the Fig. 4 overlap lifted from one layer to the
//    request stream. With a shadow weight-bank set, layer i+1's slow MRR
//    recalibration is loaded while layer i's fast optical pass computes
//    (wrapping around the layer ring across consecutive requests), so each
//    layer contributes max(non-recal work, next layer's recalibration)
//    instead of their sum. The non-recal work is itself floored by the
//    layer's concurrent DRAM stream, which double buffering cannot hide.
//
// Multi-model serving: a Pcu is built with one primary model (id 0) and
// add_model() registers more. All per-request timing/energy constants are
// precomputed per model; switching the *programmed* model on the
// double-buffered schedule costs a weight-bank swap — the full serial
// reprogram Σ layer recalibrations, because the outgoing model's compute
// stream is gone and nothing remains to hide the retuning behind. The swap
// subsumes the pipeline-fill warmup (which is just the first layer's share
// of that same sum). The serial schedule charges every layer's
// recalibration inline on every request, so it never charges a separate
// swap. Who pays a swap when is the admission loop's business
// (PcuPool::simulate_admission tracks the programmed model per PCU).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/config.hpp"
#include "nn/network.hpp"
#include "nn/tensor.hpp"
#include "runtime/request_queue.hpp"

namespace pcnna::runtime {

/// When a PCU must (re)pay the one-time double-buffer pipeline fill — the
/// first layer's weight-bank recalibration, which nothing earlier can hide.
/// Only meaningful on the double-buffered schedule; the serial schedule
/// charges every layer's recalibration inline and never adds a warmup.
enum class WarmupPolicy {
  /// Default, and the only pre-heterogeneous behavior: the warmup is paid
  /// on the PCU's first request and re-charged whenever an idle gap drains
  /// the pipeline (service start > previous free time).
  kRechargeAfterIdle,
  /// Persistent calibration: a background keep-alive holds the shadow
  /// banks programmed across idle gaps, so only the very first request
  /// pays the fill. Models a PCU pinned to one network.
  kPinnedAfterFirst,
  /// Conservative bound: every request pays the fill, as if each one
  /// reprogrammed the pipeline from scratch (no persistence at all).
  kAlwaysCold,
};

const char* warmup_policy_name(WarmupPolicy policy);

/// Deterministic engine-phase work counters for one request, summed over
/// every layer of its network run (core::EngineStats per layer). A pure
/// function of (model, config, request seed) — independent of which PCU
/// served the request on a homogeneous fleet, of engine_threads, and of
/// host scheduling — so fleet totals summed in request-id order are
/// bit-stable. All zeros when values were not simulated (timing-only
/// serving never runs the engine).
struct EngineWork {
  std::uint64_t patches_streamed = 0; ///< pixel-sweep patches
  std::uint64_t bank_passes = 0;      ///< optical weight-bank passes
  std::uint64_t noise_draws = 0;      ///< noise-source draws consumed
  std::uint64_t dac_conversions = 0;  ///< input-DAC samples
  std::uint64_t adc_conversions = 0;  ///< output samples digitized

  void add(const core::EngineStats& stats) {
    patches_streamed += stats.patches_streamed;
    bank_passes += stats.optical_passes;
    noise_draws += stats.noise_draws;
    dac_conversions += stats.dac_conversions;
    adc_conversions += stats.adc_conversions;
  }
  EngineWork& operator+=(const EngineWork& other) {
    patches_streamed += other.patches_streamed;
    bank_passes += other.bank_passes;
    noise_draws += other.noise_draws;
    dac_conversions += other.dac_conversions;
    adc_conversions += other.adc_conversions;
    return *this;
  }
};

/// Completed inference for one request. All times are simulated hardware
/// seconds and all energies simulated joules; nothing here depends on the
/// host clock.
struct RequestResult {
  std::uint64_t id = 0;
  /// Index of the PCU that physically served the request. In a homogeneous
  /// fleet this is a wall-clock scheduling detail (the output itself is
  /// PCU-independent); in a heterogeneous fleet it is the deterministic
  /// virtual-time assignment, and the output was produced by *this* PCU's
  /// device model.
  std::size_t pcu_index = 0;
  nn::Tensor output;
  /// Simulated single-request service time, serial schedule [s].
  double service_time_serial = 0.0;
  /// Simulated service time with double-buffered recalibration [s].
  double service_time_overlapped = 0.0;
  /// Simulated energy for the request [J].
  double energy = 0.0;
  /// True when load shedding rejected the request instead of serving it:
  /// the slot is a placeholder (empty output, zero times/energy) that still
  /// carries id, model_id, and tenant so per-tenant/per-model accounting
  /// stays correct.
  bool shed = false;
  /// True when injected faults permanently destroyed the request: every
  /// retry budgeted for it was lost to crashes/corruption (or the whole
  /// fleet died), so the slot is a placeholder like a shed one — empty
  /// output, zero times/energy, but id/model_id/tenant intact.
  bool failed = false;
  /// Registered model the request targeted (valid on shed placeholders too).
  std::uint32_t model_id = 0;
  /// Owning tenant, carried through from the InferenceRequest (valid on
  /// shed placeholders too).
  std::uint32_t tenant = 0;
  /// Engine-phase work counters of the functional run (zeros when values
  /// were not simulated, and on shed/failed placeholders).
  EngineWork work;
};

/// Serving constants for one contiguous op range of a model — one pipeline
/// stage, or the whole model (Pcu keeps that one per registered model). All
/// simulated seconds / joules.
struct StageTimings {
  /// Serial time of the range (Σ layer full_system_time).
  double serial = 0.0;
  /// Steady-state per-image interval with double-buffered recalibration,
  /// wrapping within the range (the stage streams images back-to-back).
  double interval = 0.0;
  /// One-time bank pin: the first image's exposed recalibration (the
  /// range's first layer; later layers hide behind earlier compute). A
  /// pinned stage never re-pays it — pinning *is* kPinnedAfterFirst — and
  /// never swaps, which is the whole point of pipeline parallelism here.
  double pin = 0.0;
  /// Energy per image for the range's offloaded layers.
  double energy = 0.0;
  /// Capability metric of the range (Σ LayerPlan::cycles_per_location).
  std::size_t split_passes = 0;
};

/// Activation hand-off between consecutive pipeline stages. A split run
/// is bit-identical to a whole-network run from the same request seed: each
/// op's noise is keyed by (request seed, op), and the chips of PCUs that
/// share a config seed are the same chip.
struct StageHandoff {
  nn::Tensor activation;
  /// Accumulated simulated energy across the stages run so far [J].
  double energy = 0.0;
  /// Engine-phase work counters of *this* stage's range only; the
  /// pipelined worker accumulates them across the chain into the final
  /// RequestResult (mirroring how `energy` accumulates via energy_so_far).
  EngineWork work;
};

/// Cumulative counters for one PCU (wall-clock sharding outcome).
struct PcuStats {
  std::size_t requests_served = 0;
  double busy_time_serial = 0.0;     ///< simulated, serial schedule [s]
  double busy_time_overlapped = 0.0; ///< simulated, double-buffered [s]
  double energy = 0.0;               ///< simulated [J]
};

class Pcu {
 public:
  /// Build one unit: `config`/`fidelity` shape the accelerator model,
  /// `net`/`weights` are the primary served model, id 0 (borrowed; must
  /// outlive the Pcu). `warmup` picks the pipeline-fill accounting of the
  /// admission loop and `tag` is a free-form capability label surfaced in
  /// per-PCU report breakdowns ("big", "edge", ...).
  Pcu(std::size_t index, const core::PcnnaConfig& config,
      core::TimingFidelity fidelity, const nn::Network& net,
      const nn::NetWeights& weights,
      WarmupPolicy warmup = WarmupPolicy::kRechargeAfterIdle,
      std::string tag = {});

  std::size_t index() const { return index_; }
  const PcuStats& stats() const { return stats_; }
  WarmupPolicy warmup_policy() const { return warmup_policy_; }
  const std::string& tag() const { return tag_; }
  /// This PCU's hardware model (with any engine-thread override applied;
  /// the engine's copy, the Pcu's only one) and timing fidelity.
  const core::PcnnaConfig& config() const { return accelerator_.config(); }
  core::TimingFidelity fidelity() const { return accelerator_.fidelity(); }

  /// Register another model this PCU can be programmed with (borrowed;
  /// must outlive the Pcu). Returns the new model id (dense, starting at
  /// 1 — id 0 is the constructor's primary model). Throws if this PCU's
  /// config cannot map the network (SRAM working-set overflow).
  std::uint32_t add_model(const nn::Network& net,
                          const nn::NetWeights& weights);

  /// Number of registered models (>= 1).
  std::size_t num_models() const { return models_.size(); }

  /// Serve one request: key the engine's noise to the request's seed (so
  /// the result does not depend on what this PCU served before), run the
  /// request's model (request.model_id), and price it: serve_stage over
  /// the whole model. The run reads this PCU's layer programs of the model;
  /// the first request that reaches an offloaded op fills its program.
  /// `simulate_values` as in core::Accelerator::run.
  ///
  /// Preconditions: request.model_id < num_models() and the request's
  /// input matches that model's input shape (throws pcnna::Error
  /// otherwise). Not thread-safe per Pcu — each Pcu is owned by exactly
  /// one PcuPool worker thread at a time; distinct Pcus may serve
  /// concurrently. Internally the accelerator engine may additionally fan
  /// one request's pixel sweep across PcnnaConfig::engine_threads workers
  /// (BatchRunnerOptions::engine_threads sets it fleet-wide); that
  /// intra-image parallelism is deterministic and does not change any
  /// output bit.
  RequestResult serve(const InferenceRequest& request, bool simulate_values);

  /// Run ops [op_begin, op_end) of `model` — one pipeline stage — from
  /// `input` under the request's `seed`, which every stage reseeds from as
  /// serve() does. Returns the activation leaving the range and the
  /// accumulated energy (incoming hand-off energy plus this range's). Same
  /// thread-ownership rules as serve().
  StageHandoff serve_stage(std::uint32_t model, std::size_t op_begin,
                           std::size_t op_end, const nn::Tensor& input,
                           std::uint64_t seed, double energy_so_far,
                           bool simulate_values);

  /// Serving constants for the stage [op_begin, op_end) of `model`,
  /// computed on demand from this PCU's config by the same formula as the
  /// whole-model constants, which are exactly
  /// stage_timings(model, 0, ops) (serial, interval, pin = warmup, energy,
  /// split_passes).
  StageTimings stage_timings(std::uint32_t model, std::size_t op_begin,
                             std::size_t op_end) const;

  /// The registered network behind `model` (borrowed). The pipeline
  /// builder partitions it and validates stage ranges against it.
  const nn::Network& model_network(std::uint32_t model) const {
    return *timings(model).net;
  }

  // The accessors below are precomputed per-model constants (set at
  // registration, immutable after), so they are safe to read from any
  // thread — the virtual-time admission loop reads them while workers
  // serve. `model` indexes the registry; the default is the primary model,
  // keeping every pre-multi-model call site unchanged.

  /// Simulated time for one request [s], serial schedule
  /// (Σ layer full_system_time).
  double request_time_serial(std::uint32_t model = 0) const {
    return timings(model).whole.serial;
  }

  /// Simulated steady-state interval between request completions with
  /// double-buffered recalibration [s].
  double request_interval_overlapped(std::uint32_t model = 0) const {
    return timings(model).whole.interval;
  }

  /// One-time pipeline fill [s]: the first request's first-layer
  /// recalibration, which nothing earlier can hide. When (and how often)
  /// the admission loop re-charges it is governed by warmup_policy().
  double warmup_time(std::uint32_t model = 0) const {
    return timings(model).whole.pin;
  }

  /// Weight-bank swap cost [s]: the full serial reprogram (Σ layer
  /// recalibrations — MRR retuning + thermal settling) this PCU pays on
  /// the double-buffered schedule when it switches to `model` from a
  /// *different* programmed model. The outgoing model's compute stream is
  /// gone, so none of it can hide behind the Fig. 4 overlap; it subsumes
  /// warmup_time() (the first layer's share of the same sum). Always
  /// <= request_interval_overlapped(model): each recalibration appears in
  /// exactly one max() term of the interval sum.
  double swap_time(std::uint32_t model = 0) const {
    return timings(model).swap_time;
  }

  /// Simulated energy per request [J] (analytical layer energies;
  /// value-independent).
  double request_energy(std::uint32_t model = 0) const {
    return timings(model).whole.energy;
  }

  /// Capability metric for dispatch: sequential weight-bank passes per
  /// kernel location this PCU needs for the given model, summed over the
  /// offloaded layers (LayerPlan::cycles_per_location — WDM channel-group
  /// segmentation times any per-channel allocation passes). A receptive
  /// field wider than PcnnaConfig::max_wavelengths splits into sequential
  /// bank passes whose partial sums add electronically, and the
  /// per-channel ring allocation retunes once per input channel, so a
  /// small-budget PCU pays *extra splits* (and time) that a big one does
  /// not. DispatchPolicy::kCapabilityAware skips PCUs whose count exceeds
  /// the fleet minimum for the request's model.
  std::size_t channel_split_passes(std::uint32_t model = 0) const {
    return timings(model).whole.split_passes;
  }

 private:
  /// Per-model precomputed serving constants plus the borrowed model: the
  /// whole model as one range (stage_timings over every op) and the
  /// weight-bank swap.
  struct ModelSlot {
    const nn::Network* net = nullptr;
    const nn::NetWeights* weights = nullptr;
    StageTimings whole;
    double swap_time = 0.0;
  };

  const ModelSlot& timings(std::uint32_t model) const;

  /// The layer programs of registered model `model`, one per op; none
  /// when values are not simulated.
  std::span<core::LayerProgram> programs(std::uint32_t model,
                                         bool simulate_values);

  std::size_t index_;
  core::Accelerator accelerator_;
  WarmupPolicy warmup_policy_;
  std::string tag_;
  PcuStats stats_;
  std::vector<ModelSlot> models_;
  /// The layer programs of each registered model, one per op once the
  /// model is first served: the first request that runs an offloaded op
  /// fills its program and later ones read it (core::LayerProgram; 16 B
  /// per weight). Apart from models_, whose timing constants the admission
  /// loop reads from other threads: only the thread that owns this Pcu
  /// touches these.
  std::vector<std::vector<core::LayerProgram>> programs_;
};

} // namespace pcnna::runtime
