// Full-system PCNNA accelerator simulator.
//
// Runs a whole CNN the way the paper's architecture does (SS IV): conv
// layers execute on the (virtually reused) optical core, layer by layer,
// with feature maps round-tripping through off-chip DRAM; everything else
// (ReLU, pooling, LRN, FC, softmax) runs in the electronic domain. Produces
// per-layer timing, energy, and engine statistics, plus numerical-fidelity
// metrics against the golden CPU reference.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/energy_model.hpp"
#include "core/optical_conv_engine.hpp"
#include "core/scheduler.hpp"
#include "core/timing_model.hpp"
#include "nn/network.hpp"
#include "nn/tensor.hpp"

namespace pcnna::core {

/// Results for one conv layer of a network run.
struct LayerRunReport {
  std::string layer_name;
  LayerTiming timing;      ///< at the accelerator's configured fidelity
  EnergyReport energy;
  EngineStats engine;      ///< zeros when values were not simulated
  /// Engine output vs the golden layer (conv, or FC under accelerate_fc) on
  /// the same layer input. Only Accelerator::run(..., simulate_values=true,
  /// compare_reference=true) fills them; every other run leaves them zero
  /// and computes no golden layer beside the simulated one.
  double rmse_vs_reference = 0.0;
  double max_abs_err_vs_reference = 0.0;
};

/// Results for a whole network run.
struct NetworkRunReport {
  std::vector<LayerRunReport> conv_layers;
  /// Filled when PcnnaConfig::accelerate_fc is set: FC layers offloaded to
  /// the optical core (modeled as 1x1 convs on a 1x1 feature map).
  std::vector<LayerRunReport> fc_layers;
  nn::Tensor output;          ///< network output (simulated path)
  nn::Tensor reference_output;///< golden CPU output (when compared)
  double total_optical_core_time = 0.0;
  double total_full_system_time = 0.0;
  double total_energy = 0.0;
  /// Final-output fidelity (cumulative error through the whole net).
  double output_rmse = 0.0;
  double output_max_abs_err = 0.0;
  /// True when simulated and reference argmax agree (classification nets).
  bool argmax_match = true;
};

class Accelerator {
 public:
  explicit Accelerator(PcnnaConfig config,
                       TimingFidelity fidelity = TimingFidelity::kPaper);

  const PcnnaConfig& config() const { return config_; }

  /// Reseed the functional engine's noise/fabrication RNG. The batch
  /// runtime calls this with a per-request seed before each run() so that
  /// results are independent of request ordering and PCU assignment.
  void reseed_engine(std::uint64_t seed) { engine_.reseed_rng(seed); }

  /// Snapshot / restore the engine RNG mid-network. Pipelined serving runs
  /// a network as contiguous op ranges on different PCUs; carrying the RNG
  /// state across the stage boundary keeps the split run bit-identical to
  /// a whole-network run from the same request seed (the engine draws
  /// noise/fabrication values strictly in layer order).
  Rng::State engine_rng_state() const { return engine_.rng_state(); }
  void set_engine_rng_state(const Rng::State& state) {
    engine_.set_rng_state(state);
  }

  /// Run a network end to end.
  ///
  /// `simulate_values == true` pushes every conv through the photonic
  /// functional model (slow, exact error accounting); `false` computes conv
  /// values with the golden CPU path but still produces the full timing /
  /// energy / plan reports (fast, for large nets).
  /// `compare_reference` additionally runs the pure CPU reference and fills
  /// the fidelity metrics: the whole-network ones, and with simulated
  /// values each layer's LayerRunReport::*_vs_reference, which costs one
  /// golden conv per layer. Without it no golden layer runs beside a
  /// simulated one and those per-layer metrics stay zero; the output bits
  /// are the same either way.
  NetworkRunReport run(const nn::Network& net, const nn::NetWeights& weights,
                       const nn::Tensor& input, bool simulate_values = true,
                       bool compare_reference = true);

  /// Run the contiguous op range [op_begin, op_end) — one pipeline stage.
  /// `input` must match net.shape_before(op_begin); the report's output is
  /// the activation leaving op_end - 1. run(..., compare_reference=false)
  /// is exactly run_range(0, ops.size()). Ranges carry no reference
  /// metrics, per layer or whole-network (the golden prefix is not
  /// replayed), and compute no golden layer unless simulate_values is
  /// false, where the golden result is the layer output.
  NetworkRunReport run_range(const nn::Network& net,
                             const nn::NetWeights& weights,
                             const nn::Tensor& input, std::size_t op_begin,
                             std::size_t op_end, bool simulate_values = true);

  // Batch timing lives in runtime::BatchRunner / FleetReport: the old
  // Accelerator::run_batch / BatchReport pair was deprecated in PR 3 and
  // deleted in PR 4 (ROADMAP deprecation plan step 3). Field mapping:
  // images -> FleetReport::requests, time_per_image -> request_time_serial,
  // total_time -> makespan_sequential, images_per_second -> sequential_rps,
  // energy_per_image -> energy_per_request.

 private:
  /// The op loop behind run() and run_range(). Runs each layer's golden
  /// reference beside its simulated values only when `compare_reference`.
  NetworkRunReport run_ops(const nn::Network& net,
                           const nn::NetWeights& weights,
                           const nn::Tensor& input, std::size_t op_begin,
                           std::size_t op_end, bool simulate_values,
                           bool compare_reference);

  PcnnaConfig config_;
  TimingFidelity fidelity_;
  Scheduler scheduler_;
  TimingModel timing_;
  EnergyModel energy_;
  OpticalConvEngine engine_;
};

} // namespace pcnna::core
