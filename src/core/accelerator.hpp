// Full-system PCNNA accelerator simulator.
//
// Runs a whole CNN the way the paper's architecture does (SS IV): conv
// layers execute on the (virtually reused) optical core, layer by layer,
// with feature maps round-tripping through off-chip DRAM; everything else
// (ReLU, pooling, LRN, FC, softmax) runs in the electronic domain, except
// that PcnnaConfig::accelerate_fc runs each FC layer on the core as a 1x1
// conv. Both kinds go through the one OpticalConvEngine::conv2d. Produces
// per-layer timing, energy, and engine statistics, plus numerical-fidelity
// metrics against the golden CPU reference. The engine holds the chip's
// only PcnnaConfig; each run prices its layers with a Scheduler,
// TimingModel and EnergyModel built from it on the stack. Each offloaded
// op's sensor noise is keyed by (request seed, op index).
#pragma once

#include <optional>
#include <span>
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
  /// the optical core, run and priced as 1x1 convs on a 1x1 feature map.
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

/// The layer the optical core runs for op `op` of `net`: a conv's own
/// params; under PcnnaConfig::accelerate_fc an FC layer as the 1x1 conv
/// {"fc@op<i>", n = 1, m = 1, p = 0, s = 1, nc = inputs, K = out}; nullopt
/// for every op that runs electronically. Accelerator::run_ops offloads
/// exactly these layers, and serving prices exactly these.
std::optional<nn::ConvLayerParams> offloaded_layer(const PcnnaConfig& config,
                                                   const nn::Network& net,
                                                   std::size_t op);

class Accelerator {
 public:
  explicit Accelerator(PcnnaConfig config,
                       TimingFidelity fidelity = TimingFidelity::kPaper);

  const PcnnaConfig& config() const { return engine_.config(); }
  TimingFidelity fidelity() const { return fidelity_; }

  /// Set the request seed of later runs (initially PcnnaConfig::seed).
  /// Op i of a network runs under the noise key derive_seed(seed, i), so a
  /// layer's noise depends on the request and the op alone: not on request
  /// order, PCU assignment, or the op range a run covers. The batch runtime
  /// sets each request's seed before serving it. The chip itself is
  /// fabricated from PcnnaConfig::seed and does not change.
  void reseed_engine(std::uint64_t seed) { seed_ = seed; }

  /// Run a network end to end.
  ///
  /// `simulate_values == true` pushes every offloaded layer through the
  /// photonic functional model (slow, exact error accounting); `false`
  /// computes its values with the golden CPU path but still produces the
  /// full timing / energy / plan reports (fast, for large nets).
  /// `compare_reference` additionally runs the pure CPU reference and fills
  /// the fidelity metrics: the whole-network ones, and with simulated
  /// values each layer's LayerRunReport::*_vs_reference, which costs one
  /// golden layer per offloaded layer. Without it no golden layer runs
  /// beside a simulated one and those per-layer metrics stay zero; the
  /// output bits are the same either way. Throws if `weights` do not fit
  /// `net` (nn::validate_weights).
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
  ///
  /// `programs`, when given, holds one LayerProgram per op of `net` for
  /// these weights on this accelerator's chip (runtime::Pcu keeps them):
  /// each simulated offloaded layer fills its op's program on first use and
  /// reads it in place after. Without them every such layer programs its
  /// banks afresh.
  /// Outputs and EngineStats are the same bits either way.
  NetworkRunReport run_range(const nn::Network& net,
                             const nn::NetWeights& weights,
                             const nn::Tensor& input, std::size_t op_begin,
                             std::size_t op_end, bool simulate_values = true,
                             std::span<LayerProgram> programs = {});

 private:
  /// The op loop behind run() and run_range(). Runs each layer's golden
  /// reference beside its simulated values only when `compare_reference`.
  NetworkRunReport run_ops(const nn::Network& net,
                           const nn::NetWeights& weights,
                           const nn::Tensor& input, std::size_t op_begin,
                           std::size_t op_end, bool simulate_values,
                           bool compare_reference,
                           std::span<LayerProgram> programs);

  TimingFidelity fidelity_;
  OpticalConvEngine engine_;
  std::uint64_t seed_;
};

} // namespace pcnna::core
