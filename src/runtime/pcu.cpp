#include "runtime/pcu.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "core/energy_model.hpp"
#include "core/scheduler.hpp"
#include "core/timing_model.hpp"

namespace pcnna::runtime {

const char* warmup_policy_name(WarmupPolicy policy) {
  switch (policy) {
    case WarmupPolicy::kRechargeAfterIdle: return "recharge-after-idle";
    case WarmupPolicy::kPinnedAfterFirst: return "pinned-after-first";
    case WarmupPolicy::kAlwaysCold: return "always-cold";
  }
  // -Werror=switch makes the switch exhaustive at build time; reaching
  // here means an out-of-range cast, not a missing case.
  throw Error("invalid WarmupPolicy");
}

Pcu::Pcu(std::size_t index, const core::PcnnaConfig& config,
         core::TimingFidelity fidelity, const nn::Network& net,
         const nn::NetWeights& weights, WarmupPolicy warmup, std::string tag)
    : index_(index),
      config_(config),
      fidelity_(fidelity),
      accelerator_(config, fidelity),
      warmup_policy_(warmup),
      tag_(std::move(tag)) {
  add_model(net, weights);
}

namespace {

/// Serving constants of ops [op_begin, op_end) of `net` on one device
/// model — the one home of the per-range timing formula, shared by the
/// whole-model slot (add_model) and pipeline stages (stage_timings).
/// `swap`, when given, receives the range's plain recalibration sum.
StageTimings range_timings(const core::PcnnaConfig& config,
                           core::TimingFidelity fidelity,
                           const nn::Network& net, std::size_t op_begin,
                           std::size_t op_end, double* swap = nullptr) {
  std::vector<nn::ConvLayerParams> layers;
  for (std::size_t i = op_begin; i < op_end; ++i)
    if (net.ops()[i].kind == nn::OpKind::kConv)
      layers.push_back(net.ops()[i].conv);

  const core::TimingModel timing(config, fidelity);
  const core::EnergyModel energy(config);
  const core::Scheduler scheduler(config);

  StageTimings st;
  // Per-layer split into recalibration (hideable behind the previous
  // layer's compute via the shadow bank set) and everything else (floored
  // by the layer's concurrent DRAM stream, which stays exposed).
  std::vector<double> recal(layers.size(), 0.0);
  std::vector<double> nonrecal(layers.size(), 0.0);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const core::LayerTiming t = timing.layer_time(layers[i]);
    recal[i] = t.weight_load_time;
    nonrecal[i] =
        std::max(t.full_system_time - t.weight_load_time, t.dram_time);
    st.serial += t.full_system_time;
    // Capability metric: sequential bank passes per kernel location this
    // config needs for the layer (1 when the receptive field fits a
    // full-kernel bank; channel-group segments x per-channel passes
    // otherwise).
    st.split_passes += scheduler.plan(layers[i]).cycles_per_location;
  }

  // Steady-state interval: layer i's optical pass of image r overlaps the
  // recalibration for layer i+1 — wrapping to the range's first layer of
  // image r+1 at its end, which is what lifts the Fig. 4 overlap from one
  // layer to the whole request stream.
  for (std::size_t i = 0; i < layers.size(); ++i) {
    st.interval += std::max(nonrecal[i], recal[(i + 1) % layers.size()]);
    // Switching the programmed model reprograms every bank with nothing to
    // hide behind: the swap is the plain sum of the recalibrations.
    if (swap) *swap += recal[i];
  }
  // A recalibration that was already hidden under its own layer's DRAM
  // stream in the serial schedule can make the sum above exceed the serial
  // time; double buffering can always fall back to the serial schedule, so
  // the interval is capped there.
  st.interval = std::min(st.interval, st.serial);
  st.pin = layers.empty() ? 0.0 : recal.front();
  for (const core::EnergyReport& e : energy.network_energy(layers, fidelity))
    st.energy += e.total();
  return st;
}

} // namespace

std::uint32_t Pcu::add_model(const nn::Network& net,
                             const nn::NetWeights& weights) {
  ModelSlot slot;
  slot.net = &net;
  slot.weights = &weights;
  slot.whole = range_timings(config_, fidelity_, net, 0, net.ops().size(),
                             &slot.swap_time);
  models_.push_back(slot);
  return static_cast<std::uint32_t>(models_.size() - 1);
}

const Pcu::ModelSlot& Pcu::timings(std::uint32_t model) const {
  PCNNA_CHECK_MSG(model < models_.size(),
                  "PCU " << index_ << " has " << models_.size()
                         << " registered models, no model " << model);
  return models_[model];
}

StageTimings Pcu::stage_timings(std::uint32_t model, std::size_t op_begin,
                                std::size_t op_end) const {
  const ModelSlot& slot = timings(model);
  PCNNA_CHECK_MSG(op_begin <= op_end && op_end <= slot.net->ops().size(),
                  "stage range [" << op_begin << ", " << op_end
                                  << ") out of bounds for model " << model);
  return range_timings(config_, fidelity_, *slot.net, op_begin, op_end);
}

StageHandoff Pcu::serve_stage(std::uint32_t model, std::size_t op_begin,
                              std::size_t op_end, const nn::Tensor& input,
                              const Rng::State* rng, std::uint64_t seed,
                              double energy_so_far, bool simulate_values) {
  const ModelSlot& slot = timings(model);
  // First stage: restart the noise stream from the request seed, exactly
  // like serve(). Later stages: resume the stream where the previous
  // stage's PCU left it, so the split run draws the same values a
  // whole-network run would.
  if (rng == nullptr) {
    accelerator_.reseed_engine(seed);
  } else {
    accelerator_.set_engine_rng_state(*rng);
  }
  core::NetworkRunReport run = accelerator_.run_range(
      *slot.net, *slot.weights, input, op_begin, op_end, simulate_values);

  StageHandoff handoff;
  handoff.activation = std::move(run.output);
  handoff.rng = accelerator_.engine_rng_state();
  handoff.energy = energy_so_far + run.total_energy;
  for (const core::LayerRunReport& l : run.conv_layers)
    handoff.work.add(l.engine);
  for (const core::LayerRunReport& l : run.fc_layers)
    handoff.work.add(l.engine);
  stats_.energy += run.total_energy;
  return handoff;
}

RequestResult Pcu::serve(const InferenceRequest& request,
                         bool simulate_values) {
  const ModelSlot& slot = timings(request.model_id);
  // Per-request reseed: the engine's noise stream restarts from the
  // request's own seed, so the output is identical whether this request is
  // the first thing this PCU ever ran or the thousandth.
  accelerator_.reseed_engine(request.seed);
  core::NetworkRunReport run = accelerator_.run(
      *slot.net, *slot.weights, request.input, simulate_values,
      /*compare_reference=*/false);

  RequestResult result;
  result.id = request.id;
  result.pcu_index = index_;
  result.output = std::move(run.output);
  result.service_time_serial = slot.whole.serial;
  result.service_time_overlapped = slot.whole.interval;
  result.energy = run.total_energy;
  result.model_id = request.model_id;
  result.tenant = request.tenant;
  for (const core::LayerRunReport& l : run.conv_layers)
    result.work.add(l.engine);
  for (const core::LayerRunReport& l : run.fc_layers)
    result.work.add(l.engine);

  stats_.requests_served += 1;
  stats_.busy_time_serial += slot.whole.serial;
  stats_.busy_time_overlapped += slot.whole.interval;
  stats_.energy += run.total_energy;
  return result;
}

} // namespace pcnna::runtime
