#include "core/accelerator.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/mathutil.hpp"
#include "nn/conv_ref.hpp"

namespace pcnna::core {
namespace {

/// Fill `layer`'s fidelity metrics: the simulated output `sim` against the
/// golden result `ref` on the same layer input.
void compare_layer(const nn::Tensor& sim, const nn::Tensor& ref,
                   LayerRunReport& layer) {
  layer.max_abs_err_vs_reference = nn::max_abs_diff(sim, ref);
  layer.rmse_vs_reference = rmse(sim.data(), ref.data());
}

} // namespace

std::optional<nn::ConvLayerParams> offloaded_layer(const PcnnaConfig& config,
                                                   const nn::Network& net,
                                                   std::size_t op) {
  const nn::LayerOp& o = net.ops().at(op);
  if (o.kind == nn::OpKind::kConv) return o.conv;
  // An FC layer is exactly a 1x1 conv over a 1x1 feature map with nc = in
  // and K = out, so the conv planning/timing/energy machinery prices it
  // unchanged.
  if (o.kind == nn::OpKind::kFullyConnected && config.accelerate_fc)
    return nn::ConvLayerParams{"fc@op" + std::to_string(op), 1, 1, 0, 1,
                               net.shape_before(op).elements(), o.fc.out};
  return std::nullopt;
}

Accelerator::Accelerator(PcnnaConfig config, TimingFidelity fidelity)
    : fidelity_(fidelity),
      engine_(std::move(config)),
      seed_(engine_.config().seed) {}

NetworkRunReport Accelerator::run_ops(const nn::Network& net,
                                      const nn::NetWeights& weights,
                                      const nn::Tensor& input,
                                      std::size_t op_begin, std::size_t op_end,
                                      bool simulate_values,
                                      bool compare_reference,
                                      std::span<LayerProgram> programs) {
  nn::validate_weights(net, weights);
  PCNNA_CHECK_MSG(programs.empty() || programs.size() == net.ops().size(),
                  "got " << programs.size() << " layer programs for network '"
                         << net.name() << "' of " << net.ops().size()
                         << " ops");
  PCNNA_CHECK_MSG(op_begin <= op_end && op_end <= net.ops().size(),
                  "op range [" << op_begin << ", " << op_end
                               << ") out of bounds for network '"
                               << net.name() << "'");
  PCNNA_CHECK_MSG(input.shape() == net.shape_before(op_begin),
                  "input does not match network '" << net.name()
                                                   << "' at op " << op_begin);

  const Scheduler scheduler(config());
  const TimingModel timing(config(), fidelity_);
  const EnergyModel energy(config());
  NetworkRunReport report;
  nn::Tensor x = input;
  for (std::size_t i = op_begin; i < op_end; ++i) {
    const nn::LayerOp& op = net.ops()[i];
    const nn::Tensor& w = weights.weight[i];
    const nn::Tensor& b = weights.bias[i];
    const auto golden = [&] {
      return op.kind == nn::OpKind::kConv
                 ? nn::conv2d_direct(x, w, b, op.conv.s, op.conv.p)
                 : nn::fully_connected(x, w, b);
    };
    // Offload the layer to the optical core: price its plan, simulate it (or
    // run the golden layer in its place), compare the two only when asked,
    // and add the layer to the totals. An FC layer runs as the 1x1 conv it
    // is priced as, on its input as a [1, in, 1, 1] map.
    if (const std::optional<nn::ConvLayerParams> params =
            offloaded_layer(config(), net, i)) {
      const nn::Shape4 map{1, params->nc, params->n, params->n};
      if (x.shape() != map)
        x = nn::Tensor(map, {x.data().begin(), x.data().end()});
      LayerRunReport layer;
      layer.layer_name = params->name;
      layer.timing = timing.layer_time(*params);
      layer.energy =
          energy.layer_energy(scheduler.plan(*params), layer.timing);
      if (simulate_values) {
        engine_.reseed_rng(derive_seed(seed_, i));
        nn::Tensor sim_out =
            engine_.conv2d(x, w, b, params->s, params->p, &layer.engine,
                           programs.empty() ? nullptr : &programs[i]);
        if (compare_reference) compare_layer(sim_out, golden(), layer);
        x = std::move(sim_out);
      } else {
        x = golden();
      }
      report.total_optical_core_time += layer.timing.optical_core_time;
      report.total_full_system_time += layer.timing.full_system_time;
      report.total_energy += layer.energy.total();
      (op.kind == nn::OpKind::kConv ? report.conv_layers : report.fc_layers)
          .push_back(std::move(layer));
      continue;
    }
    switch (op.kind) {
      case nn::OpKind::kConv: // offloaded above, whatever the config
      case nn::OpKind::kFullyConnected:
        x = golden();
        break;
      case nn::OpKind::kReLU:
        x = nn::relu(x);
        break;
      case nn::OpKind::kMaxPool:
        x = nn::maxpool2d(x, op.pool.window, op.pool.stride);
        break;
      case nn::OpKind::kAvgPool:
        x = nn::avgpool2d(x, op.pool.window, op.pool.stride);
        break;
      case nn::OpKind::kLRN:
        x = nn::lrn(x, op.lrn.size, op.lrn.alpha, op.lrn.beta, op.lrn.k);
        break;
      case nn::OpKind::kSoftmax:
        x = nn::softmax(x);
        break;
    }
  }
  report.output = std::move(x);
  return report;
}

NetworkRunReport Accelerator::run_range(const nn::Network& net,
                                        const nn::NetWeights& weights,
                                        const nn::Tensor& input,
                                        std::size_t op_begin,
                                        std::size_t op_end,
                                        bool simulate_values,
                                        std::span<LayerProgram> programs) {
  return run_ops(net, weights, input, op_begin, op_end, simulate_values,
                 /*compare_reference=*/false, programs);
}

NetworkRunReport Accelerator::run(const nn::Network& net,
                                  const nn::NetWeights& weights,
                                  const nn::Tensor& input,
                                  bool simulate_values,
                                  bool compare_reference) {
  NetworkRunReport report = run_ops(net, weights, input, 0, net.ops().size(),
                                    simulate_values, compare_reference, {});

  if (compare_reference) {
    report.reference_output = nn::forward_reference(net, weights, input);
    report.output_rmse =
        rmse(report.output.data(), report.reference_output.data());
    report.output_max_abs_err =
        nn::max_abs_diff(report.output, report.reference_output);
    // Compare argmax (meaningful for classifier outputs, harmless otherwise).
    std::size_t arg_sim = 0, arg_ref = 0;
    for (std::size_t j = 1; j < report.output.size(); ++j) {
      if (report.output[j] > report.output[arg_sim]) arg_sim = j;
      if (report.reference_output[j] > report.reference_output[arg_ref])
        arg_ref = j;
    }
    report.argmax_match = arg_sim == arg_ref;
  }
  return report;
}

} // namespace pcnna::core
