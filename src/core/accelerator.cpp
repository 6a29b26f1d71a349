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

Accelerator::Accelerator(PcnnaConfig config, TimingFidelity fidelity)
    : config_(std::move(config)),
      fidelity_(fidelity),
      scheduler_(config_),
      timing_(config_, fidelity),
      energy_(config_),
      engine_(config_) {}

NetworkRunReport Accelerator::run_ops(const nn::Network& net,
                                      const nn::NetWeights& weights,
                                      const nn::Tensor& input,
                                      std::size_t op_begin, std::size_t op_end,
                                      bool simulate_values,
                                      bool compare_reference) {
  PCNNA_CHECK(weights.weight.size() == net.ops().size());
  PCNNA_CHECK(weights.bias.size() == net.ops().size());
  PCNNA_CHECK_MSG(op_begin <= op_end && op_end <= net.ops().size(),
                  "op range [" << op_begin << ", " << op_end
                               << ") out of bounds for network '"
                               << net.name() << "'");
  PCNNA_CHECK_MSG(input.shape() == net.shape_before(op_begin),
                  "input does not match network '" << net.name()
                                                   << "' at op " << op_begin);

  NetworkRunReport report;
  nn::Tensor x = input;
  // Offload one layer to the optical core: price its plan, simulate it (or
  // run the golden layer in its place), compare the two only when asked,
  // and add the layer to the totals.
  const auto offload = [&](const nn::ConvLayerParams& params,
                           const auto& simulate, const auto& golden) {
    LayerRunReport layer;
    layer.layer_name = params.name;
    layer.timing = timing_.layer_time(params);
    layer.energy = energy_.layer_energy(scheduler_.plan(params), layer.timing);
    if (simulate_values) {
      nn::Tensor sim_out = simulate(layer.engine);
      if (compare_reference) compare_layer(sim_out, golden(), layer);
      x = std::move(sim_out);
    } else {
      x = golden();
    }
    report.total_optical_core_time += layer.timing.optical_core_time;
    report.total_full_system_time += layer.timing.full_system_time;
    report.total_energy += layer.energy.total();
    return layer;
  };

  for (std::size_t i = op_begin; i < op_end; ++i) {
    const nn::LayerOp& op = net.ops()[i];
    const nn::Tensor& w = weights.weight[i];
    const nn::Tensor& b = weights.bias[i];
    const auto golden_fc = [&] { return nn::fully_connected(x, w, b); };
    switch (op.kind) {
      case nn::OpKind::kConv:
        report.conv_layers.push_back(offload(
            op.conv,
            [&](EngineStats& st) {
              return engine_.conv2d(x, w, b, op.conv.s, op.conv.p, &st);
            },
            [&] { return nn::conv2d_direct(x, w, b, op.conv.s, op.conv.p); }));
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
      case nn::OpKind::kFullyConnected:
        if (!config_.accelerate_fc) {
          x = golden_fc();
          break;
        }
        // An FC layer is exactly a 1x1 conv over a 1x1 feature map with
        // nc = in and K = out, so the conv planning/timing/energy machinery
        // prices it unchanged.
        report.fc_layers.push_back(offload(
            nn::ConvLayerParams{"fc@op" + std::to_string(i), 1, 1, 0, 1,
                                x.size(), op.fc.out},
            [&](EngineStats& st) {
              return engine_.fully_connected(x, w, b, &st);
            },
            golden_fc));
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
                                        bool simulate_values) {
  return run_ops(net, weights, input, op_begin, op_end, simulate_values,
                 /*compare_reference=*/false);
}

NetworkRunReport Accelerator::run(const nn::Network& net,
                                  const nn::NetWeights& weights,
                                  const nn::Tensor& input,
                                  bool simulate_values,
                                  bool compare_reference) {
  NetworkRunReport report = run_ops(net, weights, input, 0, net.ops().size(),
                                    simulate_values, compare_reference);

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
