#include "nn/synth.hpp"

#include <cmath>
#include <optional>

namespace pcnna::nn {

void fill_gaussian(Tensor& t, Rng& rng, double mean, double stddev) {
  for (double& v : t.data()) v = rng.normal(mean, stddev);
}

void fill_uniform(Tensor& t, Rng& rng, double lo, double hi) {
  for (double& v : t.data()) v = rng.uniform(lo, hi);
}

void fill_sparse_gaussian(Tensor& t, Rng& rng, double stddev, double sparsity) {
  PCNNA_CHECK(sparsity >= 0.0 && sparsity <= 1.0);
  for (double& v : t.data())
    v = rng.uniform() < sparsity ? 0.0 : rng.normal(0.0, stddev);
}

Tensor make_conv_weights(const ConvLayerParams& params, Rng& rng) {
  params.validate();
  Tensor w(Shape4{params.K, params.nc, params.m, params.m});
  const double stddev = std::sqrt(2.0 / static_cast<double>(params.kernel_size()));
  fill_gaussian(w, rng, 0.0, stddev);
  return w;
}

Tensor make_conv_bias(const ConvLayerParams& params, Rng& rng) {
  Tensor b(Shape4{1, params.K, 1, 1});
  fill_uniform(b, rng, -0.05, 0.05);
  return b;
}

Tensor make_input(const ConvLayerParams& params, Rng& rng) {
  params.validate();
  Tensor x(Shape4{1, params.nc, params.n, params.n});
  fill_uniform(x, rng, 0.0, 1.0);
  return x;
}

NetWeights make_network_weights(const Network& net, Rng& rng) {
  NetWeights w;
  w.weight.resize(net.ops().size());
  w.bias.resize(net.ops().size());
  for (std::size_t i = 0; i < net.ops().size(); ++i) {
    const std::optional<ParamShapes> shapes = net.param_shapes(i);
    if (!shapes) continue;
    // He-style scaling over the fan-in: nc * m * m for a conv kernel, the
    // flattened input for an fc row.
    const Shape4& ws = shapes->weight;
    const std::size_t fan_in = ws.c * ws.h * ws.w;
    w.weight[i] = Tensor(ws);
    fill_gaussian(w.weight[i], rng, 0.0,
                  std::sqrt(2.0 / static_cast<double>(fan_in)));
    w.bias[i] = Tensor(shapes->bias);
    fill_uniform(w.bias[i], rng, -0.05, 0.05);
  }
  return w;
}

Tensor make_network_input(const Network& net, Rng& rng) {
  Tensor x(net.input_shape());
  fill_uniform(x, rng, 0.0, 1.0);
  return x;
}

} // namespace pcnna::nn
