#include "nn/network.hpp"

#include "nn/conv_ref.hpp"

namespace pcnna::nn {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kConv: return "conv";
    case OpKind::kReLU: return "relu";
    case OpKind::kMaxPool: return "maxpool";
    case OpKind::kAvgPool: return "avgpool";
    case OpKind::kLRN: return "lrn";
    case OpKind::kFullyConnected: return "fc";
    case OpKind::kSoftmax: return "softmax";
  }
  return "?";
}

Network::Network(std::string name, Shape4 input)
    : name_(std::move(name)), input_(input), current_(input) {
  PCNNA_CHECK_MSG(input.n == 1, "network input must have batch 1");
  PCNNA_CHECK(input.elements() > 0);
}

Network& Network::add_conv(ConvLayerParams params) {
  params.validate();
  PCNNA_CHECK_MSG(current_.h == current_.w,
                  "conv '" << params.name << "': running shape not square ("
                           << current_.h << "x" << current_.w << ")");
  PCNNA_CHECK_MSG(params.n == current_.h,
                  "conv '" << params.name << "': n=" << params.n
                           << " but running side is " << current_.h);
  PCNNA_CHECK_MSG(params.nc == current_.c,
                  "conv '" << params.name << "': nc=" << params.nc
                           << " but running channels are " << current_.c);
  const std::size_t side = params.output_side();
  current_ = Shape4{1, params.K, side, side};
  ops_.push_back(LayerOp{OpKind::kConv, std::move(params), {}, {}, {}});
  shapes_.push_back(current_);
  return *this;
}

Network& Network::add_relu() {
  ops_.push_back(LayerOp{OpKind::kReLU, {}, {}, {}, {}});
  shapes_.push_back(current_);
  return *this;
}

Network& Network::add_maxpool(std::size_t window, std::size_t stride) {
  PCNNA_CHECK(window > 0 && stride > 0);
  PCNNA_CHECK_MSG(current_.h >= window && current_.w >= window,
                  "maxpool window larger than running shape");
  current_.h = (current_.h - window) / stride + 1;
  current_.w = (current_.w - window) / stride + 1;
  ops_.push_back(LayerOp{OpKind::kMaxPool, {}, PoolOp{window, stride}, {}, {}});
  shapes_.push_back(current_);
  return *this;
}

Network& Network::add_avgpool(std::size_t window, std::size_t stride) {
  PCNNA_CHECK(window > 0 && stride > 0);
  PCNNA_CHECK_MSG(current_.h >= window && current_.w >= window,
                  "avgpool window larger than running shape");
  current_.h = (current_.h - window) / stride + 1;
  current_.w = (current_.w - window) / stride + 1;
  ops_.push_back(LayerOp{OpKind::kAvgPool, {}, PoolOp{window, stride}, {}, {}});
  shapes_.push_back(current_);
  return *this;
}

Network& Network::add_lrn(LrnOp op) {
  PCNNA_CHECK(op.size > 0);
  ops_.push_back(LayerOp{OpKind::kLRN, {}, {}, op, {}});
  shapes_.push_back(current_);
  return *this;
}

Network& Network::add_fc(std::size_t out) {
  PCNNA_CHECK(out > 0);
  current_ = Shape4{1, out, 1, 1};
  ops_.push_back(LayerOp{OpKind::kFullyConnected, {}, {}, {}, FcOp{out}});
  shapes_.push_back(current_);
  return *this;
}

Network& Network::add_softmax() {
  ops_.push_back(LayerOp{OpKind::kSoftmax, {}, {}, {}, {}});
  shapes_.push_back(current_);
  return *this;
}

Shape4 Network::shape_before(std::size_t op) const {
  PCNNA_CHECK_MSG(op <= ops_.size(), "op index " << op << " out of range");
  return op == 0 ? input_ : shapes_[op - 1];
}

Shape4 Network::shape_after(std::size_t op) const {
  PCNNA_CHECK_MSG(op < ops_.size(), "op index " << op << " out of range");
  return shapes_[op];
}

std::vector<ConvLayerParams> Network::conv_layers() const {
  std::vector<ConvLayerParams> layers;
  for (const LayerOp& op : ops_)
    if (op.kind == OpKind::kConv) layers.push_back(op.conv);
  return layers;
}

std::uint64_t Network::conv_macs() const {
  std::uint64_t total = 0;
  for (const LayerOp& op : ops_)
    if (op.kind == OpKind::kConv) total += op.conv.macs();
  return total;
}

std::optional<ParamShapes> Network::param_shapes(std::size_t op) const {
  PCNNA_CHECK_MSG(op < ops_.size(), "op index " << op << " out of range");
  const LayerOp& o = ops_[op];
  switch (o.kind) {
    case OpKind::kConv:
      return ParamShapes{{o.conv.K, o.conv.nc, o.conv.m, o.conv.m},
                         {1, o.conv.K, 1, 1}};
    case OpKind::kFullyConnected:
      return ParamShapes{{o.fc.out, shape_before(op).elements(), 1, 1},
                         {1, o.fc.out, 1, 1}};
    default:
      return std::nullopt;
  }
}

std::uint64_t Network::weight_count() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < ops_.size(); ++i)
    if (const std::optional<ParamShapes> shapes = param_shapes(i))
      total += shapes->weight.elements();
  return total;
}

Tensor forward_reference(const Network& net, const NetWeights& weights,
                         const Tensor& input) {
  PCNNA_CHECK_MSG(input.shape() == net.input_shape(),
                  "input shape does not match network '" << net.name() << "'");
  validate_weights(net, weights);

  Tensor x = input;
  for (std::size_t i = 0; i < net.ops().size(); ++i) {
    const LayerOp& op = net.ops()[i];
    switch (op.kind) {
      case OpKind::kConv:
        x = conv2d_direct(x, weights.weight[i], weights.bias[i], op.conv.s,
                          op.conv.p);
        break;
      case OpKind::kReLU:
        x = relu(x);
        break;
      case OpKind::kMaxPool:
        x = maxpool2d(x, op.pool.window, op.pool.stride);
        break;
      case OpKind::kAvgPool:
        x = avgpool2d(x, op.pool.window, op.pool.stride);
        break;
      case OpKind::kLRN:
        x = lrn(x, op.lrn.size, op.lrn.alpha, op.lrn.beta, op.lrn.k);
        break;
      case OpKind::kFullyConnected:
        x = fully_connected(x, weights.weight[i], weights.bias[i]);
        break;
      case OpKind::kSoftmax:
        x = softmax(x);
        break;
    }
  }
  return x;
}

} // namespace pcnna::nn
