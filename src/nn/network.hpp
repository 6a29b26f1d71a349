// Sequential network description with shape inference.
//
// A Network is an ordered list of ops (conv / relu / pool / lrn / fc /
// softmax). Shapes are checked as ops are appended, so a mis-chained
// catalog model fails at construction, not at run time. The PCNNA
// accelerator executes the conv ops on the optical core and everything else
// electronically (paper SS IV: layers processed sequentially, feature maps
// round-tripping through DRAM).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "nn/conv_params.hpp"
#include "nn/tensor.hpp"

namespace pcnna::nn {

enum class OpKind {
  kConv,
  kReLU,
  kMaxPool,
  kAvgPool,
  kLRN,
  kFullyConnected,
  kSoftmax,
};

/// Printable op name, e.g. "conv", "maxpool".
const char* op_kind_name(OpKind kind);

struct PoolOp {
  std::size_t window = 0;
  std::size_t stride = 0;
};

struct LrnOp {
  std::size_t size = 5;
  double alpha = 1e-4;
  double beta = 0.75;
  double k = 2.0;
};

struct FcOp {
  std::size_t out = 0;
};

/// One layer in the sequence; only the member matching `kind` is meaningful.
struct LayerOp {
  OpKind kind = OpKind::kReLU;
  ConvLayerParams conv; ///< kConv
  PoolOp pool;          ///< kMaxPool / kAvgPool
  LrnOp lrn;            ///< kLRN
  FcOp fc;              ///< kFullyConnected
};

/// Shapes of one op's learned parameters.
struct ParamShapes {
  Shape4 weight;
  Shape4 bias;
};

/// Sequential CNN with construction-time shape checking.
class Network {
 public:
  /// `input` is the expected input feature-map shape (n must be 1).
  Network(std::string name, Shape4 input);

  const std::string& name() const { return name_; }
  Shape4 input_shape() const { return input_; }
  /// Shape after the last appended op.
  Shape4 output_shape() const { return current_; }

  /// Append a convolution. Throws if the params disagree with the running
  /// shape (nc vs channels, n vs height/width, non-square input).
  Network& add_conv(ConvLayerParams params);
  Network& add_relu();
  Network& add_maxpool(std::size_t window, std::size_t stride);
  Network& add_avgpool(std::size_t window, std::size_t stride);
  Network& add_lrn(LrnOp op = {});
  Network& add_fc(std::size_t out);
  Network& add_softmax();

  const std::vector<LayerOp>& ops() const { return ops_; }

  /// Shape of the feature map *entering* op i (i == 0 is the network
  /// input). Lets a pipeline stage starting mid-network validate its
  /// incoming activation without replaying the prefix.
  Shape4 shape_before(std::size_t op) const;

  /// Shape of the feature map *after* op i.
  Shape4 shape_after(std::size_t op) const;

  /// All convolution layers in order (the workload PCNNA accelerates).
  std::vector<ConvLayerParams> conv_layers() const;

  /// Total MACs across conv layers (conv dominates CNNs; paper SS I cites
  /// ~90% of all operations).
  std::uint64_t conv_macs() const;

  /// Parameter shapes of op i: conv weight {K, nc, m, m} and bias
  /// {1, K, 1, 1}, fc weight {out, inputs, 1, 1} and bias {1, out, 1, 1};
  /// nullopt for parameterless ops.
  std::optional<ParamShapes> param_shapes(std::size_t op) const;

  /// Total learned parameters (conv + fc weights, no biases).
  std::uint64_t weight_count() const;

 private:
  std::string name_;
  Shape4 input_{};
  Shape4 current_{};
  std::vector<LayerOp> ops_;
  /// shapes_[i] is the shape after op i (parallel to ops_).
  std::vector<Shape4> shapes_;
};

/// Per-op weights for a Network: `weight[i]`/`bias[i]` are used when op i is
/// a conv or fc, with the shapes Network::param_shapes(i) gives; they are
/// empty tensors for parameterless ops.
struct NetWeights {
  std::vector<Tensor> weight;
  std::vector<Tensor> bias;
};

/// Throws pcnna::Error unless `weights` fits `net`: one weight and one bias
/// per op, every conv and fc weight of its param_shapes() shape, and every
/// such bias either empty or of its shape. The message names the network,
/// the op and field ("conv weight of op 0") and both shapes.
void validate_weights(const Network& net, const NetWeights& weights);

/// Run the network end to end with the golden CPU operators. Throws if
/// `weights` do not fit `net` (validate_weights).
Tensor forward_reference(const Network& net, const NetWeights& weights,
                         const Tensor& input);

} // namespace pcnna::nn
