// Network graph: shape inference, validation, reference forward pass.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/conv_ref.hpp"
#include "nn/models.hpp"
#include "nn/network.hpp"
#include "nn/synth.hpp"

namespace {

using namespace pcnna;
using nn::Network;
using nn::Shape4;
using nn::Tensor;

TEST(Network, TracksShapesThroughOps) {
  Network net("t", Shape4{1, 3, 16, 16});
  net.add_conv({"c1", 16, 3, 1, 1, 3, 8});
  EXPECT_EQ((Shape4{1, 8, 16, 16}), net.output_shape());
  net.add_relu();
  EXPECT_EQ((Shape4{1, 8, 16, 16}), net.output_shape());
  net.add_maxpool(2, 2);
  EXPECT_EQ((Shape4{1, 8, 8, 8}), net.output_shape());
  net.add_fc(10);
  EXPECT_EQ((Shape4{1, 10, 1, 1}), net.output_shape());
}

TEST(Network, RejectsChannelMismatch) {
  Network net("t", Shape4{1, 3, 16, 16});
  EXPECT_THROW(net.add_conv({"bad", 16, 3, 1, 1, 4, 8}), Error);
}

TEST(Network, RejectsSpatialMismatch) {
  Network net("t", Shape4{1, 3, 16, 16});
  EXPECT_THROW(net.add_conv({"bad", 15, 3, 1, 1, 3, 8}), Error);
}

TEST(Network, RejectsBatchedInput) {
  EXPECT_THROW(Network("t", Shape4{2, 3, 8, 8}), Error);
}

TEST(Network, ConvLayersExtractsInOrder) {
  const Network net = nn::alexnet();
  const auto convs = net.conv_layers();
  ASSERT_EQ(5u, convs.size());
  EXPECT_EQ("conv1", convs[0].name);
  EXPECT_EQ("conv5", convs[4].name);
}

TEST(Network, ConvMacsMatchesSumOfLayers) {
  const Network net = nn::alexnet();
  std::uint64_t sum = 0;
  for (const auto& layer : net.conv_layers()) sum += layer.macs();
  EXPECT_EQ(sum, net.conv_macs());
  // Single-tower AlexNet conv stack is ~1.08G MACs (the grouped 2-GPU
  // variant would be ~666M; the paper uses the single-tower shapes).
  EXPECT_GT(net.conv_macs(), 1'000'000'000u);
  EXPECT_LT(net.conv_macs(), 1'150'000'000u);
}

TEST(Network, ForwardReferenceRunsTinyCnn) {
  const Network net = nn::tiny_cnn();
  Rng rng(3);
  const auto weights = nn::make_network_weights(net, rng);
  const Tensor input = nn::make_network_input(net, rng);
  const Tensor out = nn::forward_reference(net, weights, input);
  EXPECT_EQ(net.output_shape(), out.shape());
  // Softmax output sums to 1.
  double sum = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) sum += out[i];
  EXPECT_NEAR(1.0, sum, 1e-9);
}

TEST(Network, ForwardReferenceMatchesManualChain) {
  Network net("manual", Shape4{1, 1, 4, 4});
  net.add_conv({"c", 4, 3, 1, 1, 1, 2}).add_relu().add_maxpool(2, 2);
  Rng rng(4);
  const auto weights = nn::make_network_weights(net, rng);
  const Tensor input = nn::make_network_input(net, rng);

  const Tensor manual = nn::maxpool2d(
      nn::relu(nn::conv2d_direct(input, weights.weight[0], weights.bias[0], 1, 1)),
      2, 2);
  const Tensor chained = nn::forward_reference(net, weights, input);
  EXPECT_LT(nn::max_abs_diff(manual, chained), 1e-15);
}

TEST(Network, ForwardRejectsWrongInputShape) {
  const Network net = nn::tiny_cnn();
  Rng rng(5);
  const auto weights = nn::make_network_weights(net, rng);
  Tensor bad(Shape4{1, 2, 9, 9});
  EXPECT_THROW(nn::forward_reference(net, weights, bad), Error);
}

TEST(Network, OpKindNames) {
  EXPECT_STREQ("conv", nn::op_kind_name(nn::OpKind::kConv));
  EXPECT_STREQ("softmax", nn::op_kind_name(nn::OpKind::kSoftmax));
}

TEST(Network, WeightCountIncludesFc) {
  Network net("t", Shape4{1, 1, 4, 4});
  net.add_conv({"c", 4, 3, 0, 1, 1, 2}); // 2*1*3*3 = 18 weights, out 2x2x2
  net.add_fc(5);                          // 5 * 8 = 40 weights
  EXPECT_EQ(58u, net.weight_count());
}

TEST(Network, ParamShapesFollowTheOps) {
  Network net("t", Shape4{1, 3, 16, 16});
  net.add_conv({"c1", 16, 3, 1, 1, 3, 8}).add_relu().add_maxpool(2, 2);
  net.add_fc(10);
  const auto conv = net.param_shapes(0);
  ASSERT_TRUE(conv.has_value());
  EXPECT_EQ((Shape4{8, 3, 3, 3}), conv->weight);
  EXPECT_EQ((Shape4{1, 8, 1, 1}), conv->bias);
  EXPECT_FALSE(net.param_shapes(1).has_value());
  EXPECT_FALSE(net.param_shapes(2).has_value());
  const auto fc = net.param_shapes(3);
  ASSERT_TRUE(fc.has_value());
  EXPECT_EQ((Shape4{10, 8 * 8 * 8, 1, 1}), fc->weight);
  EXPECT_EQ((Shape4{1, 10, 1, 1}), fc->bias);
  EXPECT_THROW(net.param_shapes(4), Error);
}

TEST(Network, ValidateWeightsRejectsTransposedFc) {
  Rng rng(9);
  const Network net = nn::tiny_cnn();
  nn::NetWeights weights = nn::make_network_weights(net, rng);
  EXPECT_NO_THROW(nn::validate_weights(net, weights));
  std::size_t fc = net.ops().size();
  for (std::size_t i = 0; i < net.ops().size(); ++i)
    if (net.ops()[i].kind == nn::OpKind::kFullyConnected) fc = i;
  ASSERT_LT(fc, net.ops().size());
  // Same element count, wrong orientation.
  const Shape4 good = weights.weight[fc].shape();
  weights.weight[fc] = Tensor(Shape4{good.c, good.n, good.h, good.w});
  try {
    nn::validate_weights(net, weights);
    ADD_FAILURE() << "accepted a transposed fc weight";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(std::string::npos,
              what.find("fc weight of op " + std::to_string(fc)))
        << what;
  }
}

TEST(Network, ValidateWeightsChecksCountsAndBiases) {
  Rng rng(10);
  const Network net = nn::tiny_cnn();
  nn::NetWeights weights = nn::make_network_weights(net, rng);
  weights.bias[0] = Tensor(); // an empty bias is "no bias"
  EXPECT_NO_THROW(nn::validate_weights(net, weights));
  nn::NetWeights short_list = weights;
  short_list.bias.pop_back();
  EXPECT_THROW(nn::validate_weights(net, short_list), Error);
  nn::NetWeights no_weight = weights;
  no_weight.weight[0] = Tensor();
  EXPECT_THROW(nn::validate_weights(net, no_weight), Error);
  nn::NetWeights wide_bias = weights;
  wide_bias.bias[0] = Tensor(Shape4{1, net.ops()[0].conv.K + 1, 1, 1});
  EXPECT_THROW(nn::validate_weights(net, wide_bias), Error);
}

} // namespace
