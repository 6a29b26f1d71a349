// Table I parameter algebra and the paper's worked numbers (Eqs. 1-3, 6).
#include <gtest/gtest.h>

#include <string>

#include "nn/conv_params.hpp"
#include "nn/models.hpp"

namespace {

using pcnna::nn::ConvLayerParams;

ConvLayerParams alexnet_layer(std::size_t i) {
  return pcnna::nn::alexnet_conv_layers().at(i);
}

TEST(ConvParams, Eq1InputSize) {
  // conv1: Ninput = 224 * 224 * 3 = 150 528 (the paper's 150k x saving).
  EXPECT_EQ(150'528u, alexnet_layer(0).input_size());
}

TEST(ConvParams, Eq2KernelSize) {
  // conv1: Nkernel = 11 * 11 * 3 = 363.
  EXPECT_EQ(363u, alexnet_layer(0).kernel_size());
  // conv4: 3 * 3 * 384 = 3456.
  EXPECT_EQ(3456u, alexnet_layer(3).kernel_size());
}

TEST(ConvParams, Eq3OutputSize) {
  // conv1: ((224 + 4 - 11)/4 + 1)^2 * 96 = 55^2 * 96.
  const auto conv1 = alexnet_layer(0);
  EXPECT_EQ(55u, conv1.output_side());
  EXPECT_EQ(55u * 55u * 96u, conv1.output_size());
}

TEST(ConvParams, Eq6NumLocations) {
  EXPECT_EQ(3025u, alexnet_layer(0).num_locations()); // 55^2
  EXPECT_EQ(729u, alexnet_layer(1).num_locations());  // 27^2
  EXPECT_EQ(169u, alexnet_layer(2).num_locations());  // 13^2
  EXPECT_EQ(169u, alexnet_layer(3).num_locations());
  EXPECT_EQ(169u, alexnet_layer(4).num_locations());
}

TEST(ConvParams, NoutputEqualsNlocsTimesK) {
  for (const auto& layer : pcnna::nn::alexnet_conv_layers()) {
    EXPECT_EQ(layer.output_size(), layer.num_locations() * layer.K) << layer.name;
  }
}

TEST(ConvParams, WeightCounts) {
  // conv4 holds the most weights in AlexNet (paper SS V-A).
  const auto layers = pcnna::nn::alexnet_conv_layers();
  const std::uint64_t conv4 = layers[3].weight_count();
  EXPECT_EQ(384u * 3u * 3u * 384u, conv4);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (i != 3) {
      EXPECT_LT(layers[i].weight_count(), conv4) << layers[i].name;
    }
  }
}

TEST(ConvParams, MacsAreLocationsTimesWeights) {
  const auto conv3 = alexnet_layer(2);
  EXPECT_EQ(conv3.num_locations() * conv3.weight_count(), conv3.macs());
}

TEST(ConvParams, UpdatedInputsPerLocation) {
  // Paper SS V-B: nc * m * s; conv4: 384*3*1 = 1152 (/10 DACs ~ 116).
  EXPECT_EQ(1152u, alexnet_layer(3).updated_inputs_per_location());
  // conv1: 3 * 11 * 4 = 132.
  EXPECT_EQ(132u, alexnet_layer(0).updated_inputs_per_location());
}

TEST(ConvParams, StrideAndPaddingAffectOutputSide) {
  ConvLayerParams p{"t", 10, 3, 0, 1, 1, 1};
  EXPECT_EQ(8u, p.output_side());
  p.p = 1;
  EXPECT_EQ(10u, p.output_side());
  p.s = 2;
  EXPECT_EQ(5u, p.output_side());
}

TEST(ConvParams, FloorDivisionInOutputSide) {
  // (7 + 0 - 3)/2 + 1 = 3 (floor of 4/2 exactly); (8-3)/2+1 = floor(2.5)+1 = 3.
  ConvLayerParams p{"t", 8, 3, 0, 2, 1, 1};
  EXPECT_EQ(3u, p.output_side());
}

TEST(ConvParams, ValidateRejectsDegenerate) {
  EXPECT_THROW((ConvLayerParams{"z", 0, 3, 0, 1, 1, 1}).validate(), pcnna::Error);
  EXPECT_THROW((ConvLayerParams{"z", 8, 0, 0, 1, 1, 1}).validate(), pcnna::Error);
  EXPECT_THROW((ConvLayerParams{"z", 8, 3, 0, 0, 1, 1}).validate(), pcnna::Error);
  EXPECT_THROW((ConvLayerParams{"z", 8, 3, 0, 1, 0, 1}).validate(), pcnna::Error);
  EXPECT_THROW((ConvLayerParams{"z", 8, 3, 0, 1, 1, 0}).validate(), pcnna::Error);
  // Kernel larger than padded input.
  EXPECT_THROW((ConvLayerParams{"z", 4, 7, 0, 1, 1, 1}).validate(), pcnna::Error);
  // But fine with enough padding.
  EXPECT_NO_THROW((ConvLayerParams{"z", 4, 7, 2, 1, 1, 1}).validate());
  // Padding as wide as the kernel or wider: the outermost kernel
  // placements would see only padding.
  EXPECT_THROW((ConvLayerParams{"z", 8, 1, 1, 1, 1, 1}).validate(), pcnna::Error);
  EXPECT_NO_THROW((ConvLayerParams{"z", 8, 3, 2, 1, 1, 1}).validate());
  try {
    (ConvLayerParams{"wide_pad", 8, 3, 3, 1, 1, 1}).validate();
    ADD_FAILURE() << "accepted padding p = m";
  } catch (const pcnna::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(std::string::npos, what.find("wide_pad")) << what;
    EXPECT_NE(std::string::npos, what.find("p = 3")) << what;
    EXPECT_NE(std::string::npos, what.find("m = 3")) << what;
  }
}

} // namespace
