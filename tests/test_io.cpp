// Tensor serialization round trips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/rng.hpp"
#include "nn/conv_ref.hpp"
#include "nn/io.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"

namespace {

using namespace pcnna;
using nn::Shape4;
using nn::Tensor;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(TensorIo, RoundTripIsBitExact) {
  Rng rng(5);
  Tensor t(Shape4{2, 3, 4, 5});
  nn::fill_gaussian(t, rng, 0.0, 1.0);
  const std::string path = tmp_path("roundtrip.pcnt");
  nn::save_tensor(path, t);
  const Tensor back = nn::load_tensor(path);
  EXPECT_EQ(t, back);
  std::remove(path.c_str());
}

TEST(TensorIo, PreservesSpecialValues) {
  Tensor t(Shape4{1, 1, 1, 4},
           {0.0, -0.0, 1e-308, std::numeric_limits<double>::max()});
  const std::string path = tmp_path("special.pcnt");
  nn::save_tensor(path, t);
  const Tensor back = nn::load_tensor(path);
  EXPECT_EQ(t, back);
  EXPECT_TRUE(std::signbit(back[1]));
  std::remove(path.c_str());
}

TEST(TensorIo, MissingFileThrows) {
  EXPECT_THROW(nn::load_tensor(tmp_path("does-not-exist.pcnt")), Error);
}

TEST(TensorIo, BadMagicThrows) {
  const std::string path = tmp_path("garbage.pcnt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a tensor at all, just bytes";
  }
  EXPECT_THROW(nn::load_tensor(path), Error);
  std::remove(path.c_str());
}

TEST(TensorIo, TruncatedPayloadThrows) {
  Rng rng(6);
  Tensor t(Shape4{1, 1, 8, 8});
  nn::fill_gaussian(t, rng, 0.0, 1.0);
  const std::string path = tmp_path("trunc.pcnt");
  nn::save_tensor(path, t);
  // Chop the file in half.
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size() / 2));
  }
  EXPECT_THROW(nn::load_tensor(path), Error);
  std::remove(path.c_str());
}

/// Write a PCNT version-1 header with the given extents, followed by
/// `payload` zero doubles.
void write_header(const std::string& path, std::uint64_t n, std::uint64_t c,
                  std::uint64_t h, std::uint64_t w, std::size_t payload) {
  std::ofstream out(path, std::ios::binary);
  out.write("PCNT", 4);
  const auto put = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.put(static_cast<char>(v >> (8 * i)));
  };
  for (std::uint64_t v : {std::uint64_t{1}, n, c, h, w}) put(v);
  for (std::size_t i = 0; i < payload; ++i) put(0);
}

/// load_tensor(path) must throw an Error naming the file and `field`.
void expect_shape_error(const std::string& path, const std::string& field) {
  try {
    nn::load_tensor(path);
    ADD_FAILURE() << "accepted the shape; expected an error on " << field;
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(std::string::npos, what.find(path)) << what;
    EXPECT_NE(std::string::npos, what.find("field " + field)) << what;
  }
}

TEST(TensorIo, OverflowingShapeThrowsNamingFileAndField) {
  const std::string path = tmp_path("overflow.pcnt");
  // n * c = 2^64 + 2 wraps to 2, and two doubles of payload follow, so a
  // check on the wrapped element count alone accepts the file.
  write_header(path, (std::uint64_t{1} << 63) + 1, 2, 1, 1, 2);
  expect_shape_error(path, "n");
  // Every extent is plausible, but their product reaches 2^34.
  write_header(path, std::uint64_t{1} << 17, std::uint64_t{1} << 17, 1, 1, 0);
  expect_shape_error(path, "c");
  write_header(path, 1, 1, 0, 4, 0);
  expect_shape_error(path, "h");
  std::remove(path.c_str());
}

TEST(TensorIo, NetworkWeightsRoundTripThroughReference) {
  Rng rng(7);
  const nn::Network net = nn::tiny_cnn();
  const auto weights = nn::make_network_weights(net, rng);
  const auto input = nn::make_network_input(net, rng);

  nn::save_network_weights(::testing::TempDir(), "tiny", weights);
  const auto back = nn::load_network_weights(::testing::TempDir(), "tiny", net);

  // Same weights -> bit-identical forward pass.
  const Tensor ref = nn::forward_reference(net, weights, input);
  const Tensor loaded = nn::forward_reference(net, back, input);
  EXPECT_EQ(ref, loaded);
  for (std::size_t i = 0; i < net.ops().size(); ++i) {
    EXPECT_EQ(weights.weight[i], back.weight[i]) << i;
    EXPECT_EQ(weights.bias[i], back.bias[i]) << i;
  }
}

// A weight file whose shape disagrees with the network is rejected at load
// time, naming the file and the field — here an fc weight saved transposed,
// which has the right element count but the wrong shape.
TEST(TensorIo, MisshapenNetworkWeightsAreRejected) {
  Rng rng(8);
  const nn::Network net = nn::tiny_cnn();
  const auto weights = nn::make_network_weights(net, rng);
  const std::string dir = ::testing::TempDir();
  nn::save_network_weights(dir, "misshapen", weights);

  std::size_t fc = net.ops().size();
  for (std::size_t i = 0; i < net.ops().size(); ++i)
    if (net.ops()[i].kind == nn::OpKind::kFullyConnected) fc = i;
  ASSERT_LT(fc, net.ops().size());
  const Shape4 good = weights.weight[fc].shape();
  const std::string path =
      dir + "/misshapen_w" + std::to_string(fc) + ".pcnt";
  nn::save_tensor(path, Tensor(Shape4{good.c, good.n, good.h, good.w}));

  try {
    nn::load_network_weights(dir, "misshapen", net);
    ADD_FAILURE() << "accepted a transposed fc weight";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(std::string::npos, what.find(path)) << what;
    EXPECT_NE(std::string::npos, what.find("fc weight")) << what;
  }
}

} // namespace
