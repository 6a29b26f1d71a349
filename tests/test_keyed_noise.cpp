// Keyed sensor noise: each pixel of each pass of a conv call draws from its
// own stream, pixel_noise(key, pass, pixel), and each op of a request runs
// under derive_seed(request seed, op). So a call's noise is a function of
// its key alone: the same whichever op range a run covers, and independent
// from pixel to pixel, pass to pass and rail to rail.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "core/optical_conv_engine.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"

namespace {

using namespace pcnna;
using core::EngineStats;
using core::OpticalConvEngine;
using core::PcnnaConfig;
using core::RingAllocation;

void expect_same_stats(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.optical_passes, b.optical_passes);
  EXPECT_EQ(a.adc_conversions, b.adc_conversions);
  EXPECT_EQ(a.patches_streamed, b.patches_streamed);
  EXPECT_EQ(a.noise_draws, b.noise_draws);
  EXPECT_EQ(a.banks_built, b.banks_built);
  EXPECT_EQ(a.mean_calibration_error, b.mean_calibration_error);
}

// After one reseed, running a network op by op, run_range(op, op + 1),
// gives the whole run's output bits and per-layer stats: each op draws
// under its own key whatever range it runs in. LeNet-5 with its FC layers
// offloaded, at 1 and 4 engine threads.
TEST(KeyedNoise, OpByOpReplayMatchesTheWholeRun) {
  const nn::Network net = nn::lenet5();
  Rng rng(3);
  const nn::NetWeights weights = nn::make_network_weights(net, rng);
  const nn::Tensor input = nn::make_network_input(net, rng);
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    PcnnaConfig cfg = PcnnaConfig::paper_defaults();
    cfg.accelerate_fc = true;
    cfg.engine_threads = threads;
    core::Accelerator acc(cfg);
    acc.reseed_engine(41);
    const core::NetworkRunReport whole =
        acc.run(net, weights, input, true, /*compare_reference=*/false);

    acc.reseed_engine(41);
    nn::Tensor x = input;
    std::vector<EngineStats> stats;
    for (std::size_t op = 0; op < net.ops().size(); ++op) {
      core::NetworkRunReport step = acc.run_range(net, weights, x, op, op + 1);
      for (const auto* layers : {&step.conv_layers, &step.fc_layers})
        for (const core::LayerRunReport& layer : *layers)
          stats.push_back(layer.engine);
      x = std::move(step.output);
    }
    EXPECT_TRUE(whole.output == x);
    ASSERT_EQ(whole.conv_layers.size() + whole.fc_layers.size(), stats.size());
    std::size_t i = 0;
    for (const auto* layers : {&whole.conv_layers, &whole.fc_layers})
      for (const core::LayerRunReport& layer : *layers) {
        // LeNet-5 runs its convs before its FCs, so op order is this order.
        expect_same_stats(layer.engine, stats[i++]);
      }
  }
}

// A dual-rail call is its positive rail under the call's key minus its
// negative rail under derive_seed(key, kNegativeRail), bit for bit, each
// run as a public single-rail call. Under the call's own key the negative
// rail would give other bits: the rails do not share streams.
TEST(KeyedNoise, DualRailRailsRunUnderTheirOwnKeys) {
  const nn::ConvLayerParams layer{"signed", 8, 3, 1, 1, 3, 5};
  Rng rng(9);
  nn::Tensor input = nn::make_input(layer, rng);
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = rng.uniform(-1.0, 1.0);
  const nn::Tensor weights = nn::make_conv_weights(layer, rng);
  const nn::Tensor bias = nn::make_conv_bias(layer, rng);
  nn::Tensor pos(input.shape()), neg(input.shape());
  for (std::size_t i = 0; i < input.size(); ++i) {
    pos[i] = std::max(0.0, input[i]);
    neg[i] = std::max(0.0, -input[i]);
  }

  const std::uint64_t key = 1234;
  for (RingAllocation allocation :
       {RingAllocation::kFullKernel, RingAllocation::kPerChannel}) {
    for (std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << core::ring_allocation_name(allocation)
                   << " threads=" << threads);
      PcnnaConfig cfg = PcnnaConfig::paper_defaults();
      cfg.dual_rail_inputs = true;
      cfg.allocation = allocation;
      cfg.engine_threads = threads;
      OpticalConvEngine engine(cfg);
      engine.reseed_rng(key);
      const nn::Tensor dual = engine.conv2d(input, weights, bias, 1, 1);
      const nn::Tensor plus = engine.conv2d(pos, weights, bias, 1, 1);
      const nn::Tensor shared = engine.conv2d(neg, weights, {}, 1, 1);
      engine.reseed_rng(derive_seed(key, core::kNegativeRail));
      const nn::Tensor minus = engine.conv2d(neg, weights, {}, 1, 1);

      nn::Tensor want = plus, same_key = plus;
      for (std::size_t i = 0; i < want.size(); ++i) {
        want[i] -= minus[i];
        same_key[i] -= shared[i];
      }
      EXPECT_TRUE(want == dual);
      EXPECT_FALSE(same_key == dual);
    }
  }
}

/// Pearson correlation of the pairs (a[i], b[i]).
double correlation(const std::vector<double>& a, const std::vector<double>& b) {
  const double n = static_cast<double>(a.size());
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += a[i] / n;
    mb += b[i] / n;
  }
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sab += (a[i] - ma) * (b[i] - mb);
    saa += (a[i] - ma) * (a[i] - ma);
    sbb += (b[i] - mb) * (b[i] - mb);
  }
  return sab / std::sqrt(saa * sbb);
}

// The noise of one pixel tells nothing about the next pixel's or the next
// pass's. Without quantization a per-channel layer's output is the sum of
// its passes' partial sums, so a two-channel layer whose channels repeat a
// one-channel layer's input and kernels runs that layer's pass twice: its
// output minus the one-channel output is pass 1 alone. Differencing two
// keys cancels the signal and leaves each pass's noise; the correlations
// of that noise from pixel to pixel and from pass 0 to pass 1 must be near
// zero (4,096 samples each). Streams keyed by pixel alone would repeat pass
// 0's noise in pass 1; by pass alone, repeat one pixel's noise in every
// pixel.
TEST(KeyedNoise, UncorrelatedFromPixelToPixelAndPassToPass) {
  const nn::ConvLayerParams one{"one", 32, 3, 1, 1, 1, 4};
  const nn::ConvLayerParams two{"two", 32, 3, 1, 1, 2, 4};
  Rng rng(5);
  const nn::Tensor x1 = nn::make_input(one, rng);
  const nn::Tensor w1 = nn::make_conv_weights(one, rng);
  nn::Tensor x2(nn::Shape4{1, 2, 32, 32}), w2(nn::Shape4{4, 2, 3, 3});
  for (std::size_t c = 0; c < 2; ++c) {
    std::copy(x1.data().begin(), x1.data().end(),
              x2.data().begin() + c * x1.size());
    for (std::size_t k = 0; k < 4; ++k)
      std::copy_n(w1.data().begin() + k * 9, 9,
                  w2.data().begin() + (k * 2 + c) * 9);
  }

  PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  cfg.allocation = RingAllocation::kPerChannel;
  cfg.enable_quantization = false;
  cfg.engine_threads = 4;
  OpticalConvEngine engine(cfg);
  // Pass p of the two-channel layer under `key`, less the signal.
  const auto passes = [&](std::uint64_t key) {
    engine.reseed_rng(key);
    const nn::Tensor p0 = engine.conv2d(x1, w1, {}, 1, 1);
    nn::Tensor p1 = engine.conv2d(x2, w2, {}, 1, 1);
    for (std::size_t i = 0; i < p1.size(); ++i) p1[i] -= p0[i];
    return std::vector<nn::Tensor>{p0, p1};
  };
  const std::vector<nn::Tensor> a = passes(11), b = passes(12);

  std::vector<double> noise[2];
  for (std::size_t p = 0; p < 2; ++p)
    for (std::size_t i = 0; i < a[p].size(); ++i)
      noise[p].push_back(a[p][i] - b[p][i]);
  // Pass 1 repeats pass 0's signal, so the noise is the only difference.
  const double spread =
      *std::max_element(noise[0].begin(), noise[0].end()) -
      *std::min_element(noise[0].begin(), noise[0].end());
  ASSERT_GT(spread, 0.0);

  std::vector<double> here, next;
  for (std::size_t p = 0; p < 2; ++p)
    for (std::size_t i = 0; i + 1 < noise[p].size(); ++i) {
      here.push_back(noise[p][i]);
      next.push_back(noise[p][i + 1]);
    }
  EXPECT_LT(std::abs(correlation(here, next)), 0.1) << "pixel to pixel";
  EXPECT_LT(std::abs(correlation(noise[0], noise[1])), 0.1) << "pass to pass";
}

} // namespace
