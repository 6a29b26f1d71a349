// FROZEN reference implementation of the optical conv engine (PR 3).
//
// This is a verbatim snapshot of the pre-rewrite OpticalConvEngine::conv2d
// hot path: per-pixel receptive-field vectors are allocated inside the
// oy/ox loops, DAC quantization and MZM transfer are re-evaluated per pixel,
// and bank responses are consumed in array-of-structs form. It exists for
// exactly two purposes:
//
//  * the A/B bit-identity tests — the rewritten engine must produce
//    bit-identical outputs for every configuration, so every
//    serving-runtime guarantee built on the old engine carries over;
//  * the perf harness — bench_micro_engine times this snapshot against the
//    rewritten engine to report the speedup in BENCH_engine.json.
//
// DO NOT optimize or otherwise modify this path; it is the frozen baseline.
// It intentionally shares nothing with optical_conv_engine.cpp so changes
// there cannot leak in here, except the chip it runs on and the noise it
// sees: its banks and its usable-range probe are fabricated from the same
// chip stream (bank_fab), and each pixel draws from the same keyed noise
// stream (pixel_noise).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/optical_conv_engine.hpp"
#include "core/scheduler.hpp"
#include "nn/tensor.hpp"

namespace pcnna::core {

/// Frozen pre-rewrite conv engine. Same contract as
/// OpticalConvEngine::conv2d; fully-connected layers are not snapshotted
/// (the rewrite does not touch that path).
class ReferenceConvEngine {
 public:
  explicit ReferenceConvEngine(PcnnaConfig config);

  const PcnnaConfig& config() const { return config_; }

  nn::Tensor conv2d(const nn::Tensor& input, const nn::Tensor& weights,
                    const nn::Tensor& bias, std::size_t stride,
                    std::size_t pad, EngineStats* stats = nullptr);

  void reseed_rng(std::uint64_t key) { key_ = key; }

 private:
  nn::Tensor conv2d(std::uint64_t key, const nn::Tensor& input,
                    const nn::Tensor& weights, const nn::Tensor& bias,
                    std::size_t stride, std::size_t pad, EngineStats* stats);
  nn::Tensor run_full_kernel(const LayerPlan& plan, std::uint64_t key,
                             const nn::Tensor& input, const nn::Tensor& weights,
                             const nn::Tensor& bias, EngineStats& stats);
  nn::Tensor run_per_channel(const LayerPlan& plan, std::uint64_t key,
                             const nn::Tensor& input, const nn::Tensor& weights,
                             const nn::Tensor& bias, EngineStats& stats);

  PcnnaConfig config_;
  std::uint64_t key_;
};

} // namespace pcnna::core
