// Convolution-layer parameter algebra — Table I and Eqs. (1)-(3), (6) of the
// PCNNA paper.
//
// The paper works with square-face volumes: an input feature map of shape
// n x n x nc convolved with K kernels of shape m x m x nc, padding p and
// stride s. All the paper's analytical results (ring counts, execution
// times) are derived from these few quantities, so this struct is the single
// source of truth for them throughout the library.
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace pcnna::nn {

/// Parameters of one square convolution layer (paper Table I).
struct ConvLayerParams {
  std::string name;     ///< e.g. "conv1"
  std::uint64_t n = 0;  ///< input feature map height and width
  std::uint64_t m = 0;  ///< kernel height and width
  std::uint64_t p = 0;  ///< padding size
  std::uint64_t s = 1;  ///< stride step size
  std::uint64_t nc = 0; ///< input feature map number of channels
  std::uint64_t K = 0;  ///< number of kernels (output channels)

  /// Throws pcnna::Error if the shape is degenerate: a zero dimension or
  /// stride, a kernel larger than the padded input, or padding p >= m (a
  /// kernel placed wholly inside the padding sees only zeros; poplibs'
  /// validateLayerParams rejects it too).
  void validate() const {
    PCNNA_CHECK_MSG(n > 0 && m > 0 && nc > 0 && K > 0 && s > 0,
                    "layer '" << name << "': all of n,m,nc,K,s must be > 0");
    PCNNA_CHECK_MSG(n + 2 * p >= m, "layer '" << name
                                              << "': kernel larger than padded input");
    PCNNA_CHECK_MSG(p < m, "layer '" << name << "': padding p = " << p
                                     << " must be smaller than the kernel m = "
                                     << m);
  }

  /// Eq. (1): Ninput = n * n * nc.
  std::uint64_t input_size() const { return n * n * nc; }

  /// Eq. (2): Nkernel = m * m * nc.
  std::uint64_t kernel_size() const { return m * m * nc; }

  /// Output feature-map side length: floor((n + 2p - m) / s) + 1.
  std::uint64_t output_side() const {
    validate();
    return (n + 2 * p - m) / s + 1;
  }

  /// Eq. (3): Noutput = output_side()^2 * K.
  std::uint64_t output_size() const { return output_side() * output_side() * K; }

  /// Eq. (6): Nlocs = Noutput / K = output_side()^2 — the number of distinct
  /// kernel locations over the input feature map.
  std::uint64_t num_locations() const { return output_side() * output_side(); }

  /// Total learned weights in the layer: K * Nkernel.
  std::uint64_t weight_count() const { return K * kernel_size(); }

  /// Multiply-accumulate operations for a full forward pass of the layer:
  /// one MAC per weight per kernel location.
  std::uint64_t macs() const { return num_locations() * weight_count(); }

  /// Fresh input values that must reach the optical core per kernel location
  /// after the first (paper SS V-B): nc * m * s per step of the sliding
  /// window; the remaining values are already buffered.
  std::uint64_t updated_inputs_per_location() const { return nc * m * s; }

  bool operator==(const ConvLayerParams&) const = default;
};

} // namespace pcnna::nn
