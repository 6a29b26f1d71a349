// Tensor (de)serialization.
//
// A small binary container so experiments can persist synthetic weights and
// inputs and reload them bit-exactly across runs/machines:
//   magic "PCNT" | u32 version | 4 x u64 dims (n,c,h,w) | payload doubles
// All integers and doubles little-endian.
#pragma once

#include <string>

#include "nn/network.hpp"
#include "nn/tensor.hpp"

namespace pcnna::nn {

/// Write `t` to `path`; throws pcnna::Error on I/O failure.
void save_tensor(const std::string& path, const Tensor& t);

/// Read a tensor written by save_tensor; throws on missing file, bad magic,
/// version mismatch, an implausible shape, or truncation (checked before
/// the payload is allocated).
Tensor load_tensor(const std::string& path);

/// Persist a network's weights as one file per parameterized op under
/// `directory` (created by the caller): <prefix>_w<i>.pcnt / _b<i>.pcnt.
/// An empty bias writes no bias file and removes one an earlier save left.
void save_network_weights(const std::string& directory,
                          const std::string& prefix, const NetWeights& weights);

/// Reload weights written by save_network_weights for `net`. Each tensor is
/// checked against the shape `net` implies — conv weight {K, nc, m, m} and
/// bias {1, K, 1, 1}, fc weight {out, inputs, 1, 1} and bias {1, out, 1, 1}
/// — and a mismatch throws pcnna::Error naming the file and the field. A
/// missing weight file throws; a missing bias file loads as no bias.
NetWeights load_network_weights(const std::string& directory,
                                const std::string& prefix, const Network& net);

} // namespace pcnna::nn
