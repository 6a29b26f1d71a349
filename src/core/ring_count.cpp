#include "core/ring_count.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/scheduler.hpp"

namespace pcnna::core {

RingCountModel::RingCountModel(double ring_pitch) : ring_pitch_(ring_pitch) {
  PCNNA_CHECK(ring_pitch > 0.0);
}

std::uint64_t RingCountModel::unfiltered(const nn::ConvLayerParams& layer) const {
  layer.validate();
  return layer.input_size() * layer.K * layer.kernel_size();
}

std::uint64_t RingCountModel::filtered(const nn::ConvLayerParams& layer,
                                       RingAllocation allocation) const {
  layer.validate();
  return layer.K * pass_width(layer, allocation);
}

double RingCountModel::savings_factor(const nn::ConvLayerParams& layer) const {
  return static_cast<double>(unfiltered(layer)) /
         static_cast<double>(filtered(layer, RingAllocation::kFullKernel));
}

double RingCountModel::area(std::uint64_t rings) const {
  return static_cast<double>(rings) * ring_pitch_ * ring_pitch_;
}

std::uint64_t RingCountModel::max_filtered(
    std::span<const nn::ConvLayerParams> layers,
    RingAllocation allocation) const {
  std::uint64_t mx = 0;
  for (const nn::ConvLayerParams& layer : layers)
    mx = std::max(mx, filtered(layer, allocation));
  return mx;
}

} // namespace pcnna::core
