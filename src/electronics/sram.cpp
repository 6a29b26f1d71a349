#include "electronics/sram.hpp"

namespace pcnna::elec {

Sram::Sram(SramConfig config) : config_(config) {
  PCNNA_CHECK(config.capacity_bits > 0.0);
  PCNNA_CHECK(config.word_bits >= 1);
  PCNNA_CHECK(config.access_time > 0.0);
  PCNNA_CHECK(config.access_energy >= 0.0);
}

std::uint64_t Sram::capacity_words() const {
  return static_cast<std::uint64_t>(config_.capacity_bits) /
         static_cast<std::uint64_t>(config_.word_bits);
}

} // namespace pcnna::elec
