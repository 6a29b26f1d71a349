#include "electronics/sram.hpp"

namespace pcnna::elec {

void SramConfig::validate(const char* path) const {
  PCNNA_CHECK_FIELD(path, capacity_bits, capacity_bits > 0.0, "> 0");
  PCNNA_CHECK_FIELD(path, word_bits, word_bits >= 1, ">= 1");
  PCNNA_CHECK_FIELD(path, access_time, access_time > 0.0, "> 0");
  PCNNA_CHECK_FIELD(path, access_energy, access_energy >= 0.0, ">= 0");
}

Sram::Sram(SramConfig config) : config_(config) { config.validate("sram"); }

std::uint64_t Sram::capacity_words() const {
  return static_cast<std::uint64_t>(config_.capacity_bits) /
         static_cast<std::uint64_t>(config_.word_bits);
}

} // namespace pcnna::elec
