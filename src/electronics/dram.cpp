#include "electronics/dram.hpp"

namespace pcnna::elec {

void DramConfig::validate(const char* path) const {
  PCNNA_CHECK_FIELD(path, bandwidth, bandwidth > 0.0, "> 0");
  PCNNA_CHECK_FIELD(path, first_access_latency, first_access_latency >= 0.0,
                    ">= 0");
  PCNNA_CHECK_FIELD(path, energy_per_byte, energy_per_byte >= 0.0, ">= 0");
}

Dram::Dram(DramConfig config) : config_(config) { config.validate("dram"); }

} // namespace pcnna::elec
