#include "electronics/dram.hpp"

namespace pcnna::elec {

Dram::Dram(DramConfig config) : config_(config) {
  PCNNA_CHECK(config.bandwidth > 0.0);
  PCNNA_CHECK(config.first_access_latency >= 0.0);
  PCNNA_CHECK(config.energy_per_byte >= 0.0);
}

} // namespace pcnna::elec
