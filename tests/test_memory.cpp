// SRAM cache and DRAM channel models.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/units.hpp"
#include "core/timing_model.hpp"
#include "electronics/dram.hpp"
#include "electronics/sram.hpp"

namespace {

using namespace pcnna;
namespace u = units;

TEST(Sram, PaperCapacityIsEightThousandWords) {
  elec::Sram sram{elec::SramConfig{}};
  // "128kb capacity that can store 8 thousand 16bit values" [15].
  EXPECT_EQ(8000u, sram.capacity_words());
}

TEST(Sram, AccessTimeAtPaperSpec) {
  // 7 ns per word access [15].
  EXPECT_NEAR(7.0 * u::ns, elec::SramConfig{}.access_time, 1e-15);
  // The timing model's SRAM stage charges it per port access: through a
  // one-word port, 100 words take 700 ns.
  core::PcnnaConfig config = core::PcnnaConfig::paper_defaults();
  config.sram_port_words = 1;
  EXPECT_NEAR(700.0 * u::ns, core::location_stages(config, 60, 1, 40).sram,
              1e-12);
}

TEST(Sram, AlexNetWorkingSetsFit) {
  // Every AlexNet receptive field (Nkernel words) fits the 8000-word cache —
  // the premise of the paper's input-buffering scheme.
  elec::Sram sram{elec::SramConfig{}};
  for (std::uint64_t n_kernel : {363u, 2400u, 2304u, 3456u, 3456u}) {
    EXPECT_LE(n_kernel, sram.capacity_words());
  }
}

TEST(Dram, TransferTimeIsLatencyPlusBandwidth) {
  elec::DramConfig cfg;
  cfg.bandwidth = 12.8e9;
  cfg.first_access_latency = 50.0 * u::ns;
  elec::Dram dram(cfg);
  EXPECT_NEAR(50e-9 + 1280.0 / 12.8e9, dram.transfer_time(1280), 1e-15);
  EXPECT_DOUBLE_EQ(0.0, dram.transfer_time(0));
}

TEST(Memory, RejectBadConfigs) {
  elec::SramConfig s;
  s.word_bits = 0;
  EXPECT_THROW(elec::Sram{s}, Error);
  elec::DramConfig d;
  d.bandwidth = 0.0;
  EXPECT_THROW(elec::Dram{d}, Error);
}

} // namespace
