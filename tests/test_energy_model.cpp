// Energy model: component breakdown and scaling behaviour.
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "core/energy_model.hpp"
#include "nn/models.hpp"

namespace {

using namespace pcnna;
namespace u = units;
using core::EnergyModel;
using core::EnergyReport;
using core::PcnnaConfig;
using core::Scheduler;
using core::TimingFidelity;
using core::TimingModel;

nn::ConvLayerParams alexnet_layer(std::size_t i) {
  return nn::alexnet_conv_layers().at(i);
}

EnergyReport layer_report(std::size_t i,
                          PcnnaConfig cfg = PcnnaConfig::paper_defaults()) {
  const Scheduler sched(cfg);
  const TimingModel timing(cfg, TimingFidelity::kPaper);
  const EnergyModel energy(cfg);
  return energy.layer_energy(sched.plan(alexnet_layer(i)),
                             timing.layer_time(alexnet_layer(i)));
}

TEST(Energy, AllComponentsPositive) {
  const EnergyReport e = layer_report(2);
  EXPECT_GT(e.laser, 0.0);
  EXPECT_GT(e.heater, 0.0);
  EXPECT_GT(e.input_dac, 0.0);
  EXPECT_GT(e.weight_dac, 0.0);
  EXPECT_GT(e.adc, 0.0);
  EXPECT_GT(e.sram, 0.0);
  EXPECT_GT(e.dram, 0.0);
}

TEST(Energy, TotalIsSumOfComponents) {
  const EnergyReport e = layer_report(1);
  EXPECT_NEAR(e.laser + e.heater + e.input_dac + e.weight_dac + e.adc + e.sram +
                  e.dram,
              e.total(), 1e-18);
}

TEST(Energy, PerMacIsTotalOverMacs) {
  const EnergyReport e = layer_report(3);
  const auto macs = alexnet_layer(3).macs();
  EXPECT_NEAR(e.total() / static_cast<double>(macs), e.per_mac(macs), 1e-24);
  EXPECT_DOUBLE_EQ(0.0, e.per_mac(0));
}

TEST(Energy, DacEnergyMatchesConversionCount) {
  const PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  const Scheduler sched(cfg);
  const auto plan = sched.plan(alexnet_layer(3));
  const EnergyReport e = layer_report(3);
  const double expected = cfg.input_dac.power *
                          static_cast<double>(plan.input_dac_conversions) /
                          cfg.input_dac.sample_rate;
  EXPECT_NEAR(expected, e.input_dac, expected * 1e-12);
}

TEST(Energy, DramEnergyMatchesTraffic) {
  const PcnnaConfig cfg = PcnnaConfig::paper_defaults();
  const Scheduler sched(cfg);
  const auto plan = sched.plan(alexnet_layer(0));
  const EnergyReport e = layer_report(0);
  const double bytes =
      static_cast<double>((plan.dram_read_words + plan.dram_write_words) * 2);
  EXPECT_NEAR(bytes * cfg.dram.energy_per_byte, e.dram, 1e-15);
}

TEST(Energy, PerChannelAllocationCostsMoreAdcAndDram) {
  PcnnaConfig pc = PcnnaConfig::paper_defaults();
  pc.allocation = core::RingAllocation::kPerChannel;
  const EnergyReport full = layer_report(3);
  const EnergyReport per_channel = layer_report(3, pc);
  EXPECT_GT(per_channel.adc, full.adc);
  EXPECT_GT(per_channel.dram, full.dram);
}

TEST(Energy, PerMacIsInPlausibleAnalogAcceleratorBand) {
  // Sanity: between 0.01 pJ and 100 nJ per MAC for every AlexNet layer.
  for (std::size_t i = 0; i < 5; ++i) {
    const EnergyReport e = layer_report(i);
    const double per_mac = e.per_mac(alexnet_layer(i).macs());
    EXPECT_GT(per_mac, 0.01 * u::pJ) << i;
    EXPECT_LT(per_mac, 100.0 * u::nJ) << i;
  }
}

} // namespace
