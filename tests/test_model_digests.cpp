// Golden digests of the analytical hardware model.
//
// Every LayerPlan field, kFull and kPaper LayerTiming, every NoiseBudget
// field, the ring counts, the TraceSimulator events and every bit of
// make_network_weights are hashed over the model catalogs plus a few odd
// layers (stride 2 and 4, one input channel, a 1x1 kernel), under both ring
// allocations x several WDM channel budgets and small_core(). The digests
// were recorded before the allocation geometry and the parameter shapes
// each moved to one home, so a refactor of either must reproduce them bit
// for bit. On a mismatch the failure message is the map entry to paste.
//
// Plans, ring counts, timings and traces use integer and basic IEEE
// arithmetic only. The noise budgets (pow, log10) and the Gaussian weights
// (Box-Muller: log, sqrt, cos) also go through the C math library; their
// digests were recorded with glibc 2.36 on x86-64.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/noise_budget.hpp"
#include "core/ring_count.hpp"
#include "core/scheduler.hpp"
#include "core/timing_model.hpp"
#include "core/trace.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"

#include "fnv1a.hpp"

namespace {

using namespace pcnna;
using core::PcnnaConfig;
using core::RingAllocation;
using golden::expect_digest;
using golden::Fnv1a;

/// Every catalog conv layer plus odd shapes the catalogs lack.
std::vector<nn::ConvLayerParams> golden_layers() {
  std::vector<nn::ConvLayerParams> layers;
  for (const auto& list :
       {nn::alexnet_conv_layers(), nn::lenet5_conv_layers(),
        nn::vgg16_conv_layers(), nn::resnet18_conv_layers()})
    layers.insert(layers.end(), list.begin(), list.end());
  // name, n, m, p, s, nc, K
  layers.push_back({"odd_s2", 15, 3, 1, 2, 5, 7});
  layers.push_back({"odd_s4", 27, 7, 0, 4, 3, 6});
  layers.push_back({"odd_nc1", 12, 5, 2, 1, 1, 4});
  layers.push_back({"odd_1x1", 9, 1, 0, 1, 16, 8});
  return layers;
}

struct GoldenConfig {
  std::string name;
  PcnnaConfig config;
};

/// Both allocations x WDM budgets {1, 7, 24, 96, 4096}, plus small_core.
std::vector<GoldenConfig> golden_configs() {
  std::vector<GoldenConfig> configs;
  for (const RingAllocation allocation :
       {RingAllocation::kFullKernel, RingAllocation::kPerChannel}) {
    for (const std::size_t wdm : {1u, 7u, 24u, 96u, 4096u}) {
      PcnnaConfig config = PcnnaConfig::paper_defaults();
      config.allocation = allocation;
      config.max_wavelengths = wdm;
      configs.push_back({std::string(core::ring_allocation_name(allocation)) +
                             "/w" + std::to_string(wdm),
                         config});
    }
  }
  configs.push_back({"small_core", PcnnaConfig::small_core()});
  return configs;
}

void hash_plan(Fnv1a& h, const core::LayerPlan& p) {
  h.str(p.layer.name);
  h.u64(static_cast<std::uint64_t>(p.allocation));
  h.u64(p.group_size);
  h.u64(p.groups.size());
  for (const core::GroupSlice& g : p.groups) {
    h.u64(g.begin);
    h.u64(g.end);
  }
  h.u64(p.rings_total);
  h.u64(p.recalibrations);
  h.u64(p.cycles_per_location);
  h.u64(p.locations);
  h.u64(p.sram_words);
  h.u64(p.dram_read_words);
  h.u64(p.dram_write_words);
  h.u64(p.input_dac_conversions);
  h.u64(p.weight_dac_conversions);
  h.u64(p.adc_conversions);
}

void hash_timing(Fnv1a& h, const core::LayerTiming& t) {
  h.str(t.layer_name);
  h.u64(t.locations);
  h.f64(t.optical_core_time);
  h.f64(t.dac_time);
  h.f64(t.adc_time);
  h.f64(t.sram_time);
  h.f64(t.dram_time);
  h.f64(t.weight_load_time);
  h.f64(t.full_system_time);
  h.str(t.bottleneck);
}

void hash_budget(Fnv1a& h, const core::NoiseBudget& b) {
  h.str(b.layer_name);
  h.f64(b.denom_current);
  h.f64(b.mean_branch_current);
  h.f64(b.sigma_rin);
  h.f64(b.sigma_shot);
  h.f64(b.sigma_thermal);
  h.f64(b.sigma_pass);
  h.f64(b.mac_sigma);
  h.f64(b.adc_quantization_sigma);
  h.f64(b.mac_rms);
  h.f64(b.snr_db);
  h.str(b.dominant_source);
}

void hash_trace(Fnv1a& h, const core::LayerTrace& t) {
  h.str(t.layer.name);
  h.u64(t.events.size());
  for (const core::TraceEvent& e : t.events) {
    h.u64(static_cast<std::uint64_t>(e.kind));
    h.f64(e.start);
    h.f64(e.end);
    h.u64(e.location);
    h.u64(e.units);
  }
  h.f64(t.total_time);
  h.f64(t.weight_load_end);
  h.f64(t.compute_end);
}

TEST(HardwareModelGolden, LayerPlansMatch) {
  const std::map<std::string, std::uint64_t> expected = {
      {"full-kernel/w1", 0x159fb76bc3240785ull},
      {"full-kernel/w7", 0xaeccb5c11df3ec8bull},
      {"full-kernel/w24", 0x527298862e726af0ull},
      {"full-kernel/w96", 0x36edf131273988feull},
      {"full-kernel/w4096", 0xacc802e67a9985f7ull},
      {"per-channel/w1", 0x8b7e56ddad77bd23ull},
      {"per-channel/w7", 0xcb63a6792b0cc5dbull},
      {"per-channel/w24", 0xa495dd88e098dca5ull},
      {"per-channel/w96", 0x847271e7ce4d0b53ull},
      {"per-channel/w4096", 0xf702c25cdc026984ull},
      {"small_core", 0xa495dd88e098dca5ull},
  };
  for (const GoldenConfig& c : golden_configs()) {
    const core::Scheduler scheduler(c.config);
    Fnv1a h;
    for (const nn::ConvLayerParams& layer : golden_layers())
      hash_plan(h, scheduler.plan(layer));
    expect_digest(expected, c.name, h.value());
  }
}

TEST(HardwareModelGolden, LayerTimingsMatch) {
  const std::map<std::string, std::uint64_t> expected = {
      {"full-kernel/w1/full", 0xb083eef97a5a0f83ull},
      {"full-kernel/w1/paper", 0x9d7565d74075a709ull},
      {"full-kernel/w7/full", 0x46ea347d4b55d4edull},
      {"full-kernel/w7/paper", 0x9d7565d74075a709ull},
      {"full-kernel/w24/full", 0xc15fed27969bfc8full},
      {"full-kernel/w24/paper", 0x9d7565d74075a709ull},
      {"full-kernel/w96/full", 0xe42de4ceb7adb20aull},
      {"full-kernel/w96/paper", 0x9d7565d74075a709ull},
      {"full-kernel/w4096/full", 0x898a8ffc74c8f6d2ull},
      {"full-kernel/w4096/paper", 0x9d7565d74075a709ull},
      {"per-channel/w1/full", 0xabb32b197ea06e65ull},
      {"per-channel/w1/paper", 0x9d7565d74075a709ull},
      {"per-channel/w7/full", 0x77b3d1a1f6ab3dfdull},
      {"per-channel/w7/paper", 0x9d7565d74075a709ull},
      {"per-channel/w24/full", 0xdd1b20e063ed53c6ull},
      {"per-channel/w24/paper", 0x9d7565d74075a709ull},
      {"per-channel/w96/full", 0x96f0b1cd5ba0dc1cull},
      {"per-channel/w96/paper", 0x9d7565d74075a709ull},
      {"per-channel/w4096/full", 0x9af045bfc6b89ae2ull},
      {"per-channel/w4096/paper", 0x9d7565d74075a709ull},
      {"small_core/full", 0x768bd3353984173aull},
      {"small_core/paper", 0x4a63236c62e77ed0ull},
  };
  for (const GoldenConfig& c : golden_configs()) {
    for (const core::TimingFidelity fidelity :
         {core::TimingFidelity::kFull, core::TimingFidelity::kPaper}) {
      const core::TimingModel timing(c.config, fidelity);
      Fnv1a h;
      for (const nn::ConvLayerParams& layer : golden_layers())
        hash_timing(h, timing.layer_time(layer));
      expect_digest(expected,
                    c.name + "/" + core::timing_fidelity_name(fidelity),
                    h.value());
    }
  }
}

TEST(HardwareModelGolden, NoiseBudgetsMatch) {
  const std::map<std::string, std::uint64_t> expected = {
      {"full-kernel/w1", 0x17107e6873a0cbdcull},
      {"full-kernel/w7", 0x5dfaf4d81dfaebfbull},
      {"full-kernel/w24", 0x3ea2b9891eae57c4ull},
      {"full-kernel/w96", 0x817be173fb5954fcull},
      {"full-kernel/w4096", 0x0fe15f66930733ddull},
      {"per-channel/w1", 0x3cccbd0b1bf23cb8ull},
      {"per-channel/w7", 0x8f6ac4dd3518c4e3ull},
      {"per-channel/w24", 0xc1ac770199776eaaull},
      {"per-channel/w96", 0xe7ea29bd0fb1b435ull},
      {"per-channel/w4096", 0x8a9bf7ee791e6bcfull},
      {"small_core", 0xc1ac770199776eaaull},
  };
  for (const GoldenConfig& c : golden_configs()) {
    const core::NoiseBudgetModel model(c.config);
    Fnv1a h;
    for (const nn::ConvLayerParams& layer : golden_layers())
      hash_budget(h, model.layer_budget(layer));
    expect_digest(expected, c.name, h.value());
  }
}

TEST(HardwareModelGolden, RingCountsMatch) {
  const std::map<std::string, std::uint64_t> expected = {
      {"full-kernel", 0x8f33bd38e3b21341ull},
      {"per-channel", 0x27a604a78907b95cull},
  };
  const core::RingCountModel rings;
  const std::vector<nn::ConvLayerParams> layers = golden_layers();
  for (const RingAllocation allocation :
       {RingAllocation::kFullKernel, RingAllocation::kPerChannel}) {
    Fnv1a h;
    for (const nn::ConvLayerParams& layer : layers) {
      h.u64(rings.unfiltered(layer));
      h.u64(rings.filtered(layer, allocation));
      h.f64(rings.savings_factor(layer));
      h.f64(rings.area(rings.filtered(layer, allocation)));
    }
    h.u64(rings.max_filtered(layers, allocation));
    expect_digest(expected, core::ring_allocation_name(allocation), h.value());
  }
}

TEST(HardwareModelGolden, TracesMatch) {
  const std::map<std::string, std::uint64_t> expected = {
      {"full-kernel/w1", 0x94a121036eb2d21dull},
      {"full-kernel/w7", 0xc63854d4a7cbe024ull},
      {"full-kernel/w24", 0xa30646fa5cd939c4ull},
      {"full-kernel/w96", 0xccf7a072f44f1eecull},
      {"full-kernel/w4096", 0x0b0225ac17404596ull},
      {"per-channel/w1", 0x74d10cea635bcfc3ull},
      {"per-channel/w7", 0x96e83cde26f0b565ull},
      {"per-channel/w24", 0x7b99912434bc35d2ull},
      {"per-channel/w96", 0xcda8f1c514956e5dull},
      {"per-channel/w4096", 0xcda8f1c514956e5dull},
      {"small_core", 0xedc8dbaae3585af1ull},
  };
  // Only layers with few locations: a trace holds four events per location
  // per channel sweep, and the large ones add time, not coverage.
  constexpr std::uint64_t kMaxLocations = 4096;
  for (const GoldenConfig& c : golden_configs()) {
    const core::TraceSimulator sim(c.config);
    Fnv1a h;
    for (const nn::ConvLayerParams& layer : golden_layers()) {
      const std::uint64_t sweeps =
          c.config.allocation == RingAllocation::kPerChannel ? layer.nc : 1;
      if (layer.num_locations() * sweeps > kMaxLocations) continue;
      hash_trace(h, sim.trace_layer(layer));
    }
    expect_digest(expected, c.name, h.value());
  }
}

TEST(HardwareModelGolden, NetworkWeightsMatch) {
  const std::map<std::string, std::uint64_t> expected = {
      {"lenet5", 0x1edb8b644bd805e4ull},
      {"tiny_cnn", 0x2ee9ded552844aecull},
      {"mixed", 0x2d1664dde68576e7ull},
      {"weight_count", 0xb29920e67c185aebull},
  };
  // LeNet-5 and tiny_cnn, plus a net whose FC follows a pool, a conv with
  // padding and stride, and a second FC.
  nn::Network mixed("mixed", nn::Shape4{1, 3, 13, 13});
  mixed.add_conv({"m1", 13, 3, 1, 2, 3, 5})
      .add_relu()
      .add_maxpool(2, 2)
      .add_lrn()
      .add_fc(11)
      .add_relu()
      .add_avgpool(1, 1)
      .add_fc(4)
      .add_softmax();
  const std::vector<nn::Network> nets = {nn::lenet5(), nn::tiny_cnn(), mixed};
  for (const nn::Network& net : nets) {
    Rng rng(17);
    const nn::NetWeights w = nn::make_network_weights(net, rng);
    Fnv1a h;
    h.u64(w.weight.size());
    h.u64(w.bias.size());
    for (std::size_t i = 0; i < w.weight.size(); ++i) {
      for (const nn::Tensor* t : {&w.weight[i], &w.bias[i]}) {
        const nn::Shape4 s = t->shape();
        h.u64(s.n);
        h.u64(s.c);
        h.u64(s.h);
        h.u64(s.w);
        for (const double v : t->data()) h.f64(v);
      }
    }
    h.u64(rng.next_u64());
    expect_digest(expected, net.name(), h.value());
  }
  // weight_count over every catalog graph, AlexNet and VGG-16 included.
  Fnv1a h;
  for (const nn::Network& net :
       {nn::alexnet(), nn::vgg16(), nn::lenet5(), nn::tiny_cnn(), mixed})
    h.u64(net.weight_count());
  expect_digest(expected, "weight_count", h.value());
}

} // namespace
