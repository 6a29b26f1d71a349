// Design explorer: what-if analysis over the PCNNA hardware parameters.
//
// A small CLI for architects: pick the DAC count, fast-clock frequency, WDM
// channel budget, ring allocation and timing fidelity, and see the predicted
// per-layer execution time and energy for AlexNet (or VGG-16 / LeNet-5).
//
//   design_explorer [--network alexnet|vgg16|lenet5] [--ndac N]
//                   [--clock-ghz F] [--max-wavelengths N]
//                   [--allocation full|per-channel] [--fidelity paper|full]
//                   [--json]
//
// --json emits the same report as a machine-readable JSON document instead
// of tables (for sweeping this binary from scripts). A malformed number, a
// signed count or a design point PcnnaConfig::validate() rejects exits 2
// with a message naming the flag or the config field.
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/json.hpp"
#include "common/report.hpp"
#include "common/units.hpp"
#include "core/energy_model.hpp"
#include "core/ring_count.hpp"
#include "core/timing_model.hpp"
#include "nn/models.hpp"

using namespace pcnna;
namespace u = units;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--network alexnet|vgg16|lenet5] [--ndac N] [--clock-ghz F]"
               " [--max-wavelengths N] [--allocation full|per-channel]"
               " [--fidelity paper|full] [--json]\n";
  std::exit(2);
}

/// `text` parsed whole as a T; from_chars takes no sign for an unsigned T,
/// so a count rejects "-1" instead of wrapping it.
template <class T>
T parse_number(const char* argv0, const std::string& flag,
               const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || stop != end) {
    std::cerr << argv0 << ": bad value '" << text << "' for " << flag << '\n';
    usage(argv0);
  }
  return value;
}

} // namespace

int main(int argc, char** argv) {
  std::string network = "alexnet";
  core::PcnnaConfig cfg = core::PcnnaConfig::paper_defaults();
  core::TimingFidelity fidelity = core::TimingFidelity::kPaper;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
      continue;
    }
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--network") {
      network = next();
    } else if (arg == "--ndac") {
      cfg.num_input_dacs = parse_number<std::size_t>(argv[0], arg, next());
    } else if (arg == "--clock-ghz") {
      cfg.fast_clock = parse_number<double>(argv[0], arg, next()) * u::GHz;
    } else if (arg == "--max-wavelengths") {
      cfg.max_wavelengths = parse_number<std::size_t>(argv[0], arg, next());
    } else if (arg == "--allocation") {
      const std::string v = next();
      if (v == "full") {
        cfg.allocation = core::RingAllocation::kFullKernel;
      } else if (v == "per-channel") {
        cfg.allocation = core::RingAllocation::kPerChannel;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--fidelity") {
      const std::string v = next();
      if (v == "paper") {
        fidelity = core::TimingFidelity::kPaper;
      } else if (v == "full") {
        fidelity = core::TimingFidelity::kFull;
      } else {
        usage(argv[0]);
      }
    } else {
      usage(argv[0]);
    }
  }

  std::vector<nn::ConvLayerParams> layers;
  if (network == "alexnet") {
    layers = nn::alexnet_conv_layers();
  } else if (network == "vgg16") {
    layers = nn::vgg16_conv_layers();
  } else if (network == "lenet5") {
    layers = nn::lenet5_conv_layers();
  } else {
    usage(argv[0]);
  }

  try {
    cfg.validate();
  } catch (const Error& e) {
    std::cerr << argv[0] << ": " << e.what() << '\n';
    return 2;
  }
  const core::TimingModel timing(cfg, fidelity);
  const core::RingCountModel rings;
  const core::Scheduler scheduler(cfg);
  const core::EnergyModel energy(cfg);

  if (json) {
    JsonWriter w(std::cout);
    w.begin_object();
    w.key("design_point").begin_object();
    w.kv("network", network)
        .kv("ndac", static_cast<std::uint64_t>(cfg.num_input_dacs))
        .kv("dac_rate_hz", cfg.input_dac.sample_rate)
        .kv("fast_clock_hz", cfg.fast_clock)
        .kv("max_wavelengths",
            static_cast<std::uint64_t>(cfg.max_wavelengths))
        .kv("allocation", core::ring_allocation_name(cfg.allocation))
        .kv("fidelity", core::timing_fidelity_name(fidelity));
    w.end_object();
    w.key("layers").begin_array();
    std::uint64_t max_rings_json = 0;
    for (const auto& layer : layers) {
      const auto plan = scheduler.plan(layer);
      const auto t = timing.layer_time(layer);
      const auto e = energy.layer_energy(plan, t);
      max_rings_json = std::max(max_rings_json, plan.rings_total);
      w.begin_object();
      w.kv("name", layer.name)
          .kv("rings", plan.rings_total)
          .kv("area_m2", rings.area(plan.rings_total))
          .kv("optical_core_s", t.optical_core_time)
          .kv("full_system_s", t.full_system_time)
          .kv("bottleneck", t.bottleneck)
          .kv("energy_j", e.total());
      w.end_object();
    }
    w.end_array();
    w.key("shared_core").begin_object();
    w.kv("rings", max_rings_json).kv("area_m2", rings.area(max_rings_json));
    w.end_object();
    w.end_object();
    w.finish();
    std::cout << '\n';
    return 0;
  }

  std::cout << "PCNNA design point: " << network << ", "
            << cfg.num_input_dacs << " input DACs @ "
            << format_freq(cfg.input_dac.sample_rate) << ", fast clock "
            << format_freq(cfg.fast_clock) << ", "
            << cfg.max_wavelengths << " WDM channels, "
            << core::ring_allocation_name(cfg.allocation) << " allocation, "
            << core::timing_fidelity_name(fidelity) << " timing model\n\n";

  TextTable table({"layer", "rings", "area", "PCNNA(O)", "PCNNA(O+E)",
                   "bottleneck", "energy"});
  double total_o = 0.0, total_oe = 0.0, total_e = 0.0;
  std::uint64_t max_rings = 0;
  for (const auto& layer : layers) {
    const auto plan = scheduler.plan(layer);
    const auto t = timing.layer_time(layer);
    const auto e = energy.layer_energy(plan, t);
    total_o += t.optical_core_time;
    total_oe += t.full_system_time;
    total_e += e.total();
    max_rings = std::max(max_rings, plan.rings_total);
    table.add_row({layer.name,
                   format_count(static_cast<double>(plan.rings_total)),
                   format_area(rings.area(plan.rings_total)),
                   format_time(t.optical_core_time),
                   format_time(t.full_system_time), t.bottleneck,
                   format_energy(e.total())});
  }
  table.print(std::cout);

  std::cout << "\nShared-core sizing (paper SS IV: one physical layer, "
               "virtually reused):\n"
            << "  rings needed : " << format_count(static_cast<double>(max_rings))
            << "  (" << format_area(rings.area(max_rings)) << ")\n"
            << "Totals: optical " << format_time(total_o) << ", full system "
            << format_time(total_oe) << ", energy " << format_energy(total_e)
            << '\n';
  return 0;
}
