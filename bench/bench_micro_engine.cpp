// Microbenchmarks: simulator hot-path throughput and the PR 3 engine
// rewrite's A/B speedup.
//
// Not a paper artifact — this measures the *simulator itself* so regressions
// in the hot paths (golden conv, bank calibration, functional engine) are
// visible across PRs. The functional engine is timed twice: the frozen
// pre-rewrite snapshot (core::ReferenceConvEngine) and the rewritten
// patch-streaming engine, single-threaded and with intra-image parallelism,
// on both the ideal and the paper-defaults (noise + quantization) configs.
//
// Output: a table + pcnna_micro_engine.csv, plus machine-readable rows in
// BENCH_engine.json (schema in docs/benchmarks.md). Self-checks gate the
// exit code:
//  * bit-identity — the rewritten engine must match the frozen reference
//    bitwise on every timed config, threads in {1, 2, 4};
//  * speedup — the single-threaded rewritten engine must beat the reference
//    on the ideal config (the hard floor here is deliberately below the
//    ~2x+ typical, to keep CI robust on noisy shared runners).
//
// Thread-scaling rows are reported but not gated: CI runners and dev
// machines differ in core count (a 1-core host shows ~1.0x).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "core/engine_reference.hpp"
#include "core/optical_conv_engine.hpp"
#include "nn/conv_ref.hpp"
#include "nn/synth.hpp"
#include "photonics/weight_bank.hpp"

using namespace pcnna;

namespace {

// 32x32x8 feature map, 16 3x3 kernels: 1024 kernel locations, so the
// per-pixel hot loop (not the one-time per-layer calibration) dominates the
// timing, as it does for real serving layers.
const nn::ConvLayerParams kLayer{"bench", 32, 3, 1, 1, 8, 16};

struct Data {
  nn::Tensor input, weights, bias;
  Data() {
    Rng rng(99);
    input = nn::make_input(kLayer, rng);
    weights = nn::make_conv_weights(kLayer, rng);
    bias = nn::make_conv_bias(kLayer, rng);
  }
};

const Data& data() {
  static Data d;
  return d;
}

/// Best-of-R wall time per call of `fn` [s]; each repetition batches enough
/// calls to dominate clock granularity.
template <typename Fn>
double time_per_call(Fn&& fn, int reps = 5, double min_batch_seconds = 0.05) {
  using clock = std::chrono::steady_clock;
  // Calibrate the batch size from one warmup call.
  const auto w0 = clock::now();
  fn();
  const double warm =
      std::chrono::duration<double>(clock::now() - w0).count();
  const int iters = std::max(1, static_cast<int>(min_batch_seconds /
                                                 std::max(warm, 1e-9)));
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const double dt =
        std::chrono::duration<double>(clock::now() - t0).count();
    best = std::min(best, dt / iters);
  }
  return best;
}

core::PcnnaConfig with_threads(core::PcnnaConfig cfg, std::size_t threads) {
  cfg.engine_threads = threads;
  return cfg;
}

} // namespace

int main() {
  benchutil::DualSink sink({"config", "wall/call", "speedup vs ref", "MMAC/s"},
                           "pcnna_micro_engine.csv");
  benchutil::BenchJsonWriter json("micro_engine", "BENCH_engine.json");
  const double macs = static_cast<double>(kLayer.macs());
  bool ok = true;

  const auto engine_row = [&](const std::string& name, double t,
                              double ref_t) {
    json.row(name, "wall_time_per_conv", t, "s");
    if (ref_t > 0.0) json.row(name, "speedup_vs_reference", ref_t / t, "x");
    sink.row({name, format_time(t),
              ref_t > 0.0 ? format_fixed(ref_t / t, 2) + " x" : "-",
              format_fixed(macs / t / 1e6, 1)});
  };

  // --- golden CPU reference convs ---------------------------------------
  {
    const double t = time_per_call([&] {
      nn::conv2d_direct(data().input, data().weights, data().bias, 1, 1);
    });
    json.row("golden_conv_direct", "wall_time_per_conv", t, "s");
    sink.row({"golden_conv_direct", format_time(t), "-",
              format_fixed(macs / t / 1e6, 1)});
    const double t2 = time_per_call([&] {
      nn::conv2d_im2col(data().input, data().weights, data().bias, 1, 1);
    });
    json.row("golden_conv_im2col", "wall_time_per_conv", t2, "s");
    sink.row({"golden_conv_im2col", format_time(t2), "-",
              format_fixed(macs / t2 / 1e6, 1)});
  }

  // --- weight-bank calibration ------------------------------------------
  for (const std::size_t channels : {8u, 32u, 96u}) {
    Rng rng(5);
    phot::WdmGrid grid(channels);
    phot::WeightBank bank(grid, phot::WeightBankConfig{}, rng);
    std::vector<double> targets(channels);
    for (std::size_t i = 0; i < channels; ++i)
      targets[i] = (i % 2 ? -1.0 : 1.0) * 0.8 * static_cast<double>(i + 1) /
                   static_cast<double>(channels);
    const double t = time_per_call([&] { bank.calibrate(targets); });
    const std::string name =
        "bank_calibration_" + std::to_string(channels);
    json.row(name, "wall_time_per_calibration", t, "s");
    sink.row({name, format_time(t), "-", "-"});
  }
  sink.separator();

  // --- functional engine: frozen reference vs rewritten hot path --------
  struct EngineCase {
    const char* name;
    core::PcnnaConfig config;
  };
  const EngineCase cases[] = {
      {"engine_ideal", core::PcnnaConfig::ideal()},
      {"engine_noisy", core::PcnnaConfig::paper_defaults()},
  };
  double ideal_t1_speedup = 0.0;

  for (const EngineCase& c : cases) {
    core::ReferenceConvEngine reference(c.config);
    const nn::Tensor expected =
        reference.conv2d(data().input, data().weights, data().bias, 1, 1);
    const double ref_t = time_per_call([&] {
      reference.conv2d(data().input, data().weights, data().bias, 1, 1);
    });
    engine_row(std::string(c.name) + "_reference", ref_t, 0.0);

    for (const std::size_t threads : {1u, 2u, 4u}) {
      core::OpticalConvEngine engine(with_threads(c.config, threads));
      // Bit-identity self-check before timing.
      const nn::Tensor got =
          engine.conv2d(data().input, data().weights, data().bias, 1, 1);
      if (!(got == expected)) {
        std::cout << "FAIL: " << c.name << " threads=" << threads
                  << " is not bit-identical to the frozen reference (max "
                  << format_sci(nn::max_abs_diff(got, expected)) << ")\n";
        ok = false;
      }
      const double t = time_per_call([&] {
        engine.conv2d(data().input, data().weights, data().bias, 1, 1);
      });
      engine_row(std::string(c.name) + "_t" + std::to_string(threads), t,
                 ref_t);
      if (c.config.enable_noise == false && threads == 1)
        ideal_t1_speedup = ref_t / t;
    }
  }

  sink.print("Simulator micro-benchmarks - layer " +
             benchutil::shape_str(kLayer) + ", " +
             benchutil::kernel_str(kLayer) +
             " (best-of-5 wall times; reference = frozen pre-rewrite engine)");
  if (!json.finish()) ok = false;

  // Speedup gate: the rewrite must clearly beat the reference single-
  // threaded on the ideal config (typical >= 2x; floor kept conservative
  // for noisy shared CI runners).
  if (ideal_t1_speedup < 1.5) {
    std::cout << "FAIL: single-thread ideal-config speedup "
              << format_fixed(ideal_t1_speedup, 2)
              << " x is below the 1.5 x floor\n";
    ok = false;
  }

  std::cout << "\nself-checks: " << (ok ? "PASS" : "FAIL")
            << " (A/B bit-identity for threads {1,2,4}, >= 1.5x single-thread"
               " speedup)\n";
  return ok ? 0 : 1;
}
