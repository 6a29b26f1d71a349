// Functional workloads: images served through BatchRunner::run by a closed
// loop with one caller (the next call is issued when the previous returns).
//
//   lenet_t4    LeNet-5, 1 PCU x 4 engine threads, 1 image per call.
//   widefm_2x2  64x64x4 two-conv net, 2 PCUs x 2 engine threads, 4 images
//               per call (the only workload where serve_all shards).
//
// The untraced run gives the end-to-end metrics. The traced run replays the
// same seeded calls through the public layer entry points (simulate_admission,
// serve_all, Pcu::serve, Accelerator::run_range per op, WeightBank
// programming, forward_reference, Rng::normal) and times each from outside.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "core/config.hpp"
#include "core/optical_conv_engine.hpp"
#include "core/scheduler.hpp"
#include "nn/models.hpp"
#include "nn/network.hpp"
#include "nn/synth.hpp"
#include "photonics/wdm.hpp"
#include "photonics/weight_bank.hpp"
#include "runtime/batch_runner.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using namespace pcnna;

/// Images of the first calls checked against nn::forward_reference for
/// argmax agreement (after the timed window).
constexpr std::size_t kArgmaxImages = 100;
/// Keeps image seeds apart from the runner's per-request engine seeds.
constexpr std::uint64_t kImageSalt = 0x696d616765735eedull;

struct FunctionalSpec {
  nn::Network net;
  std::size_t pcus = 1;
  std::size_t engine_threads = 1;
  std::size_t images_per_call = 1;
};

nn::Network widefm() {
  nn::Network net("widefm", nn::Shape4{1, 4, 64, 64});
  net.add_conv({"w1", /*n=*/64, /*m=*/3, /*p=*/1, /*s=*/1, /*nc=*/4, /*K=*/16})
      .add_relu();
  net.add_conv({"w2", /*n=*/64, /*m=*/3, /*p=*/1, /*s=*/1, /*nc=*/16,
                /*K=*/16})
      .add_relu()
      .add_maxpool(2, 2);
  net.add_fc(10).add_softmax();
  return net;
}

FunctionalSpec spec_for(const std::string& workload) {
  if (workload == "lenet_t4") return {nn::lenet5(), 1, 4, 1};
  if (workload == "widefm_2x2") return {widefm(), 2, 2, 4};
  throw std::invalid_argument("not a functional workload: " + workload);
}

std::size_t argmax(const nn::Tensor& t) {
  const std::span<const double> v = t.data();
  return static_cast<std::size_t>(std::max_element(v.begin(), v.end()) -
                                  v.begin());
}

/// One functional workload instance: model, weights, and seeded inputs.
class Functional {
 public:
  Functional(const std::string& workload, std::uint64_t seed)
      : spec_(spec_for(workload)), seed_(seed) {
    Rng rng(kModelSeed);
    weights_ = nn::make_network_weights(spec_.net, rng);
    options_.num_pcus = spec_.pcus;
    options_.engine_threads = spec_.engine_threads;
    options_.simulate_values = true;
    options_.seed = seed;
  }

  const nn::Network& net() const { return spec_.net; }
  const nn::NetWeights& weights() const { return weights_; }
  const runtime::BatchRunnerOptions& options() const { return options_; }
  std::size_t batch() const { return spec_.images_per_call; }

  std::unique_ptr<runtime::BatchRunner> make_runner() const {
    return std::make_unique<runtime::BatchRunner>(
        core::PcnnaConfig::paper_defaults(), spec_.net, weights_, options_);
  }

  /// Inputs of call `call`: images call*B .. call*B + B-1 of the seed.
  std::vector<nn::Tensor> call_inputs(std::size_t call) const {
    std::vector<nn::Tensor> inputs;
    for (std::size_t j = 0; j < batch(); ++j) {
      Rng rng(runtime::derive_request_seed(seed_ ^ kImageSalt,
                                           call * batch() + j));
      inputs.push_back(nn::make_network_input(spec_.net, rng));
    }
    return inputs;
  }

  /// Every request served (not shed or failed) with a finite output of the
  /// network's output shape.
  bool outputs_valid(const std::vector<runtime::RequestResult>& results) const {
    if (results.size() != batch()) return false;
    for (std::size_t j = 0; j < results.size(); ++j) {
      const runtime::RequestResult& r = results[j];
      if (r.id != j || r.shed || r.failed ||
          !(r.output.shape() == spec_.net.output_shape()))
        return false;
      for (double v : r.output.data())
        if (!std::isfinite(v)) return false;
    }
    return true;
  }

 private:
  FunctionalSpec spec_;
  std::uint64_t seed_;
  nn::NetWeights weights_;
  runtime::BatchRunnerOptions options_;
};

Result run_untraced(const Functional& w, const Args& args) {
  Result res;
  stats::CallLedger ledger;

  const std::vector<nn::Tensor> warm_inputs = w.call_inputs(0);
  std::vector<double> setup_s;
  std::unique_ptr<runtime::BatchRunner> runner;
  for (std::size_t i = 0; i < kSetups; ++i) {
    runner.reset();
    const Clock::time_point t0 = Clock::now();
    runner = w.make_runner();
    runner->run(warm_inputs);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  std::vector<double> call_s;
  std::vector<runtime::RequestResult> first;
  std::vector<double> sim_latency;
  double sim_request = 0.0;
  std::size_t offered = 0, served = 0;
  std::vector<nn::Tensor> classify_inputs, classify_outputs;
  closed_loop(args.seconds, kMinCalls, res, ledger, [&](std::size_t call) {
    const std::vector<nn::Tensor> inputs = w.call_inputs(call);
    runtime::FleetReport report;
    const Clock::time_point t0 = Clock::now();
    std::vector<runtime::RequestResult> results = runner->run(inputs, &report);
    call_s.push_back(seconds_between(t0, Clock::now()));
    if (!w.outputs_valid(results)) return false;
    if (call < kSimCalls) {
      if (call == 0) sim_request = report.request_time_serial;
      if (report.request_time_serial != sim_request) return false;
      sim_latency.push_back(report.max_latency);
      offered += inputs.size();
      for (const runtime::RequestResult& r : results)
        if (!r.shed && !r.failed && !r.output.empty()) ++served;
    }
    for (std::size_t j = 0;
         j < inputs.size() && classify_inputs.size() < kArgmaxImages; ++j) {
      classify_inputs.push_back(inputs[j]);
      classify_outputs.push_back(results[j].output);
    }
    if (call == 0) first = std::move(results);
    return true;
  });

  // The first call, repeated, must reproduce its output bits.
  checked_call("repeat of call 0", res, ledger, [&] {
    const std::vector<runtime::RequestResult> again =
        runner->run(w.call_inputs(0));
    bool same = first.size() == again.size();
    for (std::size_t j = 0; same && j < again.size(); ++j)
      same = bits_equal(first[j].output, again[j].output);
    return same;
  });

  add_host_metrics(res, setup_s, call_s,
                   static_cast<double>(call_s.size() * w.batch()), ledger);
  if (sim_latency.empty() || classify_inputs.empty()) return res;

  std::size_t agreed = 0;
  for (std::size_t i = 0; i < classify_inputs.size(); ++i) {
    const nn::Tensor golden =
        nn::forward_reference(w.net(), w.weights(), classify_inputs[i]);
    if (argmax(golden) == argmax(classify_outputs[i])) ++agreed;
  }
  res.add("sim_request_s", sim_request, "sim_s");
  res.add("sim_latency_p99_s", stats::percentile(sim_latency, 99), "sim_s",
          sim_latency.size());
  res.add("sim_slo_attainment",
          static_cast<double>(served) / static_cast<double>(offered), "ratio",
          offered);
  res.add("argmax_agreement",
          static_cast<double>(agreed) /
              static_cast<double>(classify_inputs.size()),
          "ratio", classify_inputs.size());
  return res;
}

/// One conv layer's weight-bank programming, replayed through public calls:
/// for each of the layer's G x K banks, WeightBank construction (drawing
/// fabrication disorder), calibrate() to the layer's own scaled weight
/// slice, then channel_splits_into(), as the engine's full-kernel path does.
class BankReplay {
 public:
  BankReplay(const core::PcnnaConfig& config, const nn::ConvLayerParams& layer,
             const nn::Tensor& weights, std::uint64_t seed)
      : config_(config),
        plan_(core::Scheduler(config).plan(layer)),
        weights_(weights),
        seed_(seed) {
    if (plan_.allocation != core::RingAllocation::kFullKernel)
      throw std::invalid_argument(
          "bank replay models the full-kernel allocation only");
    Rng rng(seed);
    denom_ = 0.95 * core::measured_usable_range(config, plan_.group_size, rng);
    w_absmax_ = weights.abs_max();
  }

  /// Program every bank once; returns the host seconds spent in calibrate().
  double run(std::size_t& calibrations) {
    Rng fab(seed_);
    const std::size_t K = plan_.layer.K;
    const std::size_t n_kernel = plan_.layer.kernel_size();
    double calibrate_s = 0.0;
    for (const core::GroupSlice& slice : plan_.groups) {
      const phot::WdmGrid grid(slice.size());
      targets_.resize(slice.size());
      splits_.resize(slice.size());
      for (std::size_t k = 0; k < K; ++k) {
        phot::WeightBank bank(grid, config_.bank, fab);
        for (std::size_t i = 0; i < slice.size(); ++i)
          targets_[i] =
              weights_[k * n_kernel + slice.begin + i] / w_absmax_ * denom_;
        const Clock::time_point t0 = Clock::now();
        bank.calibrate(targets_);
        calibrate_s += seconds_between(t0, Clock::now());
        ++calibrations;
        bank.channel_splits_into(splits_);
      }
    }
    return calibrate_s;
  }

 private:
  const core::PcnnaConfig& config_;
  core::LayerPlan plan_;
  const nn::Tensor& weights_;
  std::uint64_t seed_;
  double denom_ = 0.0;
  double w_absmax_ = 1.0;
  std::vector<double> targets_;
  std::vector<phot::WeightBank::ChannelSplit> splits_;
};

/// Per-layer samples of one traced call, normalized per image.
struct TracedCall {
  std::map<std::string, double> conv_ms;
  std::map<std::string, double> bank_ms;
  double calibrate_us = 0.0;
  double electronic_ms = 0.0;
  double golden_ms = 0.0;
  double admission_us = 0.0;
  double serve_ms = 0.0;
  double shard_efficiency = 0.0;
  double rng_ns = 0.0;
  double coverage = 0.0;
};

Result run_traced(const Functional& w, const Args& args) {
  Result res;
  stats::CallLedger ledger;
  Spans spans;

  std::unique_ptr<runtime::BatchRunner> runner = w.make_runner();
  runner->run(w.call_inputs(0));
  runtime::PcuPool& pool = runner->pool();
  const runtime::BatchRunnerOptions& opts = w.options();
  const core::PcnnaConfig& config = pool.pcu(0).config();
  const std::vector<nn::LayerOp>& ops = w.net().ops();

  const std::vector<double> pcu_build_us =
      time_pcu_builds(pool, w.net(), w.weights());

  // Replay state: one Accelerator like PCU 0, one bank replay per conv op.
  core::Accelerator replay(config, pool.pcu(0).fidelity());
  std::map<std::size_t, BankReplay> banks;
  for (std::size_t op = 0; op < ops.size(); ++op)
    if (ops[op].kind == nn::OpKind::kConv)
      banks.try_emplace(op, config, ops[op].conv, w.weights().weight[op],
                        runtime::derive_request_seed(opts.seed, 0));

  // Exact per-image engine counts, taken from the first replayed image.
  std::map<std::string, core::EngineStats> engine;
  std::vector<TracedCall> samples;

  const auto trace_one = [&](std::size_t call) {
    const std::vector<nn::Tensor> inputs = w.call_inputs(call);
    const std::size_t B = inputs.size();
    const double per_image = 1.0 / static_cast<double>(B);
    TracedCall s;
    bool ok = true;
    const auto check = [&](bool cond, const std::string& what) {
      if (!cond) {
        ok = false;
        res.notes.push_back("call " + std::to_string(call) + ": " + what);
      }
    };
    // The untraced call this trace decomposes.
    runtime::FleetReport report;
    const Clock::time_point t0 = Clock::now();
    const std::vector<runtime::RequestResult> untraced =
        runner->run(inputs, &report);
    const double call_s = seconds_between(t0, Clock::now());
    if (!w.outputs_valid(untraced)) return false;

    // runtime: admission of the closed batch, as run() prices it.
    runtime::RequestQueue admit;
    for (std::size_t j = 0; j < B; ++j) {
      runtime::InferenceRequest request;
      request.id = j;
      admit.push(std::move(request));
    }
    admit.close();
    runtime::AdmissionOptions admission_options;
    admission_options.double_buffer = opts.double_buffer;
    admission_options.policy = opts.dispatch;
    runtime::AdmissionResult admission;
    s.admission_us = 1e6 * per_image *
                     spans.time(Module::kRuntime, "simulate_admission", call,
                                [&] {
                                  admission = pool.simulate_admission(
                                      admit, admission_options);
                                });
    double sim_latency = 0.0;
    for (const runtime::ScheduledService& svc : admission.schedule)
      sim_latency = std::max(sim_latency, svc.completion);
    check(sim_latency == report.max_latency &&
              pool.pcu(0).request_time_serial() ==
                  report.request_time_serial,
          "simulated times differ between traced and untraced runs");

    // runtime: dynamic sharding, then the same requests one by one.
    std::vector<runtime::InferenceRequest> requests(B);
    runtime::RequestQueue queue;
    for (std::size_t j = 0; j < B; ++j) {
      requests[j].id = j;
      requests[j].seed = runtime::derive_request_seed(opts.seed, j);
      requests[j].input = inputs[j];
      queue.push(requests[j]);
    }
    queue.close();
    std::vector<runtime::RequestResult> sharded;
    const double serve_s =
        spans.time(Module::kRuntime, "serve_all", call, [&] {
          sharded = pool.serve_all(queue, B, true);
        });
    s.serve_ms = 1e3 * per_image * serve_s;
    double sequential_s = 0.0;
    for (std::size_t j = 0; j < B; ++j) {
      runtime::RequestResult one;
      sequential_s += spans.time(Module::kRuntime, "pcu_serve", call, [&] {
        one = pool.pcu(j % pool.size()).serve(requests[j], true);
      });
      check(bits_equal(one.output, untraced[j].output) &&
                bits_equal(sharded[j].output, untraced[j].output),
            "serve_all / Pcu::serve output differs from run()");
    }
    const std::size_t lanes = std::min(pool.size(), B);
    s.shard_efficiency =
        sequential_s / (serve_s * static_cast<double>(lanes));

    // core / nn: every op of every image through run_range(op, op + 1).
    double span_s = 0.0;
    for (std::size_t j = 0; j < B; ++j) {
      replay.reseed_engine(runtime::derive_request_seed(opts.seed, j));
      nn::Tensor x = inputs[j];
      for (std::size_t op = 0; op < ops.size(); ++op) {
        const bool conv = ops[op].kind == nn::OpKind::kConv;
        core::NetworkRunReport out;
        const double dt = spans.time(
            conv ? Module::kCore : Module::kNn,
            conv ? "conv " + ops[op].conv.name
                 : std::string(nn::op_kind_name(ops[op].kind)),
            call, [&] {
              out = replay.run_range(w.net(), w.weights(), x, op, op + 1,
                                     true);
            });
        span_s += dt;
        x = std::move(out.output);
        if (conv) {
          s.conv_ms[ops[op].conv.name] += 1e3 * per_image * dt;
          if (!out.conv_layers.empty())
            engine.try_emplace(ops[op].conv.name, out.conv_layers[0].engine);
        } else {
          s.electronic_ms += 1e3 * per_image * dt;
        }
      }
      check(bits_equal(x, untraced[j].output),
            "layer-by-layer replay differs from run()");
    }
    s.coverage = stats::coverage(span_s, call_s, lanes);

    // photonics: each conv layer's bank programming.
    std::size_t calibrations = 0;
    double calibrate_s = 0.0;
    for (auto& [op, bank] : banks) {
      const std::string& name = ops[op].conv.name;
      s.bank_ms[name] =
          1e3 * spans.time(Module::kPhotonics, "bank_program " + name, call,
                           [&] { calibrate_s += bank.run(calibrations); });
    }
    s.calibrate_us = 1e6 * calibrate_s / static_cast<double>(calibrations);

    // nn: the golden CPU floor.
    for (std::size_t j = 0; j < B; ++j) {
      s.golden_ms += 1e3 * per_image *
                     spans.time(Module::kNn, "forward_reference", call, [&] {
                       nn::forward_reference(w.net(), w.weights(),
                                             inputs[j]);
                     });
    }

    // common: the noise source.
    s.rng_ns = time_rng_normal_ns(spans, call, kRngDraws);
    if (ok) samples.push_back(std::move(s));
    return ok;
  };
  closed_loop(args.seconds, kMinTracedCalls, res, ledger, trace_one);
  res.attempted = ledger.attempted;
  res.failed = ledger.failed;
  if (!args.trace_out.empty() &&
      !spans.write_chrome_trace(args.trace_out, args.workload))
    res.fail("could not write the Chrome trace to " + args.trace_out);
  if (samples.empty()) return res;

  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const TracedCall& s : samples) v.push_back(field(s));
    return stats::median(v);
  };
  const std::size_t n = samples.size();
  const double rng_ns = med([](const TracedCall& s) { return s.rng_ns; });

  res.add("runtime.admission_us_per_request",
          med([](const TracedCall& s) { return s.admission_us; }), "us", n);
  res.add("runtime.pcu_build_us", stats::median(pcu_build_us), "us",
          pcu_build_us.size());
  res.add("runtime.serve_ms_per_image",
          med([](const TracedCall& s) { return s.serve_ms; }), "ms", n);
  res.add("runtime.shard_efficiency",
          med([](const TracedCall& s) { return s.shard_efficiency; }), "ratio",
          n);
  res.add("runtime.served", static_cast<double>(w.batch()), "count");

  core::EngineStats total;
  for (const auto& [layer, st] : engine) {
    total.banks_built += st.banks_built;
    total.patches_streamed += st.patches_streamed;
    total.optical_passes += st.optical_passes;
    total.noise_draws += st.noise_draws;
    const double conv_ms =
        med([&](const TracedCall& s) { return s.conv_ms.at(layer); });
    res.add("core.conv_ms." + layer, conv_ms, "ms", n);
    res.add("photonics.bank_program_ms." + layer,
            med([&](const TracedCall& s) { return s.bank_ms.at(layer); }),
            "ms", n);
    res.add("photonics.bank_share." + layer,
            med([&](const TracedCall& s) {
              return s.bank_ms.at(layer) / s.conv_ms.at(layer);
            }),
            "ratio", n);
    res.add("core.noise_share." + layer,
            static_cast<double>(st.noise_draws) * rng_ns / (1e6 * conv_ms),
            "ratio", n);
  }
  res.add("core.banks_built", static_cast<double>(total.banks_built), "count");
  res.add("core.patches_streamed", static_cast<double>(total.patches_streamed),
          "count");
  res.add("core.optical_passes", static_cast<double>(total.optical_passes),
          "count");
  res.add("core.noise_draws", static_cast<double>(total.noise_draws), "count");
  res.add("photonics.calibrate_us",
          med([](const TracedCall& s) { return s.calibrate_us; }), "us", n);
  res.add("common.rng_normal_ns", rng_ns, "ns", n);
  res.add("nn.electronic_ms",
          med([](const TracedCall& s) { return s.electronic_ms; }), "ms", n);
  res.add("nn.golden_forward_ms",
          med([](const TracedCall& s) { return s.golden_ms; }), "ms", n);
  res.add("trace.coverage", med([](const TracedCall& s) { return s.coverage; }),
          "ratio", n);

  return res;
}

} // namespace

Result run_functional(const Args& args) {
  const Functional w(args.workload, args.seed);
  return args.trace ? run_traced(w, args) : run_untraced(w, args);
}

} // namespace perfbench
