// Golden digests of the functional engine.
//
// Each case covers three requests of one network under one config, run
// twice: through one core::Accelerator (run_range over the whole network
// after a reseed, with layer programs the first request fills and the
// others read) and through one runtime::Pcu (serve for the first two
// requests, and the third as a two-stage serve_stage pipeline). Each case
// has two digests: one of every offloaded layer's EngineStats and the
// served EngineWork, which noise does not touch, and one of every output
// bit. The networks are LeNet-5, tiny_cnn and a wide 64x64x4 two-conv net;
// the configs are ideal(), paper_defaults(), small_core(), paper_defaults()
// with 5 % stuck heaters, and paper_defaults() with 50 pm fabrication
// disorder. LeNet-5 and tiny_cnn also run with their FC layers offloaded
// (accelerate_fc) under ideal(), a quiet faulty chip (paper_defaults()
// without noise, with 5 % stuck heaters and 50 pm disorder),
// paper_defaults() and small_core(). Every digest must hold at
// engine_threads 1 and 4 alike. On a mismatch the failure message is the
// map entry to paste.
//
// The engine's noise (Box-Muller: log, sqrt, cos) and its ring model go
// through the C math library; the digests were recorded with glibc 2.36 on
// x86-64.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "core/config.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/pcu.hpp"
#include "runtime/request_queue.hpp"

#include "fnv1a.hpp"

namespace {

using namespace pcnna;
using core::PcnnaConfig;
using golden::expect_digest;
using golden::Fnv1a;

constexpr std::size_t kRequests = 3;

/// Two wide 3x3 convs on a 64x64x4 map: the pixel sweep dominates.
nn::Network widefm() {
  nn::Network net("widefm", nn::Shape4{1, 4, 64, 64});
  net.add_conv({"w1", 64, 3, 1, 1, 4, 16}).add_relu();
  net.add_conv({"w2", 64, 3, 1, 1, 16, 16}).add_relu().add_maxpool(2, 2);
  net.add_fc(10).add_softmax();
  return net;
}

std::map<std::string, PcnnaConfig> digest_configs() {
  PcnnaConfig stuck = PcnnaConfig::paper_defaults();
  stuck.stuck_ring_rate = 0.05;
  PcnnaConfig disorder = PcnnaConfig::paper_defaults();
  disorder.bank.ring.fab_sigma = 0.05e-9;
  PcnnaConfig quiet_faulty = PcnnaConfig::paper_defaults();
  quiet_faulty.enable_noise = false;
  quiet_faulty.stuck_ring_rate = 0.05;
  quiet_faulty.bank.ring.fab_sigma = 0.05e-9;
  const auto fc = [](PcnnaConfig config) {
    config.accelerate_fc = true;
    return config;
  };
  return {{"ideal", PcnnaConfig::ideal()},
          {"paper_defaults", PcnnaConfig::paper_defaults()},
          {"small_core", PcnnaConfig::small_core()},
          {"stuck_5pct", stuck},
          {"disorder_50pm", disorder},
          {"fc_ideal", fc(PcnnaConfig::ideal())},
          {"fc_quiet_faulty", fc(quiet_faulty)},
          {"fc_paper_defaults", fc(PcnnaConfig::paper_defaults())},
          {"fc_small_core", fc(PcnnaConfig::small_core())}};
}

void hash_tensor(Fnv1a& h, const nn::Tensor& t) {
  h.u64(t.size());
  for (double v : t.data()) h.f64(v);
}

void hash_stats(Fnv1a& h, const core::EngineStats& s) {
  h.u64(s.locations);
  h.u64(s.optical_passes);
  h.u64(s.dac_conversions);
  h.u64(s.adc_conversions);
  h.u64(s.patches_streamed);
  h.u64(s.noise_draws);
  h.u64(s.weight_dac_conversions);
  h.u64(s.recalibrations);
  h.u64(s.banks_built);
  h.u64(s.rings_used);
  h.u64(s.wavelengths_used);
  h.u64(s.stuck_rings);
  h.f64(s.mean_calibration_error);
  h.f64(s.max_calibration_error);
  h.f64(s.total_heater_power);
  h.f64(s.total_ring_area);
}

void hash_work(Fnv1a& h, const runtime::EngineWork& w) {
  h.u64(w.patches_streamed);
  h.u64(w.bank_passes);
  h.u64(w.noise_draws);
  h.u64(w.dac_conversions);
  h.u64(w.adc_conversions);
}

struct Digests {
  std::uint64_t work = 0;    ///< EngineStats and EngineWork
  std::uint64_t outputs = 0; ///< output and activation bits
};

/// The digests of `net` under `config` at `threads` engine threads.
Digests engine_digests(const nn::Network& net, PcnnaConfig config,
                       std::size_t threads) {
  config.engine_threads = threads;
  Rng weight_rng(5);
  const nn::NetWeights weights = nn::make_network_weights(net, weight_rng);
  std::vector<runtime::InferenceRequest> requests(kRequests);
  for (std::size_t r = 0; r < kRequests; ++r) {
    requests[r].id = r;
    requests[r].seed = runtime::derive_request_seed(11, r);
    Rng input_rng(runtime::derive_request_seed(23, r));
    requests[r].input = nn::make_network_input(net, input_rng);
  }
  const std::size_t ops = net.ops().size();

  Fnv1a work, outputs;
  core::Accelerator accelerator(config);
  std::vector<core::LayerProgram> programs(ops);
  for (const runtime::InferenceRequest& request : requests) {
    accelerator.reseed_engine(request.seed);
    const core::NetworkRunReport run = accelerator.run_range(
        net, weights, request.input, 0, ops, true, programs);
    hash_tensor(outputs, run.output);
    for (const core::LayerRunReport& layer : run.conv_layers)
      hash_stats(work, layer.engine);
    for (const core::LayerRunReport& layer : run.fc_layers)
      hash_stats(work, layer.engine);
  }

  runtime::Pcu pcu(0, config, core::TimingFidelity::kPaper, net, weights);
  for (std::size_t r = 0; r + 1 < kRequests; ++r) {
    const runtime::RequestResult result = pcu.serve(requests[r], true);
    hash_tensor(outputs, result.output);
    hash_work(work, result.work);
  }
  const runtime::InferenceRequest& last = requests.back();
  const std::size_t split = ops / 2;
  const runtime::StageHandoff first =
      pcu.serve_stage(0, 0, split, last.input, last.seed, 0.0, true);
  const runtime::StageHandoff second = pcu.serve_stage(
      0, split, ops, first.activation, last.seed, first.energy, true);
  hash_work(work, first.work);
  hash_tensor(outputs, second.activation);
  hash_work(work, second.work);
  return {work.value(), outputs.value()};
}

/// EngineStats and EngineWork of every case: recorded with the engine's
/// noise drawn from one sequential stream per request, and unchanged by
/// keying it per (request, op, pass, pixel). The fc_ cases were recorded
/// when the engine ran FC layers on a path of their own, and re-recorded
/// once when they became 1x1 conv calls: every FC call streams one patch;
/// a noisy one counts its draws; a per-channel one runs in passes.
const std::map<std::string, std::uint64_t> kExpectedWork = {
    {"lenet5/disorder_50pm", 0x60c4daba572059eaull},
    {"lenet5/fc_ideal", 0x404e859e3d8ee9beull},
    {"lenet5/fc_paper_defaults", 0x15b28b96a52c94d4ull},
    {"lenet5/fc_quiet_faulty", 0xbbbe010f8e58c2f2ull},
    {"lenet5/fc_small_core", 0xbf63c6e95a697c40ull},
    {"lenet5/ideal", 0xdfb73bb8c1a8989eull},
    {"lenet5/paper_defaults", 0x9ecccbb2b8e2063aull},
    {"lenet5/small_core", 0xc01aaf0470f5269dull},
    {"lenet5/stuck_5pct", 0xa1b27f4315c02e4bull},
    {"tiny_cnn/disorder_50pm", 0xc0dcef89372fcf5cull},
    {"tiny_cnn/fc_ideal", 0x77d07e1b049a6834ull},
    {"tiny_cnn/fc_paper_defaults", 0xa4f29c30dd21d2a0ull},
    {"tiny_cnn/fc_quiet_faulty", 0xe4568d7d42b3bc8eull},
    {"tiny_cnn/fc_small_core", 0x2755426f1ec4e2e9ull},
    {"tiny_cnn/ideal", 0x1870a47f887bcecaull},
    {"tiny_cnn/paper_defaults", 0x6ab1682cd42b4d22ull},
    {"tiny_cnn/small_core", 0x84a0c2e98b807eb5ull},
    {"tiny_cnn/stuck_5pct", 0xd14d0885c865014dull},
    {"widefm/disorder_50pm", 0xf3023a9eecd93bf1ull},
    {"widefm/ideal", 0x69aed9583002100bull},
    {"widefm/paper_defaults", 0x4053112bdd59f2e3ull},
    {"widefm/small_core", 0x6bdac7efa8d206f6ull},
    {"widefm/stuck_5pct", 0x706d7593edb8b3a4ull},
};

/// Output bits of every case. Keying the noise per (request, op, pass,
/// pixel) re-recorded every case but the three ideal ones, which draw no
/// noise. Running FC layers as 1x1 conv calls re-recorded fc_paper_defaults
/// (noise keyed per pixel) and fc_small_core (per-channel passes) only.
const std::map<std::string, std::uint64_t> kExpectedOutputs = {
    {"lenet5/disorder_50pm", 0xec8da82524aa452dull},
    {"lenet5/fc_ideal", 0x95cbe49ec53f13d1ull},
    {"lenet5/fc_paper_defaults", 0xf6c89c4914b9c229ull},
    {"lenet5/fc_quiet_faulty", 0x01d7da47a3baa979ull},
    {"lenet5/fc_small_core", 0xc414f7b91481e4fdull},
    {"lenet5/ideal", 0x6761feba17e6c685ull},
    {"lenet5/paper_defaults", 0x945b533218cc0d2dull},
    {"lenet5/small_core", 0xaab26a84a67b2531ull},
    {"lenet5/stuck_5pct", 0xb592011cd796fe11ull},
    {"tiny_cnn/disorder_50pm", 0x940faff3de11edf5ull},
    {"tiny_cnn/fc_ideal", 0x8e855d3353542865ull},
    {"tiny_cnn/fc_paper_defaults", 0x465c678d5be4250dull},
    {"tiny_cnn/fc_quiet_faulty", 0xf5a43e908aa0e641ull},
    {"tiny_cnn/fc_small_core", 0x4a02e32bc65c5f21ull},
    {"tiny_cnn/ideal", 0x7c7f7771189784b9ull},
    {"tiny_cnn/paper_defaults", 0x6584db62dc2b46ddull},
    {"tiny_cnn/small_core", 0x8c3614e4cd2a7ff5ull},
    {"tiny_cnn/stuck_5pct", 0xdaaace07da95ed2dull},
    {"widefm/disorder_50pm", 0x2734c2dabe1e368dull},
    {"widefm/ideal", 0x004e3df5ffca0065ull},
    {"widefm/paper_defaults", 0x3cf33e712b0f0835ull},
    {"widefm/small_core", 0x493fd74e60430015ull},
    {"widefm/stuck_5pct", 0x321288f2c5db79b9ull},
};

/// One (network, config) pair per test, so the slow widefm digests spread
/// over parallel test processes.
class EngineGolden
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(EngineGolden, DigestMatches) {
  const auto& [net_name, config_name] = GetParam();
  const nn::Network net = net_name == "lenet5"     ? nn::lenet5()
                          : net_name == "tiny_cnn" ? nn::tiny_cnn()
                                                   : widefm();
  const PcnnaConfig config = digest_configs().at(config_name);
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const std::string name = net_name + "/" + config_name;
    const Digests digests = engine_digests(net, config, threads);
    expect_digest(kExpectedWork, name, digests.work);
    expect_digest(kExpectedOutputs, name, digests.outputs);
  }
}

std::string case_name(
    const ::testing::TestParamInfo<EngineGolden::ParamType>& info) {
  return std::get<0>(info.param) + "_" + std::get<1>(info.param);
}

INSTANTIATE_TEST_SUITE_P(
    Networks, EngineGolden,
    ::testing::Combine(::testing::Values("lenet5", "tiny_cnn", "widefm"),
                       ::testing::Values("ideal", "paper_defaults",
                                         "small_core", "stuck_5pct",
                                         "disorder_50pm")),
    case_name);

INSTANTIATE_TEST_SUITE_P(
    OffloadedFc, EngineGolden,
    ::testing::Combine(::testing::Values("lenet5", "tiny_cnn"),
                       ::testing::Values("fc_ideal", "fc_quiet_faulty",
                                         "fc_paper_defaults",
                                         "fc_small_core")),
    case_name);

} // namespace
