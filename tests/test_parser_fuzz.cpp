// Seeded mutation fuzzing of the external-input parsers: arrival traces,
// fault traces, PCNT tensor files, and the weight sets of a network.
//
// Each case starts from valid writer output (write_arrival_trace,
// write_fault_trace, nn::save_tensor, nn::save_network_weights), applies one to three mutations drawn
// from a fixed seed — byte flips, truncation, token duplication or
// deletion, sign and exponent edits — and feeds the result to the parser.
// The parser must either throw pcnna::Error, or return a value that passes
// validation and survives a write and a re-parse bit for bit. Any other
// exception, or an accepted input that does not round-trip, fails the case
// and prints the input.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/io.hpp"
#include "nn/models.hpp"
#include "nn/synth.hpp"
#include "runtime/arrival.hpp"
#include "runtime/fault_plan.hpp"

namespace {

using namespace pcnna;

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::size_t pick(Rng& rng, std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(rng.uniform_index(n));
}

/// Byte offsets [begin, end) of the whitespace-separated tokens of `s`.
std::vector<std::pair<std::size_t, std::size_t>> tokens(const std::string& s) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    const std::size_t begin = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > begin) out.emplace_back(begin, i);
  }
  return out;
}

/// One random mutation of a text trace.
void mutate_text(std::string& s, Rng& rng) {
  static const char* const kExponents[] = {"e308", "e309", "e-308", "e-320",
                                           "e-400", "e17",  "e+5",   "e"};
  const auto toks = tokens(s);
  switch (rng.uniform_index(6)) {
    case 0: // byte flip
      if (!s.empty())
        s[pick(rng, s.size())] ^= static_cast<char>(1 + rng.uniform_index(255));
      return;
    case 1: // truncation
      s.resize(pick(rng, s.size() + 1));
      return;
    case 2: // token duplication
      if (!toks.empty()) {
        const auto [b, e] = toks[pick(rng, toks.size())];
        s.insert(e, s.substr(b, e - b));
        s.insert(e, 1, ' ');
      }
      return;
    case 3: // token deletion
      if (!toks.empty()) {
        const auto [b, e] = toks[pick(rng, toks.size())];
        s.erase(b, e - b);
      }
      return;
    case 4: // sign edit: add or drop a sign in front of a token
      if (!toks.empty()) {
        const std::size_t b = toks[pick(rng, toks.size())].first;
        if (s[b] == '-' || s[b] == '+') {
          s.erase(b, 1);
        } else {
          s.insert(b, rng.uniform_index(2) ? "-" : "+");
        }
      }
      return;
    default: // exponent edit: append an exponent to a token
      if (!toks.empty())
        s.insert(toks[pick(rng, toks.size())].second,
                 kExponents[pick(rng, std::size(kExponents))]);
      return;
  }
}

/// One random mutation of a binary tensor file.
void mutate_bytes(std::string& s, Rng& rng) {
  const std::size_t words = s.size() / 8;
  switch (rng.uniform_index(6)) {
    case 0: // byte flip
      if (!s.empty())
        s[pick(rng, s.size())] ^= static_cast<char>(1 + rng.uniform_index(255));
      return;
    case 1: // truncation
      s.resize(pick(rng, s.size() + 1));
      return;
    case 2: // duplicate an 8-byte word
      if (words > 0) {
        const std::size_t w = pick(rng, words);
        s.insert(w * 8, s.substr(w * 8, 8));
      }
      return;
    case 3: // delete an 8-byte word
      if (words > 0) s.erase(pick(rng, words) * 8, 8);
      return;
    case 4: // sign edit: flip the top bit of a little-endian word
      if (words > 0) s[pick(rng, words) * 8 + 7] ^= static_cast<char>(0x80);
      return;
    default: // exponent edit: all-ones or all-zero exponent (inf/NaN, 0)
      if (words > 0) {
        const std::size_t w = pick(rng, words) * 8;
        const bool ones = rng.uniform_index(2) != 0;
        s[w + 7] = static_cast<char>((s[w + 7] & 0x80) | (ones ? 0x7f : 0));
        s[w + 6] = static_cast<char>(ones ? (s[w + 6] | 0xf0)
                                          : (s[w + 6] & 0x0f));
      }
      return;
  }
}

/// Mutate `base` one to three times from `rng`.
template <class Mutate>
std::string mutant(const std::string& base, Rng& rng, Mutate mutate) {
  std::string s = base;
  const std::size_t rounds = 1 + rng.uniform_index(3);
  for (std::size_t i = 0; i < rounds; ++i) mutate(s, rng);
  return s;
}

/// Feeds `input` to `parse_and_check`, which returns normally only after
/// the accepted value validated and round-tripped. pcnna::Error is an
/// accepted outcome; anything else fails with the input in the message.
template <class F>
void expect_error_or_round_trip(const std::string& input, F parse_and_check) {
  try {
    parse_and_check();
  } catch (const Error&) {
    // Rejected with the library's error: fine.
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-pcnna exception '" << e.what() << "' on input:\n"
                  << input;
  }
}

constexpr std::size_t kTextCases = 1500;
constexpr std::size_t kTensorCases = 400;
constexpr std::size_t kWeightSetCases = 200;

TEST(ParserFuzz, ArrivalTraceRejectsOrRoundTrips) {
  std::ostringstream base;
  runtime::write_arrival_trace(
      base, {0.0, 0.0, 1.5e-7, 2.5e-6, 2.5e-6, 3.0e-3, 12.0, 1.0e300});
  Rng rng(1);
  for (std::size_t c = 0; c < kTextCases; ++c) {
    const std::string input = mutant(base.str(), rng, mutate_text);
    expect_error_or_round_trip(input, [&] {
      std::istringstream in(input);
      const runtime::ArrivalSchedule parsed = runtime::parse_arrival_trace(in);
      runtime::validate_arrival_schedule(parsed);
      std::ostringstream out;
      runtime::write_arrival_trace(out, parsed);
      std::istringstream again(out.str());
      const runtime::ArrivalSchedule back = runtime::parse_arrival_trace(again);
      ASSERT_EQ(parsed.size(), back.size()) << input;
      for (std::size_t i = 0; i < parsed.size(); ++i)
        EXPECT_EQ(bits_of(parsed[i]), bits_of(back[i])) << i << ":\n" << input;
    });
  }
}

TEST(ParserFuzz, FaultTraceRejectsOrRoundTrips) {
  std::ostringstream base;
  runtime::write_fault_trace(base,
                             {{0.0, 0, runtime::FaultKind::kTransient, 1.0},
                              {1.5e-6, 3, runtime::FaultKind::kDegrade, 1.75},
                              {2.0e-6, 1, runtime::FaultKind::kCrash, 1.0},
                              {2.0e-6, 2, runtime::FaultKind::kDegrade, 1.0},
                              {9.0e-5, 1, runtime::FaultKind::kRecover, 1.0}});
  Rng rng(2);
  for (std::size_t c = 0; c < kTextCases; ++c) {
    const std::string input = mutant(base.str(), rng, mutate_text);
    expect_error_or_round_trip(input, [&] {
      std::istringstream in(input);
      const runtime::FaultSchedule parsed = runtime::parse_fault_trace(in);
      runtime::validate_fault_schedule(parsed);
      std::ostringstream out;
      runtime::write_fault_trace(out, parsed);
      std::istringstream again(out.str());
      const runtime::FaultSchedule back = runtime::parse_fault_trace(again);
      ASSERT_EQ(parsed.size(), back.size()) << input;
      for (std::size_t i = 0; i < parsed.size(); ++i) {
        EXPECT_EQ(bits_of(parsed[i].time), bits_of(back[i].time)) << input;
        EXPECT_EQ(parsed[i].pcu, back[i].pcu) << input;
        EXPECT_EQ(parsed[i].kind, back[i].kind) << input;
        EXPECT_EQ(bits_of(parsed[i].severity), bits_of(back[i].severity))
            << input;
      }
    });
  }
}

TEST(ParserFuzz, TensorFileRejectsOrRoundTrips) {
  const std::string path = ::testing::TempDir() + "/fuzz.pcnt";
  const std::string copy = ::testing::TempDir() + "/fuzz-copy.pcnt";
  nn::Tensor t(nn::Shape4{1, 2, 2, 3});
  const double values[] = {0.0,  -0.0, 1.0, -2.5e-310, 3.0e300, 0.125,
                           -7.0, 1e-3, 2.0, 4.0,       -8.0,    16.0};
  for (std::size_t i = 0; i < std::size(values); ++i) t[i] = values[i];
  nn::save_tensor(path, t);
  const auto read_file = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string base = read_file(path);

  Rng rng(3);
  for (std::size_t c = 0; c < kTensorCases; ++c) {
    const std::string input = mutant(base, rng, mutate_bytes);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(input.data(), static_cast<std::streamsize>(input.size()));
    }
    expect_error_or_round_trip(std::to_string(input.size()) +
                                   "-byte tensor file (case " +
                                   std::to_string(c) + ")",
                               [&] {
      const nn::Tensor parsed = nn::load_tensor(path);
      nn::save_tensor(copy, parsed);
      const nn::Tensor back = nn::load_tensor(copy);
      ASSERT_TRUE(parsed.shape() == back.shape()) << "case " << c;
      for (std::size_t i = 0; i < parsed.size(); ++i)
        EXPECT_EQ(bits_of(parsed[i]), bits_of(back[i])) << "case " << c;
    });
  }
  std::remove(path.c_str());
  std::remove(copy.c_str());
}

// Weight sets of tiny_cnn with a seeded subset of biases left empty. The
// unmutated save must reload bit for bit, empty biases included; then one
// of its files is deleted or mutated. A deleted bias file reads as no bias,
// a deleted weight file is an error.
TEST(ParserFuzz, NetworkWeightsRejectOrRoundTrip) {
  const nn::Network net = nn::tiny_cnn();
  Rng rng(5);
  const nn::NetWeights base = nn::make_network_weights(net, rng);
  const std::string dir = ::testing::TempDir();
  std::vector<std::size_t> params;
  for (std::size_t i = 0; i < net.ops().size(); ++i)
    if (!base.weight[i].empty()) params.push_back(i);
  ASSERT_FALSE(params.empty());
  const auto read_file = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto expect_same = [&](const nn::NetWeights& a, const nn::NetWeights& b,
                               const std::string& what) {
    ASSERT_EQ(a.weight.size(), b.weight.size()) << what;
    for (std::size_t i = 0; i < a.weight.size(); ++i) {
      for (const auto& [x, y] : {std::pair(&a.weight[i], &b.weight[i]),
                                 std::pair(&a.bias[i], &b.bias[i])}) {
        ASSERT_TRUE(x->shape() == y->shape()) << what << " op " << i;
        for (std::size_t e = 0; e < x->size(); ++e)
          EXPECT_EQ(bits_of((*x)[e]), bits_of((*y)[e])) << what << " op " << i;
      }
    }
  };

  for (std::size_t c = 0; c < kWeightSetCases; ++c) {
    const std::string what = "weight set case " + std::to_string(c);
    nn::NetWeights weights = base;
    for (std::size_t i : params)
      if (rng.uniform_index(2) != 0) weights.bias[i] = nn::Tensor();
    nn::save_network_weights(dir, "fuzzw", weights);
    expect_same(weights, nn::load_network_weights(dir, "fuzzw", net), what);

    const std::size_t op = params[pick(rng, params.size())];
    const bool bias = rng.uniform_index(2) != 0;
    const std::string path = dir + "/fuzzw_" + (bias ? "b" : "w") +
                             std::to_string(op) + ".pcnt";
    std::string input = "(deleted)";
    if (rng.uniform_index(4) == 0) {
      std::remove(path.c_str());
    } else if (std::ifstream(path).good()) {
      input = mutant(read_file(path), rng, mutate_bytes);
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(input.data(), static_cast<std::streamsize>(input.size()));
    }
    expect_error_or_round_trip(
        what + ", " + std::to_string(input.size()) + "-byte " + path, [&] {
          const nn::NetWeights parsed =
              nn::load_network_weights(dir, "fuzzw", net);
          nn::validate_weights(net, parsed);
          nn::save_network_weights(dir, "fuzzw-copy", parsed);
          expect_same(parsed, nn::load_network_weights(dir, "fuzzw-copy", net),
                      what);
        });
  }
  for (const char* prefix : {"/fuzzw_", "/fuzzw-copy_"})
    for (std::size_t op : params)
      for (const char* kind : {"w", "b"})
        std::remove((dir + prefix + kind + std::to_string(op) + ".pcnt").c_str());
}

} // namespace
