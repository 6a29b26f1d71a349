// Golden-digest helpers: a 64-bit FNV-1a over the bit patterns of every
// field fed to it, and the check that pins a digest to its recorded value.
#pragma once

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

namespace pcnna::golden {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Expect `digest` to be the one recorded for `name`; on a mismatch the
/// message is the map entry to paste.
inline void expect_digest(const std::map<std::string, std::uint64_t>& expected,
                          const std::string& name, std::uint64_t digest) {
  char actual[32];
  std::snprintf(actual, sizeof actual, "0x%016" PRIx64, digest);
  const auto it = expected.find(name);
  EXPECT_EQ(it == expected.end() ? 0u : it->second, digest)
      << "{\"" << name << "\", " << actual << "ull},";
}

} // namespace pcnna::golden
