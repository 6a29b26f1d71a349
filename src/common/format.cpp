#include "common/format.hpp"

#include <array>
#include <cmath>
#include <cstdio>

namespace pcnna {
namespace {

struct Prefix {
  double scale;
  const char* suffix;
};

/// `value` in `base_suffix` units with the largest of `prefixes` (ordered
/// largest first) that it reaches. Below the smallest prefix, from 10^6 of
/// the largest up, and when not finite, it prints in scientific notation in
/// the base unit instead ("3.02e+65 s"), so no value prints more than six
/// integer digits.
std::string with_prefix(double value, const Prefix* prefixes, int n_prefixes,
                        int sig, const char* base_suffix) {
  if (value == 0.0) return std::string("0 ") + base_suffix;
  const double mag = std::abs(value);
  if (!(mag >= prefixes[n_prefixes - 1].scale &&
        mag < 1e6 * prefixes[0].scale)) {
    std::string out = format_sci(value, sig);
    if (*base_suffix) out.append(" ").append(base_suffix);
    return out;
  }
  const Prefix* chosen = &prefixes[n_prefixes - 1];
  for (int i = 0; i < n_prefixes; ++i) {
    if (mag >= prefixes[i].scale) {
      chosen = &prefixes[i];
      break;
    }
  }
  const double scaled = value / chosen->scale;
  // Pick decimals so we show `sig` significant digits.
  const double abs_scaled = std::abs(scaled);
  int int_digits = abs_scaled >= 1.0
                       ? static_cast<int>(std::floor(std::log10(abs_scaled))) + 1
                       : 1;
  int decimals = sig - int_digits;
  if (decimals < 0) decimals = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f %s%s", decimals, scaled, chosen->suffix,
                base_suffix);
  return buf;
}

} // namespace

std::string format_time(double seconds, int sig) {
  static constexpr std::array<Prefix, 6> kPrefixes{{
      {1.0, ""}, {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"}}};
  return with_prefix(seconds, kPrefixes.data(), kPrefixes.size(), sig, "s");
}

std::string format_area(double m2, int sig) {
  if (std::abs(m2) >= 1e-8) { // >= 0.01 mm^2 -> mm^2
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f mm^2", sig > 1 ? sig - 1 : 1, m2 / 1e-6);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f um^2", sig > 1 ? sig - 1 : 1, m2 / 1e-12);
  return buf;
}

std::string format_count(double count, int sig) {
  static constexpr std::array<Prefix, 4> kPrefixes{{
      {1e12, "T"}, {1e9, "B"}, {1e6, "M"}, {1e3, "K"}}};
  // Counts below 10k print exactly (the paper quotes "3456 microrings").
  if (std::abs(count) < 1e4) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.0f", count);
    return buf;
  }
  return with_prefix(count, kPrefixes.data(), kPrefixes.size(), sig, "");
}

std::string format_power(double watts, int sig) {
  static constexpr std::array<Prefix, 5> kPrefixes{{
      {1.0, ""}, {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}}};
  return with_prefix(watts, kPrefixes.data(), kPrefixes.size(), sig, "W");
}

std::string format_energy(double joules, int sig) {
  static constexpr std::array<Prefix, 6> kPrefixes{{
      {1.0, ""}, {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"}}};
  return with_prefix(joules, kPrefixes.data(), kPrefixes.size(), sig, "J");
}

std::string format_bytes(double bytes, int sig) {
  static constexpr std::array<Prefix, 4> kPrefixes{{{1024.0 * 1024.0 * 1024.0, "Gi"},
                                                    {1024.0 * 1024.0, "Mi"},
                                                    {1024.0, "Ki"},
                                                    {1.0, ""}}};
  return with_prefix(bytes, kPrefixes.data(), kPrefixes.size(), sig, "B");
}

std::string format_freq(double hz, int sig) {
  static constexpr std::array<Prefix, 4> kPrefixes{{
      {1e9, "G"}, {1e6, "M"}, {1e3, "k"}, {1.0, ""}}};
  return with_prefix(hz, kPrefixes.data(), kPrefixes.size(), sig, "Hz");
}

std::string format_fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string format_sci(double v, int sig) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*e", sig > 1 ? sig - 1 : 0, v);
  return buf;
}

} // namespace pcnna
