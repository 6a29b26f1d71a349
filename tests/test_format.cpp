// Engineering-notation formatting.
#include <gtest/gtest.h>

#include <limits>

#include "common/format.hpp"

namespace {

using namespace pcnna;

TEST(Format, Time) {
  EXPECT_EQ("605 ns", format_time(605e-9));
  EXPECT_EQ("2.20 us", format_time(2.2e-6));
  EXPECT_EQ("16.5 ms", format_time(16.5e-3));
  EXPECT_EQ("1.00 s", format_time(1.0));
  EXPECT_EQ("200 ps", format_time(200e-12));
  EXPECT_EQ("0 s", format_time(0.0));
}

TEST(Format, Area) {
  EXPECT_EQ("2.16 mm^2", format_area(2.16e-6));
  EXPECT_EQ("625.00 um^2", format_area(625e-12));
}

TEST(Format, Count) {
  EXPECT_EQ("5.25 B", format_count(5.2454e9));
  EXPECT_EQ("34.8 K", format_count(34'848));
  EXPECT_EQ("3456", format_count(3456));
  EXPECT_EQ("1.33 M", format_count(1'327'104));
  EXPECT_EQ("0", format_count(0));
}

TEST(Format, Power) {
  EXPECT_EQ("44.6 mW", format_power(44.6e-3));
  EXPECT_EQ("1.00 W", format_power(1.0));
  EXPECT_EQ("250 uW", format_power(250e-6));
}

TEST(Format, Energy) {
  EXPECT_EQ("1.30 uJ", format_energy(1.3e-6));
  EXPECT_EQ("20.0 pJ", format_energy(20e-12));
}

TEST(Format, Bytes) {
  EXPECT_EQ("1.00 KiB", format_bytes(1024));
  EXPECT_EQ("129 KiB", format_bytes(132'096));
  EXPECT_EQ("512 B", format_bytes(512));
}

TEST(Format, Freq) {
  EXPECT_EQ("5.00 GHz", format_freq(5e9));
  EXPECT_EQ("200 MHz", format_freq(200e6));
}

TEST(Format, FixedAndSci) {
  EXPECT_EQ("3.14", format_fixed(3.14159, 2));
  EXPECT_EQ("3.1e+05", format_sci(312345.0, 2));
}

TEST(Format, NegativeValues) {
  EXPECT_EQ("-2.20 us", format_time(-2.2e-6));
}

// Six integer digits at most: from 10^6 of the largest prefix up, below the
// smallest, and when not finite, values print in scientific notation in
// the base unit.
TEST(Format, OutOfPrefixRangeIsScientific) {
  EXPECT_EQ("999999 s", format_time(999'999.0));
  EXPECT_EQ("1.00e+06 s", format_time(1e6));
  EXPECT_EQ("3.02e+65 s", format_time(3.025e65));
  EXPECT_EQ("-3.00e+70 s", format_time(-3e70));
  EXPECT_EQ("8.82e+65 J", format_energy(8.8176e65));
  EXPECT_EQ("2.00e+20", format_count(2e20));
  EXPECT_EQ("1.00e-291 Hz", format_freq(1e-291));
  EXPECT_EQ("5.00e-19 s", format_time(5e-19));
  EXPECT_EQ("inf s", format_time(std::numeric_limits<double>::infinity()));
}

} // namespace
