#include "measurement/counters.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ios>
#include <vector>

#include "core/error.h"
#include "core/rng.h"

namespace bblab::measurement {
namespace {

TEST(CounterDelta, NoWrap) {
  EXPECT_EQ(counter_delta(100, 250, 32), 150u);
  EXPECT_EQ(counter_delta(0, 0, 32), 0u);
}

TEST(CounterDelta, SingleWrap32) {
  const std::uint64_t modulus = 1ULL << 32;
  // Counter was near the top, wrapped to a small value.
  EXPECT_EQ(counter_delta(modulus - 1000, 24, 32), 1024u);
  EXPECT_EQ(counter_delta(modulus - 1, 0, 32), 1u);
}

TEST(CounterDelta, SmallWidths) {
  EXPECT_EQ(counter_delta(250, 5, 8), 11u);   // 256 - 250 + 5
  EXPECT_EQ(counter_delta(15, 2, 4), 3u);     // 16 - 15 + 2
}

TEST(CounterDelta, SixtyFourBit) {
  EXPECT_EQ(counter_delta(~0ULL - 10, 9, 64), 20u);
  EXPECT_EQ(counter_delta(5, 105, 64), 100u);
}

TEST(CounterDelta, Validation) {
  EXPECT_THROW((void)counter_delta(1, 2, 0), InvalidArgument);
  EXPECT_THROW((void)counter_delta(1, 2, 65), InvalidArgument);
  EXPECT_THROW((void)counter_delta(1ULL << 33, 0, 32), InvalidArgument);
}

TEST(CounterStep, NormalProgressIsPassedThrough) {
  const auto step = counter_step(1000, 5000, 32, 30.0, 1e9);
  EXPECT_EQ(step.bytes, 4000u);
  EXPECT_FALSE(step.reset_suspected);
}

TEST(CounterStep, PlausibleWrapIsAWrap) {
  // 30 s at 20 Mbps = 75 MB across the 32-bit boundary: a legal wrap.
  const std::uint64_t modulus = 1ULL << 32;
  const std::uint64_t prev = modulus - 50'000'000;
  const std::uint64_t cur = 25'000'000;
  const auto step = counter_step(prev, cur, 32, 30.0, 25e6);
  EXPECT_EQ(step.bytes, 75'000'000u);
  EXPECT_FALSE(step.reset_suspected);
}

TEST(CounterStep, ImplausibleWrapIsAReset) {
  // Counter drops from 3 GB to 2 MB over 30 s on a 10 Mbps line: reading
  // it as a wrap would imply ~380 Mbps — the gateway rebooted.
  const std::uint64_t prev = 3'000'000'000ULL;
  const std::uint64_t cur = 2'000'000;
  const auto step = counter_step(prev, cur, 32, 30.0, 10e6 * 2);
  EXPECT_TRUE(step.reset_suspected);
  EXPECT_EQ(step.bytes, 2'000'000u);  // lower bound: bytes since reboot
}

TEST(CounterStep, Validation) {
  EXPECT_THROW((void)counter_step(0, 1, 32, 0.0, 1e6), InvalidArgument);
  EXPECT_THROW((void)counter_step(0, 1, 32, 30.0, 0.0), InvalidArgument);
}

TEST(CounterReader, Upnp32Wraps) {
  const CounterReader reader{CounterKind::kUpnp32};
  EXPECT_EQ(reader.bits(), 32);
  const double five_gb = 5.0 * 1024 * 1024 * 1024;
  const auto reading = reader.read(five_gb);
  EXPECT_LT(reading, 1ULL << 32);
  EXPECT_EQ(reading,
            static_cast<std::uint64_t>(five_gb) & 0xFFFFFFFFULL);
}

TEST(CounterReader, Netstat64DoesNotWrap) {
  const CounterReader reader{CounterKind::kNetstat64};
  EXPECT_EQ(reader.bits(), 64);
  const double five_gb = 5.0 * 1024 * 1024 * 1024;
  EXPECT_EQ(reader.read(five_gb), static_cast<std::uint64_t>(five_gb));
}

TEST(CounterReader, RoundsLikeLlround) {
  // read() rounds half up without libm; on non-negative totals it must
  // equal std::llround, including the values where floor(x + 0.5) fails
  // (0.49999999999999994) and where the fraction is at its coarsest.
  const CounterReader netstat{CounterKind::kNetstat64};
  const CounterReader upnp{CounterKind::kUpnp32};
  std::vector<double> totals = {0.0, 0.5, 1.5, 2.5, 0.49999999999999994,
                                0x1p52 - 0.5, 0x1p52, 0x1p52 + 0.5, 0x1p52 + 1.0,
                                0x1p53 + 2.0, 1e18};
  for (const double base : {0x1p32, 0x1p33}) {
    for (const double offset : {-1.5, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5}) {
      totals.push_back(base + offset);
    }
    totals.push_back(std::nextafter(base - 0.5, 0.0));
    totals.push_back(std::nextafter(base + 0.5, 0.0));
  }
  Rng rng{52};
  for (int i = 0; i < 10000; ++i) {
    totals.push_back(rng.uniform(0.0, 0x1p34));
    totals.push_back(std::floor(rng.uniform(0.0, 0x1p40)) + 0.5);
  }
  for (const double x : totals) {
    const auto expected = static_cast<std::uint64_t>(std::llround(x));
    EXPECT_EQ(netstat.read(x), expected) << std::hexfloat << x;
    EXPECT_EQ(upnp.read(x), expected & 0xFFFFFFFFULL) << std::hexfloat << x;
  }
}

TEST(CounterReader, RejectsTotalsOutsideTheCounterDomain) {
  const CounterReader reader{CounterKind::kNetstat64};
  EXPECT_THROW((void)reader.read(-0.5), InvalidArgument);
  EXPECT_THROW((void)reader.read(std::nan("")), InvalidArgument);
  EXPECT_THROW((void)reader.read(0x1p64), InvalidArgument);
  EXPECT_EQ(reader.read(0x1p63), std::uint64_t{1} << 63);
}

TEST(CounterReader, DoubleWrapWithinOneIntervalAliases) {
  // A 32-bit counter exposes only the true delta modulo 2^32. If more
  // than 2^32 bytes move between two reads (a double wrap within one
  // sampling interval), the excess wrap is invisible and the delta
  // under-reports by exactly 2^32 — the pathology the fault layer's
  // spurious-wrap knob injects from the other direction.
  const CounterReader reader{CounterKind::kUpnp32};
  const double wrap = 4294967296.0;  // 2^32
  const double total = 1e9;
  const auto prev = reader.read(total);
  const auto cur = reader.read(total + wrap + 123456.0);
  EXPECT_EQ(counter_delta(prev, cur, reader.bits()), 123456u);
}

TEST(CounterReader, WrapRecoveryEndToEnd) {
  // Accumulate 100 MB every read past the 32-bit boundary; deltas must
  // come back exact despite the wrap.
  const CounterReader reader{CounterKind::kUpnp32};
  const double step = 100e6;
  double total = 4.2e9;  // just below 2^32
  std::uint64_t prev = reader.read(total);
  for (int i = 0; i < 10; ++i) {
    total += step;
    const auto cur = reader.read(total);
    EXPECT_EQ(counter_delta(prev, cur, reader.bits()), static_cast<std::uint64_t>(step));
    prev = cur;
  }
}

}  // namespace
}  // namespace bblab::measurement
