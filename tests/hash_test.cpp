#include "core/hash.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace bblab::core {
namespace {

TEST(Hasher, DeterministicAndSeedSensitive) {
  const auto digest = [](std::uint64_t seed, const std::string& s) {
    Hasher h{seed};
    h.update_string(s);
    return h.digest();
  };
  EXPECT_EQ(digest(0, "abc"), digest(0, "abc"));
  EXPECT_NE(digest(0, "abc"), digest(1, "abc"));
  EXPECT_NE(digest(0, "abc"), digest(0, "abd"));
  EXPECT_NE(digest(0, ""), digest(1, ""));
}

TEST(Hasher, DigestIsNonDestructive) {
  Hasher h;
  h.update_u64(7);
  const auto first = h.digest();
  EXPECT_EQ(first, h.digest());
  h.update_u64(8);
  EXPECT_NE(first, h.digest());
}

TEST(Hasher, EverySingleByteFlipChangesTheDigest) {
  // FNV-1a's absorb step and the splitmix64 finalizer are both bijections
  // of the 64-bit state, so two inputs of equal length differing in one
  // byte can never collide. This is the property the snapshot checksums
  // lean on; check it exhaustively for every position x bit of a message.
  std::string msg = "broadband markets and the behavior of users";
  const std::uint64_t clean = hash_bytes(msg.data(), msg.size());
  for (std::size_t i = 0; i < msg.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = msg;
      damaged[i] = static_cast<char>(damaged[i] ^ (1 << bit));
      EXPECT_NE(hash_bytes(damaged.data(), damaged.size()), clean)
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Hasher, ChunkingDoesNotMatter) {
  const std::string msg = "stream me in pieces";
  Hasher whole;
  whole.update(msg.data(), msg.size());
  Hasher pieces;
  for (const char c : msg) pieces.update(&c, 1);
  EXPECT_EQ(whole.digest(), pieces.digest());
}

TEST(Hasher, LengthPrefixedStringsDoNotConcatenate) {
  // ("ab", "c") must hash differently from ("a", "bc") — the classic
  // ambiguity a raw concatenating hasher has.
  Hasher a;
  a.update_string("ab");
  a.update_string("c");
  Hasher b;
  b.update_string("a");
  b.update_string("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Hasher, DoubleCanonicalization) {
  const auto digest = [](double v) {
    Hasher h;
    h.update_double(v);
    return h.digest();
  };
  // Semantically equal doubles hash equal...
  EXPECT_EQ(digest(0.0), digest(-0.0));
  EXPECT_EQ(digest(std::numeric_limits<double>::quiet_NaN()),
            digest(-std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(digest(std::nan("0x5")), digest(std::nan("0x7")));
  // ...distinct ones do not.
  EXPECT_NE(digest(1.0), digest(std::nextafter(1.0, 2.0)));
  EXPECT_NE(digest(0.0), digest(std::numeric_limits<double>::denorm_min()));
  EXPECT_NE(digest(std::numeric_limits<double>::infinity()),
            digest(std::numeric_limits<double>::max()));
}

TEST(Hasher, IntegerUpdatesAreTyped) {
  Hasher small;
  small.update_u32(7);
  Hasher wide;
  wide.update_u64(7);
  EXPECT_NE(small.digest(), wide.digest());

  Hasher negative;
  negative.update_i64(-1);
  Hasher positive;
  positive.update_i64(1);
  EXPECT_NE(negative.digest(), positive.digest());
}

TEST(Hasher, AvalancheOnSmallInputs) {
  // Consecutive small integers should produce well-scattered digests:
  // with the splitmix64 finalizer, no two of 10k consecutive inputs
  // should collide and the high bits should actually vary.
  std::set<std::uint64_t> digests;
  std::set<std::uint64_t> top_bytes;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    Hasher h;
    h.update_u64(i);
    const auto d = h.digest();
    digests.insert(d);
    top_bytes.insert(d >> 56);
  }
  EXPECT_EQ(digests.size(), 10000u);
  EXPECT_GT(top_bytes.size(), 200u);  // 256 possible; expect most to appear
}

TEST(HashBytes, MatchesStreamingHasher) {
  const std::string msg = "one-shot equals streaming";
  Hasher h{99};
  h.update(msg.data(), msg.size());
  EXPECT_EQ(hash_bytes(msg.data(), msg.size(), 99), h.digest());
}

TEST(HashBytes, GoldenValueIsStable) {
  // Fingerprints and cache keys are stored hash_bytes/Hasher digests;
  // this value pins them.
  const std::string msg = "broadband markets and the behavior of users";
  EXPECT_EQ(hash_bytes(msg.data(), msg.size(), 0xBB5C4EC6), 0xF5E6C4DD5CC4EE51ULL);
}

TEST(LittleEndian, LoadsAndStoresAreByteOrderExplicit) {
  const unsigned char bytes[9] = {0xFF, 0x01, 0x02, 0x03, 0x04,
                                  0x05, 0x06, 0x07, 0x08};
  // Unaligned on purpose: the loads must not assume alignment.
  EXPECT_EQ(load_le<std::uint64_t>(bytes + 1), 0x0807060504030201ULL);
  EXPECT_EQ(load_le<std::uint32_t>(bytes + 1), 0x04030201U);
  unsigned char out[9] = {};
  store_le<std::uint64_t>(out + 1, 0x0807060504030201ULL);
  EXPECT_EQ(0, std::memcmp(out + 1, bytes + 1, 8));
  store_le<std::uint32_t>(out, 0xA1B2C3D4U);
  EXPECT_EQ(out[0], 0xD4);
  EXPECT_EQ(out[3], 0xA1);
}

/// Deterministic pseudo-random bytes.
std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 gen{seed};
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(gen());
  return out;
}

TEST(Checksum64, EveryBitFlipAtEveryLengthChangesTheChecksum) {
  // Covers the 4-lane block boundary (31/32/33, 63/64/65), every tail
  // length, and a flip in every lane and in the zero-padded tail word.
  const auto base = random_bytes(100, 18);
  for (std::size_t n = 0; n <= base.size(); ++n) {
    std::vector<unsigned char> msg(base.begin(), base.begin() + n);
    const std::uint64_t clean = checksum64(msg.data(), n, 7);
    for (std::size_t i = 0; i < n; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        msg[i] ^= static_cast<unsigned char>(1 << bit);
        ASSERT_NE(checksum64(msg.data(), n, 7), clean)
            << "length " << n << " byte " << i << " bit " << bit;
        msg[i] ^= static_cast<unsigned char>(1 << bit);
      }
    }
  }
}

TEST(Checksum64, InputsThatDifferOnlyInLengthDiffer) {
  // Zero bytes pad the tail word, so "abc" and "abc\0" absorb the same
  // words; the folded length must still tell them apart.
  for (const auto& base : {std::vector<unsigned char>(100, 0), random_bytes(100, 3)}) {
    std::set<std::uint64_t> seen;
    for (std::size_t n = 0; n <= base.size(); ++n) {
      seen.insert(checksum64(base.data(), n, 0));
    }
    EXPECT_EQ(seen.size(), base.size() + 1);
  }
}

TEST(Checksum64, TopBitFlipsInOneLaneDoNotCancel) {
  // Words 0 and 4 go to the same lane. Without the rotation in the
  // absorb step, flipping bit 63 of both would cancel exactly.
  auto msg = random_bytes(64, 5);
  const std::uint64_t clean = checksum64(msg.data(), msg.size(), 0);
  msg[7] ^= 0x80;
  msg[39] ^= 0x80;
  EXPECT_NE(checksum64(msg.data(), msg.size(), 0), clean);
}

TEST(Checksum64, SeedAndAlignmentBehave) {
  const auto bytes = random_bytes(257, 9);
  const std::uint64_t at0 = checksum64(bytes.data() + 1, 256, 1);
  std::vector<unsigned char> copy(bytes.begin() + 1, bytes.end());
  EXPECT_EQ(checksum64(copy.data(), copy.size(), 1), at0);
  EXPECT_NE(checksum64(copy.data(), copy.size(), 2), at0);
  EXPECT_NE(checksum64(nullptr, 0, 1), checksum64(nullptr, 0, 2));
}

TEST(Checksum64, GoldenValueIsStable) {
  // The checksum is part of the .bbs v2 on-disk format: a change to this
  // value breaks every existing snapshot and needs a format version bump.
  const auto bytes = random_bytes(77, 2014);
  EXPECT_EQ(checksum64(bytes.data(), bytes.size(), 0xBB5C4EC6), 0x638315D10F0D22A0ULL);
}

}  // namespace
}  // namespace bblab::core
