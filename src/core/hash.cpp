#include "core/hash.h"

namespace bblab::core {

std::uint64_t hash_bytes(const void* data, std::size_t size, std::uint64_t seed) {
  Hasher h{seed};
  h.update(data, size);
  return h.digest();
}

namespace {

constexpr std::uint64_t kChecksumMul = 0x9E3779B185EBCA87ULL;  // odd
constexpr std::uint64_t kChecksumBasis = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kChecksumSeedMix = 0x9E3779B97F4A7C15ULL;

/// One absorb step. For a fixed `word` it is a bijection of `lane` (xor,
/// multiplication by an odd constant and rotation are each invertible
/// mod 2^64), and for a fixed `lane` a bijection of `word`. The rotation
/// carries high product bits back to the low end: without it, flipping
/// bit 63 of two consecutive words of one lane would cancel.
constexpr std::uint64_t absorb(std::uint64_t lane, std::uint64_t word) {
  return std::rotl((lane ^ word) * kChecksumMul, 31);
}

}  // namespace

std::uint64_t checksum64(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t state = kChecksumBasis ^ (seed * kChecksumSeedMix);
  std::uint64_t lane[4];
  for (std::uint64_t i = 0; i < 4; ++i) lane[i] = state + (i + 1) * kChecksumSeedMix;

  const std::size_t words = size / 8;
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4, p += 32) {
    lane[0] = absorb(lane[0], load_le<std::uint64_t>(p));
    lane[1] = absorb(lane[1], load_le<std::uint64_t>(p + 8));
    lane[2] = absorb(lane[2], load_le<std::uint64_t>(p + 16));
    lane[3] = absorb(lane[3], load_le<std::uint64_t>(p + 24));
  }
  for (; w < words; ++w, p += 8) {
    lane[w % 4] = absorb(lane[w % 4], load_le<std::uint64_t>(p));
  }
  if (const std::size_t tail = size % 8; tail != 0) {
    std::uint64_t last = 0;
    for (std::size_t i = 0; i < tail; ++i) {
      last |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    lane[w % 4] = absorb(lane[w % 4], last);
  }

  state = absorb(state, size);
  for (const std::uint64_t l : lane) state = absorb(state, l);
  return splitmix64_finalize(state);
}

}  // namespace bblab::core
