// Stable 64-bit hashing and checksumming.
//
// The snapshot store and the simulation cache both need hashes that are
// identical across platforms, compilers, and library builds — they are
// written into files and used as on-disk cache keys — which std::hash
// does not guarantee. Two self-contained functions cover the two jobs:
//
//   * Hasher / hash_bytes: a streaming FNV-1a core with a splitmix64
//     avalanche finalizer, for fingerprints and cache keys. It
//     consumes one byte at a time through one serial multiply
//     chain (well under 1 GB/s), which is fine for the short, typed
//     inputs it sees. Byte-order independent (input is consumed as bytes,
//     multi-byte values are serialized little-endian first), and every
//     single-byte change provably changes the digest (both the FNV round
//     and the finalizer are bijections on the 64-bit state).
//   * checksum64: a one-shot word-wise checksum for .bbs section
//     payloads, which are hundreds of kilobytes and are verified on every
//     load. It absorbs little-endian 64-bit words into four independent
//     lanes, so it runs at memory speed, and it keeps the same guarantee:
//     any single-byte change provably changes the checksum (DESIGN.md
//     §6.1 gives the definition and the proof).
//
// Typed Hasher update helpers canonicalize their input so fingerprints
// are well-defined: doubles are hashed by bit pattern with -0.0 folded
// onto +0.0 and every NaN folded onto one canonical NaN; strings are
// length-prefixed so consecutive fields cannot alias each other.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

namespace bblab::core {

/// Read an unsigned integer stored little-endian at `p` (any alignment):
/// one load, byte-swapped only on a big-endian host.
template <typename T>
[[nodiscard]] inline T load_le(const void* p) {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    T swapped = 0;
    for (std::size_t i = 0; i < sizeof v; ++i) {
      swapped = static_cast<T>((swapped << 8) | ((v >> (8 * i)) & 0xFF));
    }
    v = swapped;
  }
  return v;
}

/// Store `v` little-endian at `p` (any alignment); the inverse of load_le.
template <typename T>
inline void store_le(void* p, T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::big) {
    v = load_le<T>(&v);  // a byte swap is its own inverse
  }
  std::memcpy(p, &v, sizeof v);
}

/// splitmix64's finalizer: a bijective avalanche of a 64-bit state, so
/// nearby states do not produce nearby digests.
[[nodiscard]] constexpr std::uint64_t splitmix64_finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class Hasher {
 public:
  explicit constexpr Hasher(std::uint64_t seed = 0)
      : state_{kOffsetBasis ^ (seed * kSeedMix)} {}

  void update(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint64_t h = state_;
    for (std::size_t i = 0; i < size; ++i) {
      h = (h ^ bytes[i]) * kPrime;
    }
    state_ = h;
  }

  void update_u8(std::uint8_t v) { update(&v, 1); }
  void update_bool(bool v) { update_u8(v ? 1 : 0); }

  void update_u32(std::uint32_t v) {
    const unsigned char bytes[4] = {
        static_cast<unsigned char>(v), static_cast<unsigned char>(v >> 8),
        static_cast<unsigned char>(v >> 16), static_cast<unsigned char>(v >> 24)};
    update(bytes, sizeof bytes);
  }

  void update_u64(std::uint64_t v) {
    update_u32(static_cast<std::uint32_t>(v));
    update_u32(static_cast<std::uint32_t>(v >> 32));
  }

  void update_i64(std::int64_t v) { update_u64(static_cast<std::uint64_t>(v)); }

  /// Hash by value, not representation: -0.0 hashes like +0.0 and every
  /// NaN (any payload, any sign) hashes like one canonical quiet NaN, so
  /// semantically equal configs always fingerprint equal.
  void update_double(double v) {
    std::uint64_t bits = 0;
    if (v != v) {
      bits = 0x7FF8000000000000ULL;  // canonical quiet NaN
    } else {
      if (v == 0.0) v = 0.0;  // folds -0.0 onto +0.0
      static_assert(sizeof bits == sizeof v);
      std::memcpy(&bits, &v, sizeof bits);
    }
    update_u64(bits);
  }

  /// Length-prefixed, so ("ab","c") and ("a","bc") hash differently.
  void update_string(std::string_view s) {
    update_u64(s.size());
    update(s.data(), s.size());
  }

  /// Finalized digest (non-destructive; more input may still be added).
  [[nodiscard]] std::uint64_t digest() const { return splitmix64_finalize(state_); }

 private:
  static constexpr std::uint64_t kOffsetBasis = 0xCBF29CE484222325ULL;
  static constexpr std::uint64_t kPrime = 0x00000100000001B3ULL;
  static constexpr std::uint64_t kSeedMix = 0x9E3779B97F4A7C15ULL;

  std::uint64_t state_;
};

/// One-shot Hasher over a buffer (FNV-1a + finalizer; byte-serial).
[[nodiscard]] std::uint64_t hash_bytes(const void* data, std::size_t size,
                                       std::uint64_t seed = 0);

/// Word-wise checksum of a buffer, the .bbs section and footer checksum.
/// Little-endian 64-bit word i is absorbed into lane i mod 4 by
/// `lane = rotl((lane ^ word) * M, 31)`; a final partial word is
/// zero-padded into the next lane; the length and then the four lanes are
/// folded into the state by the same step; splitmix64 finalizes. Every
/// step is a bijection, so buffers of equal length that differ in one
/// byte always checksum differently. The value is part of the on-disk
/// format: changing it requires a .bbs format version bump.
[[nodiscard]] std::uint64_t checksum64(const void* data, std::size_t size,
                                       std::uint64_t seed);

}  // namespace bblab::core
