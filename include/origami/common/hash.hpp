#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace origami::common {

/// FNV-1a over bytes; stable across platforms (used for partition hashing,
/// so its value must never depend on the standard library's std::hash).
constexpr std::uint64_t fnv1a(std::string_view data) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : data) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Finalizer from MurmurHash3: bijective 64-bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Fast hash of a byte string for in-memory hash tables: folds eight-byte
/// words with multiply-xorshift steps, then finalises with mix64. Its value
/// depends on the host's byte order, so it must never decide placement or
/// anything else that is written out (use fnv1a for that).
inline std::uint64_t hash_bytes(std::string_view data) noexcept {
  std::uint64_t hash = 0x9e3779b97f4a7c15ULL ^ data.size();
  const char* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    hash = (hash ^ word) * 0xff51afd7ed558ccdULL;
    hash ^= hash >> 32;
  }
  if (n != 0) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    hash = (hash ^ tail) * 0xc4ceb9fe1a85ec53ULL;
  }
  return mix64(hash);
}

/// Combines a hash with another value (boost-style, 64-bit constants).
constexpr std::uint64_t hash_combine(std::uint64_t seed,
                                     std::uint64_t value) noexcept {
  return seed ^ (mix64(value) + 0x9e3779b97f4a7c15ULL + (seed << 12) +
                 (seed >> 4));
}

}  // namespace origami::common
