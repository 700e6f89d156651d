// Hashing helpers: FNV-1a for strings, hash combining for composite keys.

#ifndef RDFDB_COMMON_HASH_H_
#define RDFDB_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace rdfdb {

/// 64-bit FNV-1a over a byte string.
inline uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// boost::hash_combine-style mixing.
inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// MurmurHash3 fmix64-style finalizer: spreads an integer key (a
/// VALUE_ID, a precomputed hash) over all 64 bits for open addressing.
inline uint64_t Mix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

}  // namespace rdfdb

#endif  // RDFDB_COMMON_HASH_H_
