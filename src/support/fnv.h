#ifndef MDES_SUPPORT_FNV_H
#define MDES_SUPPORT_FNV_H

/**
 * @file
 * mdes::fnv - the one FNV-1a64 every hash in the project is built on:
 * store keys and trailers, LMDES image checksums, and schedule
 * fingerprints. Mixing is bytewise, and mixU64 folds a word's bytes
 * least significant first, so every hash is the same on any host width
 * and byte order. Changing any of this changes every stored artifact's
 * key and every recorded fingerprint.
 */

#include <cstddef>
#include <cstdint>

namespace mdes::fnv {

constexpr uint64_t kOffsetBasis = 1469598103934665603ull;
constexpr uint64_t kPrime = 1099511628211ull;

/** Fold one byte into @p h. */
inline void
mixByte(uint64_t &h, uint8_t b)
{
    h ^= b;
    h *= kPrime;
}

/** Fold @p n bytes at @p data into @p h, in memory order. */
inline void
mixBytes(uint64_t &h, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i)
        mixByte(h, p[i]);
}

/** Fold the 8 bytes of @p v into @p h, least significant first. */
inline void
mixU64(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        mixByte(h, uint8_t(v >> (i * 8)));
}

/** FNV-1a64 of @p n bytes at @p data. */
inline uint64_t
hashBytes(const void *data, size_t n)
{
    uint64_t h = kOffsetBasis;
    mixBytes(h, data, n);
    return h;
}

} // namespace mdes::fnv

#endif // MDES_SUPPORT_FNV_H
