#include "crypto/prg.h"

#include <algorithm>
#include <cstring>
#include <random>

namespace haac {

namespace {

uint64_t
mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Label
seedToKey(uint64_t seed)
{
    // Spread the seed across the key with distinct mixing constants
    // (splitmix64 finalizer) so nearby seeds give unrelated keys.
    uint64_t lo = mix(seed + 0x9e3779b97f4a7c15ull);
    uint64_t hi = mix(seed + 0x7f4a7c15'9e3779b9ull);
    return Label(lo, hi);
}

} // namespace

uint64_t
splitmix64(uint64_t x)
{
    return mix(x + 0x9e3779b97f4a7c15ull);
}

uint64_t
randomSeed()
{
    std::random_device rd;
    return (uint64_t(rd()) << 32) ^ rd();
}

Prg::Prg(uint64_t seed) : aes_(seedToKey(seed)) {}

Prg::Prg(const Label &key) : aes_(key) {}

namespace {

/** The counter block of label @p counter ("HAAC_PRG" tag high). */
Label
counterBlock(uint64_t counter)
{
    return Label(counter, 0x484141435f505247ull);
}

} // namespace

void
Prg::nextBytes(uint8_t *out, size_t n)
{
    constexpr size_t kChunk = 16;
    Label block[kChunk];
    while (n >= kLabelBytes) {
        const size_t labels = std::min(kChunk, n / kLabelBytes);
        nextLabels(block, labels);
        std::memcpy(out, block, labels * kLabelBytes);
        out += labels * kLabelBytes;
        n -= labels * kLabelBytes;
    }
    if (n > 0) {
        uint8_t tail[kLabelBytes];
        nextLabel().toBytes(tail);
        std::memcpy(out, tail, n);
    }
}

Label
Prg::nextLabel()
{
    return aes_.encryptBlock(counterBlock(counter_++));
}

void
Prg::nextLabels(Label out[], size_t n)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = counterBlock(counter_++);
    aes_.encryptBlocks(out, out, n);
}

uint64_t
Prg::nextU64()
{
    if (haveSpareHalf_) {
        haveSpareHalf_ = false;
        return spare_.hi;
    }
    spare_ = nextLabel();
    haveSpareHalf_ = true;
    return spare_.lo;
}

uint64_t
Prg::nextRange(uint64_t bound)
{
    // Rejection sampling to avoid modulo bias.
    uint64_t limit = bound * (~uint64_t(0) / bound);
    uint64_t v;
    do {
        v = nextU64();
    } while (v >= limit);
    return v % bound;
}

} // namespace haac
