/**
 * @file
 * Deterministic pseudorandom generator for label generation.
 *
 * The Garbler draws the global offset R and all fresh wire labels from a
 * PRG. We use AES-128 in counter mode keyed by a seed, which keeps the
 * whole pipeline deterministic (same seed => same garbling), a property
 * the test suite leans on heavily. Counter mode also batches freely
 * (nextLabels(), nextBytes()); the OT extension's column streams and
 * the seed-backed pooled instances (gc/instance.h) rely on it.
 */
#ifndef HAAC_CRYPTO_PRG_H
#define HAAC_CRYPTO_PRG_H

#include <cstddef>
#include <cstdint>

#include "crypto/aes128.h"
#include "crypto/label.h"

namespace haac {

/**
 * SplitMix64 finalizer: a cheap bijective mix for deriving unrelated
 * seeds from related ones (never maps distinct inputs together, so no
 * derived-seed collision can collapse two streams).
 */
uint64_t splitmix64(uint64_t x);

/**
 * A fresh, non-deterministic 64-bit seed from the OS entropy source.
 *
 * The networked protocol draws its on-wire OT randomness here so a
 * peer can never reconstruct it from other protocol values (the
 * simulated-OT seed-leak fix); deterministic test paths keep passing
 * explicit seeds instead.
 */
uint64_t randomSeed();

/** AES-CTR pseudorandom label stream. */
class Prg
{
  public:
    /** Seed the stream; two Prgs with equal seeds emit equal streams. */
    explicit Prg(uint64_t seed);

    /**
     * Key the stream with a full 128-bit key (the OT extension seeds
     * its column streams with base-OT output keys).
     */
    explicit Prg(const Label &key);

    /**
     * Fill @p n bytes of pseudorandom output: whole labels in stream
     * order, and the first n % 16 bytes of one more label (the rest
     * of that label is dropped).
     */
    void nextBytes(uint8_t *out, size_t n);

    /** Next 128 pseudorandom bits. */
    Label nextLabel();

    /**
     * The next @p n labels, identical to n nextLabel() calls but
     * encrypted as a batch (eight AES blocks in flight on AES-NI).
     */
    void nextLabels(Label out[], size_t n);

    /** Next 64 pseudorandom bits. */
    uint64_t nextU64();

    /** Uniform integer in [0, bound). @pre bound > 0. */
    uint64_t nextRange(uint64_t bound);

    /** Uniform bit. */
    bool nextBit() { return (nextU64() & 1) != 0; }

  private:
    Aes128 aes_;
    uint64_t counter_ = 0;
    Label spare_;
    bool haveSpareHalf_ = false;
};

} // namespace haac

#endif // HAAC_CRYPTO_PRG_H
