/**
 * @file
 * AES-128 (FIPS-197), encryption only (GC never decrypts AES).
 *
 * HAAC's Half-Gate units hash labels with AES using *re-keying*: every
 * hash uses a fresh key derived from the gate index, so a key expansion
 * sits next to every hash (Fig. 2 of the paper). This module exposes
 * the key schedule separately from block encryption so both the
 * re-keying and fixed-key constructions (and the 27.5% cost ablation
 * between them) can be expressed, plus aesMmoPair(), the fused
 * two-key kernel the re-keyed half-gate hashes run on.
 *
 * On x86 hosts with AES-NI and SSSE3 (probed by CMake at build time and
 * by CPUID at run time) the key schedule and the block cipher run on
 * AESENC/AESENCLAST; elsewhere a byte-wise software implementation
 * produces the same bytes.
 */
#ifndef HAAC_CRYPTO_AES128_H
#define HAAC_CRYPTO_AES128_H

#include <array>
#include <cstdint>

#include "crypto/label.h"

namespace haac {

/** Number of 16-byte round keys for AES-128 (the 176-byte schedule). */
inline constexpr int kAesRounds = 10;
inline constexpr size_t kAesExpandedKeyBytes = 16 * (kAesRounds + 1);

/**
 * An expanded AES-128 key schedule.
 *
 * Construction runs the FIPS-197 key expansion; this is the unit of
 * work the paper's "key expand" boxes represent.
 */
class Aes128
{
  public:
    /** Expand a 16-byte key. */
    explicit Aes128(const uint8_t key[16]);

    /** Expand a key held in a Label (little-endian serialization). */
    explicit Aes128(const Label &key);

    /** Encrypt one 16-byte block in place semantics: out may alias in. */
    void encryptBlock(const uint8_t in[16], uint8_t out[16]) const;

    /** Encrypt a Label-typed block. */
    Label encryptBlock(const Label &in) const;

    /** Raw access to the 176-byte schedule (for tests). */
    const std::array<uint8_t, kAesExpandedKeyBytes> &
    roundKeys() const
    {
        return roundKeys_;
    }

  private:
    /** The key expansion both constructors run; writes every byte. */
    void expandKey(const uint8_t key[16]);

    std::array<uint8_t, kAesExpandedKeyBytes> roundKeys_;
};

/**
 * Matyas-Meyer-Oseas compression under two keys at once:
 * y0[i] = AES_{key0}(x0[i]) ^ x0[i] and y1[i] = AES_{key1}(x1[i]) ^ x1[i]
 * for i < n, with n = 1 or 2 (std::invalid_argument otherwise). Outputs
 * may alias inputs.
 *
 * With AES-NI both schedules are expanded round by round in registers,
 * interleaved with the 2n block encryptions, and never stored; the
 * portable path is two Aes128 objects.
 */
void aesMmoPair(const Label &key0, const Label &key1, const Label x0[],
                Label y0[], const Label x1[], Label y1[], int n);

} // namespace haac

#endif // HAAC_CRYPTO_AES128_H
