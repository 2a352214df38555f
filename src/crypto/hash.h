/**
 * @file
 * The Half-Gate label hash H(x, j).
 *
 * HAAC uses the *re-keying* construction for security (Guo et al.,
 * CRYPTO'20): each hash uses an AES key derived from the gate tweak j
 * (j = 2*gate_index or 2*gate_index+1) and computes a
 * Matyas-Meyer-Oseas compression, H(x, j) = AES_{k(j)}(x) ^ x. An AND
 * gate therefore costs the Garbler two key expansions and four AES
 * block encryptions, exactly the datapath in Fig. 2 of the paper. The
 * half-gate kernels run both tweaks of a gate through one fused call,
 * hashRekeyedPair(), which on AES-NI expands the two keys in registers
 * alongside the block encryptions.
 *
 * The cheaper but less secure *fixed-key* construction (one global key,
 * tweak folded into the input) is provided only to reproduce the
 * paper's measured 27.5% re-keying overhead.
 */
#ifndef HAAC_CRYPTO_HASH_H
#define HAAC_CRYPTO_HASH_H

#include <cstdint>

#include "crypto/aes128.h"
#include "crypto/label.h"

namespace haac {

/** Derive the AES key for tweak j (both halves carry j, domain-tagged). */
Label tweakKey(uint64_t tweak);

/**
 * Re-keyed Half-Gate hash: expand k(j), then MMO-compress x.
 *
 * This is the per-call form; to hash several labels under one tweak,
 * use RekeyedHasher to share the expansion (the hardware expands once
 * per tweak, Fig. 2), or hashRekeyedPair() for a gate's two tweaks.
 */
Label hashRekeyed(const Label &x, uint64_t tweak);

/**
 * The two tweaks of one gate in a single call: y0[i] = H(x0[i], j0) and
 * y1[i] = H(x1[i], j1) for i < n, n = 1 (evaluator, base OT) or 2
 * (garbler). Byte-identical to hashRekeyed() / RekeyedHasher.
 */
void hashRekeyedPair(uint64_t j0, uint64_t j1, const Label x0[], Label y0[],
                     const Label x1[], Label y1[], int n);

/** One expanded tweak key, reusable for the hashes sharing that tweak. */
class RekeyedHasher
{
  public:
    explicit RekeyedHasher(uint64_t tweak) : aes_(tweakKey(tweak)) {}

    Label
    operator()(const Label &x) const
    {
        return aes_.encryptBlock(x) ^ x;
    }

  private:
    Aes128 aes_;
};

/**
 * Fixed-key hash: H(x, j) = AES_K(sigma(x) ^ j) ^ sigma(x) ^ j, where
 * sigma doubles the label halves to break XOR-linearity. Ablation only.
 */
class FixedKeyHasher
{
  public:
    FixedKeyHasher();

    Label operator()(const Label &x, uint64_t tweak) const;

  private:
    Aes128 aes_;
};

} // namespace haac

#endif // HAAC_CRYPTO_HASH_H
