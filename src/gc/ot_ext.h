/**
 * @file
 * IKNP OT extension: m label transfers from kappa = 128 base OTs.
 *
 * The paper's protocol needs one 1-of-2 label OT per evaluator input
 * bit (§2.1); public-key OTs per bit would dwarf the garbling cost, so
 * this implements the classic Ishai-Kilian-Nissim-Petrank extension:
 *
 *  - Roles reverse for the base phase: the extension *sender* plays
 *    base-OT receiver with a secret 128-bit choice vector s, obtaining
 *    one seed per column; the extension *receiver* plays base-OT
 *    sender and keeps both seeds of every column (gc/base_ot.h).
 *  - Per batch of m choices r, the receiver expands each column pair
 *    into pseudorandom columns t_i / PRG(k1_i) and uplinks
 *    u_i = t_i ^ PRG(k1_i) ^ r; the sender reconstructs its view
 *    q_i = PRG(k_{s_i}) ^ s_i*u_i, so row j satisfies
 *    q_j = t_j ^ r_j*s.
 *  - Rows pivot through crypto/bitmatrix and are hashed with the
 *    re-keyed correlation-robust hash from crypto/hash (tweak = OT
 *    index, domain-separated from the garbling tweak space). The
 *    sender downlinks y0_j = m0_j ^ H(j, q_j) and
 *    y1_j = m1_j ^ H(j, q_j ^ s); the receiver strips H(j, t_j) from
 *    the ciphertext its choice selects, and the other stays masked by
 *    H over a row offset by the secret s.
 *
 * Plain IKNP is only honest-but-curious: a receiver may use a
 * *different* r in one column, turning the sender's response into a
 * selective-failure probe of s. Each batch therefore carries the
 * KOS15 consistency check (Keller-Orsini-Scholl '15): both sides
 * derive challenges chi_j from a Fiat-Shamir digest of the uplinked
 * columns, the receiver appends x = sum r_j*chi_j and
 * t~ = sum chi_j*t_j (GF(2^128), crypto/gf128.h), and the sender
 * verifies t~ == q~ ^ x*s — which holds only when one global r
 * produced every column. One extra all-random block of OTs per batch
 * masks the linear combination the proof reveals; a failed check
 * throws before any label is masked.
 *
 * Cost. Per batch the work is AES-CTR column expansion, a bit
 * transpose, the KOS15 sums and one hash per OT pair, all within a
 * small factor of the AES bound:
 *  - column streams and the challenges come from Prg::nextLabels(),
 *    eight AES blocks in flight, and column XORs run a word at a time;
 *  - t~ and q~ are gf128MulSum() calls: PCLMULQDQ products (a masked
 *    shift-and-XOR multiply without it) accumulated unreduced and
 *    reduced once per batch;
 *  - the sender hashes OTs j and j+1 in one hashRekeyedPair() call
 *    (two blocks per tweak), the receiver likewise with one block per
 *    tweak, so each OT pays one key expansion instead of constructing
 *    a RekeyedHasher.
 * Secret bits (s, the choices r, the rows t_j) select through masks,
 * never branches.
 *
 * Wire shape per batch (blocks = ceil(m/128) + 1 for the KOS pad):
 *   receiver -> sender: 2048 * blocks + 32 bytes (columns + proof)
 *   sender -> receiver: 32 * m bytes of masked label pairs
 * plus the one-time base phase (32 bytes up, 4096 down).
 *
 * Methods are half-steps so a single thread can drive both endpoints
 * over in-process FIFOs in protocol order:
 *   R.start -> S.setup -> R.setup -> R.sendChoices -> S.send ->
 *   R.receiveLabels
 * Across a network each side just calls its own methods in order.
 */
#ifndef HAAC_GC_OT_EXT_H
#define HAAC_GC_OT_EXT_H

#include <cstdint>
#include <vector>

#include "crypto/label.h"
#include "crypto/prg.h"
#include "gc/base_ot.h"
#include "gc/channel.h"

namespace haac {

/** Security parameter: base OTs / correlation-matrix columns. */
inline constexpr size_t kOtExtColumns = 128;

/** A fresh 128-bit OT randomness key from the OS entropy source. */
Label otRandomKey();

/** Batched IKNP sender: transfers one of (m0[j], m1[j]) per OT. */
class OtExtSender
{
  public:
    /**
     * @param out channel toward the receiver, @param in from it (pass
     *        the same object twice over a duplex transport).
     * @param rng_key secret randomness for every private value (the
     *        column-choice vector s, base-OT scalars). Networked
     *        callers must pass a full 128-bit key (otRandomKey()): a
     *        64-bit seed would cap the whole construction at a 2^64
     *        wire-passive brute force of the public base-OT points.
     */
    OtExtSender(ByteChannel &out, ByteChannel &in, const Label &rng_key);

    /** Deterministic-seed overload for in-process/test use. */
    OtExtSender(ByteChannel &out, ByteChannel &in, uint64_t rng_seed);

    /**
     * Base phase (runs the base-OT receiver side): blocks on the
     * extension receiver's start().
     */
    void setup();

    /**
     * Transfer one batch; callable repeatedly after setup().
     *
     * Reads the receiver's masked columns for m = m0.size() OTs, then
     * sends both masked labels per OT.
     */
    void send(const std::vector<Label> &m0, const std::vector<Label> &m1);

    bool ready() const { return ready_; }

    /**
     * Point the endpoint at a new channel pair. The serving layer's
     * per-connection base-OT cache (net/remote.h) keeps this object
     * alive across sessions whose NetChannels are per-session: rebind
     * before each reuse, then keep calling send() — the column PRGs
     * and the tweak base advance across batches by construction.
     */
    void
    rebind(ByteChannel &out, ByteChannel &in)
    {
        out_ = &out;
        in_ = &in;
    }

  private:
    ByteChannel *out_;
    ByteChannel *in_;
    Prg rng_;
    Label s_ = Label();            ///< secret column-choice vector
    std::vector<Prg> columnPrg_;   ///< PRG(k_{s_i}) per column
    uint64_t tweakBase_ = 0;       ///< next batch's first hash tweak
    bool ready_ = false;
};

/** Batched IKNP receiver: learns the label its choice bit selects. */
class OtExtReceiver
{
  public:
    /** @param rng_key full 128-bit secret randomness (see sender). */
    OtExtReceiver(ByteChannel &out, ByteChannel &in,
                  const Label &rng_key);

    /** Deterministic-seed overload for in-process/test use. */
    OtExtReceiver(ByteChannel &out, ByteChannel &in, uint64_t rng_seed);

    /** Base phase, step 1: send the base-OT public key. */
    void start();

    /** Base phase, step 2: blocks on the sender's setup(). */
    void setup();

    /** Batch, step 1: uplink the masked columns for these choices. */
    void sendChoices(const std::vector<bool> &choices);

    /**
     * Batch, step 2: read the masked label pairs and unmask the
     * chosen one per OT (order matches the sendChoices() batch).
     */
    std::vector<Label> receiveLabels();

    bool ready() const { return ready_; }

    /** Re-point at a new channel pair (see OtExtSender::rebind). */
    void
    rebind(ByteChannel &out, ByteChannel &in)
    {
        out_ = &out;
        in_ = &in;
        base_.rebind(out, in);
    }

  private:
    ByteChannel *out_;
    ByteChannel *in_;
    Prg rng_;
    BaseOtSender base_;
    std::vector<Prg> columnPrg0_;  ///< PRG(k0_i) per column
    std::vector<Prg> columnPrg1_;  ///< PRG(k1_i) per column
    std::vector<Label> rows_;      ///< t rows of the pending batch
    std::vector<bool> choices_;    ///< pending batch's choice bits
    uint64_t tweakBase_ = 0;
    bool ready_ = false;
    bool batchPending_ = false;
};

} // namespace haac

#endif // HAAC_GC_OT_EXT_H
