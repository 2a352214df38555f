/**
 * @file
 * Base oblivious transfers: Chou-Orlandi "simplest OT" over Curve25519.
 *
 * The IKNP extension (gc/ot_ext.h) bootstraps from kappa = 128 *random*
 * OTs: the sender ends with 128 key pairs (k0_i, k1_i), the receiver
 * with the key matching each of its choice bits — and, this being a
 * random OT, no ciphertexts ever cross the wire, only group elements:
 *
 *   sender:    A = y*G                                  -> receiver
 *   receiver:  R_i = c_i*A + x_i*G    (blinded choice)  -> sender
 *   keys:      k0_i = H(i, y*R_i),  k1_i = H(i, y*(R_i - A))
 *              receiver derives its k_{c_i} = H(i, x_i*A)
 *
 * Scalar multiplications dominate: 256 on the receiver, 130 on the
 * sender. The receiver's 128 x_i*G and 128 x_i*A share their bases,
 * so they run over fixed-base comb tables (ec::FixedBase::base() and
 * one ec::FixedBase for A per run); the sender's 128 y*R_i share
 * their scalar and use the windowed variable-base multiply. Both go
 * through the batch entry points (ec::FixedBase::mulMany(),
 * ec::Point::mulMany(), and ec::Point::fromBytesBatch() for the
 * sender's 128 incoming points), which run eight points at a time on
 * AVX-512 IFMA hosts. Each side compresses all of its key and blinded
 * points with one batched field inversion, and the receiver adds A to
 * x_i*G by masked select, not by branching on c_i.
 *
 * The methods are split into explicit half-steps so one thread can
 * drive both endpoints over in-process FIFO channels in protocol
 * order (start -> run -> finish), while two processes simply call
 * their own side's methods and block on the transport.
 *
 * Security model: semi-honest, like the rest of the repo (DESIGN.md).
 * Received group elements are validated (decompression must succeed)
 * so a corrupted stream fails loudly as an OtError, not silently.
 */
#ifndef HAAC_GC_BASE_OT_H
#define HAAC_GC_BASE_OT_H

#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/curve25519.h"
#include "crypto/label.h"
#include "crypto/prg.h"
#include "gc/channel.h"

namespace haac {

/** Malformed or tampered OT traffic (bad point, wrong sizes). */
struct OtError : std::runtime_error
{
    explicit OtError(const std::string &what) : std::runtime_error(what)
    {
    }
};

/**
 * Sender endpoint: ends with @p count random key pairs.
 *
 * In the extension this role is played by the party that *receives*
 * the extended OTs (IKNP reverses the base-OT roles).
 */
class BaseOtSender
{
  public:
    /** @param out channel toward the receiver; @param in from it. */
    BaseOtSender(ByteChannel &out, ByteChannel &in, Prg &rng);

    /** Step 1: send the public key A (32 bytes). */
    void start();

    /**
     * Step 3 (after the receiver ran): read @p count blinded points
     * and derive both key columns.
     *
     * @throws OtError when a received encoding is not a curve point.
     */
    void finish(size_t count);

    const std::vector<Label> &keys0() const { return keys0_; }
    const std::vector<Label> &keys1() const { return keys1_; }

    /** Re-point at a new channel pair (gc/ot_ext.h rebinds through). */
    void
    rebind(ByteChannel &out, ByteChannel &in)
    {
        out_ = &out;
        in_ = &in;
    }

  private:
    ByteChannel *out_;
    ByteChannel *in_;
    Prg *rng_;
    ec::Scalar y_;
    ec::Point A_;
    std::vector<Label> keys0_;
    std::vector<Label> keys1_;
};

/** Receiver endpoint: ends with the key matching each choice bit. */
class BaseOtReceiver
{
  public:
    BaseOtReceiver(ByteChannel &out, ByteChannel &in, Prg &rng);

    /**
     * Step 2: read A, send one blinded point per choice, derive the
     * chosen keys.
     *
     * @throws OtError when the sender's public key is invalid.
     */
    void run(const std::vector<bool> &choices);

    const std::vector<Label> &keys() const { return keys_; }

  private:
    ByteChannel *out_;
    ByteChannel *in_;
    Prg *rng_;
    std::vector<Label> keys_;
};

} // namespace haac

#endif // HAAC_GC_BASE_OT_H
