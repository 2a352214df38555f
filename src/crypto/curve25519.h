/**
 * @file
 * In-repo Curve25519 group arithmetic for the base oblivious transfers.
 *
 * The real-OT layer (gc/base_ot.h) needs a Diffie-Hellman group with
 * full point addition — the Chou-Orlandi construction blinds the
 * receiver's key as R = c*A + x*G — so this implements the twisted
 * Edwards form of Curve25519 (the Ed25519 group of RFC 8032): field
 * arithmetic mod 2^255-19 in five 51-bit limbs on unsigned __int128,
 * complete extended-coordinate addition, and RFC 8032 point
 * compression/decompression.
 *
 * Scalar multiplication recodes the scalar into 65 signed radix-16
 * digits in [-8, 8]. Point::mul() adds a digit's multiple of P from
 * an 8-entry table after every fourth doubling (a 4-bit signed
 * window); FixedBase precomputes d * 256^j * P for every digit
 * position, so a fixed-base multiply is 65 additions and 4 doublings
 * (Point::mulBase() keeps one for the base point). Neither branches
 * on the scalar: table entries are chosen by a masked scan over the
 * whole row and negated by a masked swap, and the field arithmetic
 * has no secret-dependent branches. Compression and decompression
 * (public values) do branch. toBytesBatch() shares one field
 * inversion across many points (Montgomery's trick).
 *
 * The batch entry points (Point::mulMany(), FixedBase::mulMany(),
 * Point::fromBytesBatch()) return the same points as the single ones.
 * When cpu::has(cpu::kIfma) (platform/host_cpu.h: the build carries
 * the AVX-512 IFMA kernels and the CPU runs them) they run eight points
 * at once, one per 64-bit lane, on field elements of five radix-2^52
 * limbs multiplied by vpmadd52lo/huq; elsewhere they loop over the
 * single calls.
 *
 * Deliberately small: encryption-only GC needs no signatures and no
 * external library, and the repo models a semi-honest deployment
 * (DESIGN.md).
 */
#ifndef HAAC_CRYPTO_CURVE25519_H
#define HAAC_CRYPTO_CURVE25519_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/prg.h"

namespace haac {
namespace ec {

/** Serialized (compressed) point and scalar size in bytes. */
inline constexpr size_t kPointBytes = 32;
inline constexpr size_t kScalarBytes = 32;

/** A scalar multiplier, little-endian; any 256-bit value is usable. */
struct Scalar
{
    uint8_t bytes[kScalarBytes] = {};
};

/** Draw a uniform 255-bit scalar from @p rng. */
Scalar randomScalar(Prg &rng);

struct PointOps;

/** An Ed25519 group element in extended coordinates (X:Y:Z:T). */
class Point
{
  public:
    /** The neutral element (0, 1). */
    Point();

    /** The RFC 8032 base point B. */
    static const Point &base();

    /**
     * Decompress an RFC 8032 encoding.
     *
     * @return false when @p in is not a valid curve point (the caller
     *         must treat that as a protocol error, not a crash).
     */
    static bool fromBytes(const uint8_t in[kPointBytes], Point &out);

    /**
     * Decompress the @p n encodings in[32 * i ...] into out[i].
     *
     * @return the index of the first invalid encoding (out[] holds the
     *         points before it), or @p n when all of them decode.
     */
    static size_t fromBytesBatch(const uint8_t in[], size_t n,
                                 Point out[]);

    /** Compress to the canonical 32-byte RFC 8032 encoding. */
    void toBytes(uint8_t out[kPointBytes]) const;

    /**
     * Compress @p n points into out[32 * i ...], the same bytes as n
     * toBytes() calls for one field inversion in total.
     */
    static void toBytesBatch(const Point points[], size_t n,
                             uint8_t out[]);

    Point add(const Point &o) const;
    Point sub(const Point &o) const;
    Point dbl() const;

    /** Variable-base scalar multiplication k*P (4-bit signed window). */
    static Point mul(const Scalar &k, const Point &p);

    /**
     * out[i] = k * in[i] for i < @p n: one scalar, many points, the
     * same points as n mul() calls. @p out may be @p in.
     */
    static void mulMany(const Scalar &k, const Point in[], Point out[],
                        size_t n);

    /** k*B for the base point B, over a precomputed FixedBase table. */
    static Point mulBase(const Scalar &k);

    /** @p b when @p pick_b, else @p a, without branching on pick_b. */
    static Point select(const Point &a, const Point &b, bool pick_b);

    /** Canonical-encoding equality (compares compressed bytes). */
    bool equals(const Point &o) const;

    bool isIdentity() const;

  private:
    friend struct PointOps;

    // Field element mod 2^255-19: five unsaturated 51-bit limbs.
    struct Fe
    {
        uint64_t v[5];
    };

    Fe X_, Y_, Z_, T_;
};

/**
 * Precomputed multiples of one point P for repeated k*P: a comb of
 * d * 256^j * P for d = 1..8 and j = 0..32, stored affine. Building
 * one costs about three variable-base multiplies and 32 KiB; each
 * mul() then costs about a quarter of Point::mul(). The base-OT
 * receiver builds one for the sender's key A and reuses it for all
 * its x*A.
 */
class FixedBase
{
  public:
    explicit FixedBase(const Point &p);

    /** The table of the base point B, shared by Point::mulBase(). */
    static const FixedBase &base();

    /** k*P; same point as Point::mul(k, P). */
    Point mul(const Scalar &k) const;

    /** out[i] = k[i] * P for i < @p n; the same points as mul(). */
    void mulMany(const Scalar k[], Point out[], size_t n) const;

  private:
    friend struct PointOps;

    /** Digit positions with an even index: e[0], e[2], ..., e[64]. */
    static constexpr size_t kRows = 33;

    /** (y+x, y-x, 2dT) of one affine multiple (T = xy). */
    struct Entry
    {
        uint64_t yPlusX[5], yMinusX[5], t2d[5];
    };

    std::vector<Entry> table_; ///< row j at [8j, 8j+8): 1..8 * 256^j P
    /** table_ in radix-2^52 limbs when the IFMA kernels are built. */
    std::vector<Entry> table52_;
};

} // namespace ec
} // namespace haac

#endif // HAAC_CRYPTO_CURVE25519_H
