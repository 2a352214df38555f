/**
 * @file
 * The half-gate tweak-key stream: the re-keyed hash's AES schedules,
 * expanded ahead of the netlist walk.
 *
 * A GC program is fully known before any label exists, and so is
 * every AND's tweak pair (2i, 2i+1 for the i-th AND in netlist order).
 * The two key expansions of each AND in the paper's Fig. 2 datapath
 * therefore depend on no label, and can be produced off the critical
 * path, the way HAAC decouples its instruction and table streams from
 * the gate engines.
 *
 * On x86 hosts with VAES-512 (CPUID vaes + avx512f + avx512bw, and a
 * compiler the CMake probe HAAC_HAVE_VAES accepted) the two netlist
 * walks of gc/streaming.h take this path: while the ANDs of one block
 * of eight hash, the next block's sixteen schedules are expanded four
 * keys per VAES instruction, and each gate then hashes with stored
 * round keys — the garbler's four blocks [a0, b0, a0^R, b0^R] in one
 * 512-bit register, the evaluator's [a, b] in one 256-bit register.
 * Tables and labels are byte-identical to garbleAnd()/evaluateAnd()
 * (tests/test_gc.cc pins them). Every AVX-512 instruction lives in
 * functions that only run after haveTweakKeyStream() said yes; other
 * hosts keep the hashRekeyedPair() kernels.
 */
#ifndef HAAC_GC_KEY_STREAM_H
#define HAAC_GC_KEY_STREAM_H

#include <cstdint>
#include <vector>

#include "circuit/netlist.h"
#include "crypto/aes128.h"
#include "gc/garbler.h"
#include "gc/streaming.h"

namespace haac {

/** ANDs per key block: the stream runs one block ahead of the gates. */
inline constexpr int kKeyBlockAnds = 8;

/**
 * The 2 x 8 tweak schedules of eight consecutive ANDs, stored
 * [round][and][tweak] so that one 256-bit load is an AND's round key
 * pair (k(2i), k(2i+1)) and one 512-bit store is four expanded keys.
 */
struct alignas(64) TweakKeyBlock
{
    uint8_t bytes[kAesRounds + 1][kKeyBlockAnds][2][16];
};

/** Whether the build carries the VAES kernels and this CPU runs them. */
bool haveTweakKeyStream();

/**
 * The ring both walks use, for ANDs numbered from @p first_and on:
 * two key blocks, the current one and the next, expanded when the
 * current block's first AND arrives (5.5 KiB in all). Each call
 * handles the next AND in order. Requires haveTweakKeyStream().
 */
class TweakKeyStream
{
  public:
    explicit TweakKeyStream(uint64_t first_and = 0);

    /** garbleAnd(a0, b0, r, <next AND index>), byte for byte. */
    HalfGateGarbled garble(const Label &a0, const Label &b0,
                           const Label &r);

    /** evaluateAnd(a, b, table, <next AND index>), byte for byte. */
    Label evaluate(const Label &a, const Label &b,
                   const GarbledTable &table);

  private:
    friend struct KeyedKernels; // the VAES code in key_stream.cc

    TweakKeyBlock blocks_[2];
    uint64_t first_;
    uint64_t next_;
};

/**
 * StreamingGarbler::run's gate walk on the key stream: @p zero holds
 * the input zero labels on entry and every wire's on return.
 * Requires haveTweakKeyStream().
 *
 * @return the number of tables emitted.
 */
uint64_t garbleGatesKeyed(const Netlist &netlist, std::vector<Label> &zero,
                          const Label &offset, TableSegmentSink &sink);

/** evaluateStreaming's gate walk on the key stream (same contract). */
void evaluateGatesKeyed(const Netlist &netlist,
                        std::vector<Label> &labels,
                        TableSegmentSource &source);

} // namespace haac

#endif // HAAC_GC_KEY_STREAM_H
