/**
 * @file
 * VIP-Bench-style workloads (paper Table 2, §5 "Benchmarks").
 *
 * Each factory returns a Workload bundle: the circuit, deterministic
 * sample inputs for both parties, the expected plaintext outputs, and
 * a native (unencrypted) kernel for the Fig. 10 plaintext baseline.
 * The paper's input scales are available through
 * vipWorkload(name, paper_scale); the defaults are ~5-10x smaller so
 * the whole evaluation runs in minutes (see DESIGN.md substitutions).
 */
#ifndef HAAC_WORKLOADS_VIP_H
#define HAAC_WORKLOADS_VIP_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuit/netlist.h"

namespace haac {

struct Workload
{
    std::string name;
    std::string description;
    Netlist netlist;
    std::vector<bool> garblerBits;
    std::vector<bool> evaluatorBits;
    std::vector<bool> expectedOutputs;

    /** One native execution of the same computation (timed by benches). */
    std::function<void()> plaintextKernel;

    /**
     * Circuit-lint warning codes (kebab-case, circuit/diagnostic.h)
     * this workload accepts by design — the registry-level NOLINT.
     * haac_lint netlist treats a waived finding as informational, so
     * the --Werror fleet gate stays meaningful: a *new* kind of waste
     * still fails CI, while e.g. ReLU's deliberate per-party lane
     * split does not.
     */
    std::vector<std::string> lintWaivers;
};

/** Sort n signed @p width-bit words with bubble sort (deep, low ILP). */
Workload makeBubbleSort(uint32_t n, uint32_t width = 32);

/** Dot product of two n-element @p width-bit vectors. */
Workload makeDotProduct(uint32_t n, uint32_t width = 32);

/**
 * Mersenne-Twister (MT19937): @p outputs tempered draws.
 *
 * @param seeded when true, the circuit also performs the Knuth seed
 *        expansion (multiplicative, AND-heavy; the paper-scale shape).
 *        When false the 624-word state is a circuit input.
 */
Workload makeMersenne(uint32_t outputs, bool seeded);

/** Count triangles in an @p n-vertex undirected graph. */
Workload makeTriangleCount(uint32_t n);

/** Hamming distance between two @p bits-bit strings. */
Workload makeHamming(uint32_t bits);

/** d x d matrix multiply over @p width-bit integers. */
Workload makeMatMult(uint32_t d, uint32_t width = 32);

/** @p count independent @p width-bit ReLUs (the paper's PI kernel). */
Workload makeRelu(uint32_t count, uint32_t width = 32);

/**
 * Linear regression by gradient descent on binary32 floats:
 * @p rounds iterations over @p points (x, y) samples.
 */
Workload makeGradDesc(uint32_t points, uint32_t rounds);

/**
 * Levenshtein edit distance between an m- and an n-symbol string
 * (classic GC benchmark; not in the paper's Table 2 — an extra).
 *
 * @param symbol_bits bits per symbol (2 for DNA, 8 for ASCII).
 * @param kogge_stone use depth-optimized adders in the DP cells.
 */
Workload makeEditDistance(uint32_t m, uint32_t n,
                          uint32_t symbol_bits = 2,
                          bool kogge_stone = false);

/** One suite entry by Table 2 name (BubbSt, DotProd, ...). */
Workload vipWorkload(const std::string &name, bool paper_scale);

/** Table 2 benchmark names in paper order. */
const std::vector<std::string> &vipNames();

} // namespace haac

#endif // HAAC_WORKLOADS_VIP_H
