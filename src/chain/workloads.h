/**
 * @file
 * Composite chained workloads: named ChainPlans with sample inputs.
 *
 * These are the chaining layer's analogue of workloads/priorwork.h —
 * small composite computations whose natural decomposition is a DAG
 * of standard components, used by tests/test_chain.cc for
 * chained-vs-monolithic parity and by bench/chain_link and the
 * serving layer as request specs. Spec strings follow the shared
 * "Name:N" grammar (circuit/spec.h, "ChainMillSum:32"); isChainSpec()
 * is how the server routes a request into the chained path.
 */
#ifndef HAAC_CHAIN_WORKLOADS_H
#define HAAC_CHAIN_WORKLOADS_H

#include <string>
#include <vector>

#include "chain/link.h"

namespace haac {
namespace chain {

/** A chain plan plus deterministic sample inputs and their outputs. */
struct ChainWorkload
{
    std::string name;
    std::string description;
    ChainPlan plan;
    std::vector<bool> garblerBits;
    std::vector<bool> evaluatorBits;
    /** plan.evaluate(garblerBits, evaluatorBits). */
    std::vector<bool> expectedOutputs;
};

/** True when @p spec names a chained workload ("Chain..." prefix). */
bool isChainSpec(const std::string &spec);

/**
 * Resolve a chained workload spec.
 *
 *  - "ChainMillSum:W"  millionaires over sums: a0+a1 < b0+b1
 *                      (2 ADD:W + CMP:W, 2 links per compared bit).
 *  - "ChainHammCmp:W"  Hamming distance below a private threshold:
 *                      XOR:W, an ADD popcount chain, CMP.
 *  - "ChainAbsDiff:W"  |a - b| via SUB/SUB/CMP/MUX (input fan-out:
 *                      every plan input drives two components).
 *  - "ChainProdCmp:W"  a0*b0 < a1*b1 (2 MUL:W + CMP:W) — the bench
 *                      headline: ~2 W^2 ANDs garbled ahead of time
 *                      against 2 W links at request time.
 *
 * @throws std::invalid_argument for an unknown name, a width that is
 *         not canonical, or one the component library refuses.
 */
ChainWorkload resolveChainWorkload(const std::string &spec);

/** The specs above at width @p w, for sweep-style tests/benches. */
std::vector<std::string> chainWorkloadSpecs(uint32_t w);

} // namespace chain
} // namespace haac

#endif // HAAC_CHAIN_WORKLOADS_H
