/**
 * @file
 * Queue-stream generation (paper §4.1, "generate queue streams").
 *
 * The compiler assigns instructions to GEs by running the scheduling
 * simulation ("mapping instructions from the program to non-stalled GEs
 * each cycle in our simulator, saving the order, and replaying it in
 * hardware"), then derives, per GE: the instruction stream (with OoR
 * operands rewritten to the reserved zero address), the implied table
 * order, and the OoR wire-address stream in pop order.
 * recordSchedule() (core/sim/engine.h) is that pass.
 */
#ifndef HAAC_CORE_COMPILER_STREAMS_H
#define HAAC_CORE_COMPILER_STREAMS_H

#include <cstdint>
#include <vector>

#include "core/isa/program.h"
#include "core/sim/config.h"

namespace haac {

/** The streams feeding one GE. */
struct GeStreams
{
    /** Global program indices of this GE's instructions, in order. */
    std::vector<uint32_t> instrIdx;

    /** Local copies with OoR operands rewritten to kOorAddr. */
    std::vector<HaacInstruction> instrs;

    /** OoR wire addresses, in pop order (a before b, §3.1.4). */
    std::vector<uint32_t> oorAddrs;

    /** AND count == table-queue entries for this GE. */
    uint64_t tableCount = 0;
};

/** The full compiler output consumed by the hardware model. */
struct StreamSet
{
    std::vector<GeStreams> ge;

    /** ge index per global instruction. */
    std::vector<uint8_t> geOf;

    /** Global instruction indices in scheduled issue order. */
    std::vector<uint32_t> issueOrder;

    uint64_t totalOor = 0;
};

} // namespace haac

#endif // HAAC_CORE_COMPILER_STREAMS_H
