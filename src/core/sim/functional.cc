#include "core/sim/functional.h"

#include <sstream>
#include <unordered_map>

#include "gc/evaluator.h"
#include "gc/garbler.h"
#include "gc/streaming.h"

namespace haac {

namespace {

/** One wire's full state as the machine tracks it. */
struct WireState
{
    Label zero;   ///< Garbler's zero label
    Label active; ///< Evaluator's active label
    bool plain = false;
    uint32_t addr = kOorAddr; ///< absolute address currently in the slot
    bool valid = false;
};

} // namespace

FunctionalResult
runFunctional(const HaacProgram &prog, const StreamSet &streams,
              const HaacConfig &cfg, const std::vector<bool> &garbler_bits,
              const std::vector<bool> &evaluator_bits, uint64_t seed)
{
    FunctionalResult res;
    auto fail = [&res](const std::string &msg) {
        res.ok = false;
        res.error = msg;
        return res;
    };

    if (garbler_bits.size() != prog.numGarblerInputs)
        return fail("wrong garbler input count");
    if (evaluator_bits.size() != prog.numEvaluatorInputs)
        return fail("wrong evaluator input count");

    const uint32_t sww = cfg.swwWires();

    // --- Input labels (the protocol garbler's draw). ---
    const InputLabels labels = expandInputLabels(seed, prog.numInputs);
    const Label &r = labels.offset;

    auto inputState = [&](uint32_t addr) {
        WireState w;
        w.zero = labels.zero[addr - 1];
        const uint32_t g = prog.numGarblerInputs;
        const uint32_t e = prog.numEvaluatorInputs;
        bool bit = false;
        if (addr >= 1 && addr <= g) {
            bit = garbler_bits[addr - 1];
        } else if (addr <= g + e) {
            bit = evaluator_bits[addr - 1 - g];
        } else {
            bit = true; // the constant-one wire
        }
        w.plain = bit;
        w.active = labels.activeLabel(addr - 1, bit);
        w.addr = addr;
        w.valid = true;
        return w;
    };

    // --- Memory system. ---
    std::vector<WireState> sww_mem(sww);
    std::unordered_map<uint32_t, WireState> dram;

    // Preload resident inputs (addresses >= the first window base).
    const uint32_t input_base =
        std::max<uint32_t>(1, windowBase(prog.numInputs + 1, sww));
    for (uint32_t addr = input_base; addr <= prog.numInputs; ++addr)
        sww_mem[addr % sww] = inputState(addr);

    auto fetchDram = [&](uint32_t addr) -> WireState {
        if (addr >= 1 && addr <= prog.numInputs)
            return inputState(addr);
        auto it = dram.find(addr);
        if (it == dram.end()) {
            WireState missing;
            missing.valid = false;
            return missing;
        }
        return it->second;
    };

    // --- Execute in the compiler's recorded issue order. ---
    std::vector<size_t> oor_cursor(streams.ge.size(), 0);
    std::vector<size_t> ge_pos(streams.ge.size(), 0);

    for (uint32_t idx : streams.issueOrder) {
        const HaacInstruction &ins = prog.instrs[idx];
        const uint32_t g = streams.geOf[idx];
        const GeStreams &gs = streams.ge[g];
        if (ge_pos[g] >= gs.instrs.size())
            return fail("GE stream exhausted early");
        const HaacInstruction &local = gs.instrs[ge_pos[g]];
        if (gs.instrIdx[ge_pos[g]] != idx)
            return fail("issue order / GE stream mismatch");
        ++ge_pos[g];

        const uint32_t out = prog.outputAddrOf(idx);
        const uint32_t base = windowBase(out, sww);

        auto readOperand = [&](uint32_t abs_addr, uint32_t local_addr,
                               WireState &dst, std::string &err) {
            if (local_addr == kOorAddr) {
                // Pop from this GE's OoRW queue.
                if (oor_cursor[g] >= gs.oorAddrs.size()) {
                    err = "OoRW queue underflow";
                    return false;
                }
                const uint32_t popped = gs.oorAddrs[oor_cursor[g]++];
                ++res.oorPops;
                if (popped != abs_addr) {
                    std::ostringstream os;
                    os << "OoRW pop mismatch: expected " << abs_addr
                       << " got " << popped;
                    err = os.str();
                    return false;
                }
                dst = fetchDram(abs_addr);
                if (!dst.valid) {
                    err = "OoR read of a wire never spilled to DRAM";
                    return false;
                }
                return true;
            }
            if (abs_addr < base) {
                err = "in-window read below the window base";
                return false;
            }
            const WireState &slot = sww_mem[abs_addr % sww];
            if (!slot.valid || slot.addr != abs_addr) {
                std::ostringstream os;
                os << "SWW slot for address " << abs_addr
                   << " holds address " << slot.addr
                   << " (window overwrite bug)";
                err = os.str();
                return false;
            }
            dst = slot;
            return true;
        };

        WireState a, b;
        std::string err;
        if (!readOperand(ins.a, local.a, a, err))
            return fail(err);
        if (ins.op != HaacOp::Not && !readOperand(ins.b, local.b, b, err))
            return fail(err);

        WireState o;
        o.addr = out;
        o.valid = true;
        switch (ins.op) {
          case HaacOp::Xor:
            o.zero = a.zero ^ b.zero;
            o.active = a.active ^ b.active;
            o.plain = a.plain != b.plain;
            break;
          case HaacOp::Not:
            o.zero = a.zero ^ r;
            o.active = a.active;
            o.plain = !a.plain;
            break;
          case HaacOp::And: {
            HalfGateGarbled hg = garbleAnd(a.zero, b.zero, r, ins.tweak);
            o.zero = hg.outZero;
            o.active = evaluateAnd(a.active, b.active, hg.table,
                                   ins.tweak);
            o.plain = a.plain && b.plain;
            break;
          }
          case HaacOp::Nop:
            continue;
        }

        // The garbling invariant, checked on every wire.
        const Label expect = o.plain ? o.zero ^ r : o.zero;
        if (o.active != expect) {
            std::ostringstream os;
            os << "garbling invariant broken at instruction " << idx;
            return fail(os.str());
        }

        WireState &slot = sww_mem[out % sww];
        if (slot.valid)
            ++res.slotOverwrites;
        slot = o;
        if (ins.live) {
            dram[out] = o;
            ++res.liveSpills;
        }
    }

    // --- Decode program outputs (live => available off-chip). ---
    res.outputs.reserve(prog.outputs.size());
    for (uint32_t addr : prog.outputs) {
        WireState w = fetchDram(addr);
        if (!w.valid)
            return fail("program output was never spilled to DRAM");
        const bool decoded = w.active.lsb() != w.zero.lsb();
        if (decoded != w.plain)
            return fail("output decode does not match plaintext");
        res.outputs.push_back(decoded);
    }

    res.ok = true;
    return res;
}

} // namespace haac
