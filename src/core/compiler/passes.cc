#include "core/compiler/passes.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "core/compiler/depgraph.h"
#include "core/isa/verify.h"
#include "core/sim/config.h"

namespace haac {

const char *
reorderKindName(ReorderKind kind)
{
    switch (kind) {
      case ReorderKind::Baseline:
        return "Baseline";
      case ReorderKind::Full:
        return "Full";
      case ReorderKind::Segment:
        return "Segment";
    }
    return "?";
}

std::vector<uint32_t>
reorderFull(const HaacProgram &prog)
{
    // A counting sort by level: each level's slots start at the prefix
    // sum of the sizes below it, and instructions fill them in program
    // order, which is exactly the stable sort by level.
    DependenceGraph graph(prog);
    const std::vector<uint32_t> &sizes = graph.levelSizes();
    std::vector<uint32_t> next(sizes.size());
    std::exclusive_scan(sizes.begin(), sizes.end(), next.begin(), 0u);
    std::vector<uint32_t> order(prog.instrs.size());
    for (uint32_t k = 0; k < order.size(); ++k)
        order[next[graph.level(k)]++] = k;
    return order;
}

std::vector<uint32_t>
reorderSegment(const HaacProgram &prog, uint32_t segment_size)
{
    assert(segment_size > 0);
    DependenceGraph graph(prog);
    std::vector<uint32_t> order(prog.instrs.size());
    std::iota(order.begin(), order.end(), 0);
    for (size_t lo = 0; lo < order.size(); lo += segment_size) {
        const size_t hi = std::min(order.size(), lo + segment_size);
        std::stable_sort(order.begin() + long(lo), order.begin() + long(hi),
                         [&graph](uint32_t x, uint32_t y) {
                             return graph.level(x) < graph.level(y);
                         });
    }
    return order;
}

HaacProgram
applyOrder(const HaacProgram &prog, const std::vector<uint32_t> &order)
{
    assert(order.size() == prog.instrs.size());
    const uint32_t first_out = prog.numInputs + 1;

    std::vector<uint32_t> newpos(order.size());
    for (uint32_t pos = 0; pos < order.size(); ++pos)
        newpos[order[pos]] = pos;

    auto remap = [&](uint32_t addr) {
        return addr < first_out ? addr
                                : first_out + newpos[addr - first_out];
    };

    HaacProgram out;
    out.numInputs = prog.numInputs;
    out.numGarblerInputs = prog.numGarblerInputs;
    out.numEvaluatorInputs = prog.numEvaluatorInputs;
    out.constOneAddr = prog.constOneAddr;
    out.instrs.reserve(prog.instrs.size());
    for (uint32_t pos = 0; pos < order.size(); ++pos) {
        HaacInstruction ins = prog.instrs[order[pos]];
        ins.a = remap(ins.a);
        ins.b = remap(ins.b);
        out.instrs.push_back(ins);
    }
    out.outputs.reserve(prog.outputs.size());
    for (uint32_t o : prog.outputs)
        out.outputs.push_back(remap(o));

    assert(out.check().empty() && "reordering violated dependences");
    return out;
}

uint64_t
applyEsw(HaacProgram &prog, uint32_t sww_wires)
{
    const uint32_t first_out = prog.numInputs + 1;
    std::vector<bool> live(prog.instrs.size(), false);

    for (size_t k = 0; k < prog.instrs.size(); ++k) {
        const HaacInstruction &ins = prog.instrs[k];
        const uint32_t base = windowBase(prog.outputAddrOf(k), sww_wires);
        auto visit = [&](uint32_t addr) {
            if (addr >= first_out && addr < base)
                live[addr - first_out] = true;
        };
        visit(ins.a);
        if (ins.op != HaacOp::Not)
            visit(ins.b);
    }
    for (uint32_t o : prog.outputs) {
        if (o >= first_out)
            live[o - first_out] = true;
    }

    uint64_t count = 0;
    for (size_t k = 0; k < prog.instrs.size(); ++k) {
        prog.instrs[k].live = live[k];
        count += live[k] ? 1 : 0;
    }
    return count;
}

void
clearEsw(HaacProgram &prog)
{
    for (HaacInstruction &ins : prog.instrs)
        ins.live = true;
}

uint64_t
countOorReads(const HaacProgram &prog, uint32_t sww_wires)
{
    uint64_t count = 0;
    for (size_t k = 0; k < prog.instrs.size(); ++k) {
        const HaacInstruction &ins = prog.instrs[k];
        const uint32_t base = windowBase(prog.outputAddrOf(k), sww_wires);
        count += ins.a < base ? 1 : 0;
        if (ins.op != HaacOp::Not)
            count += ins.b < base ? 1 : 0;
    }
    return count;
}

HaacProgram
compileProgram(const HaacProgram &baseline, const CompileOptions &opts,
               CompileStats *stats)
{
    HaacProgram prog;
    switch (opts.reorder) {
      case ReorderKind::Baseline:
        prog = baseline;
        break;
      case ReorderKind::Full:
        prog = applyOrder(baseline, reorderFull(baseline));
        break;
      case ReorderKind::Segment: {
        const uint32_t seg = opts.segmentSize != 0 ? opts.segmentSize
                                                   : opts.swwWires / 2;
        prog = applyOrder(baseline, reorderSegment(baseline, seg));
        break;
      }
    }

    uint64_t live = 0;
    if (opts.esw) {
        live = applyEsw(prog, opts.swwWires);
    } else {
        clearEsw(prog);
        live = prog.instrs.size();
    }

#ifndef NDEBUG
    const bool check = true;
#else
    const bool check = opts.verify;
#endif
    if (check) {
        // Errors only: a no-ESW compile is all-live by design, and the
        // waste warnings would cost string building per instruction.
        LintOptions lint;
        lint.swwWires = opts.swwWires;
        lint.warnings = false;
        const LintReport rep = verifyProgram(prog, lint);
        assert(rep.clean() && "compiler emitted an ill-formed program");
        if (!rep.clean())
            throw std::logic_error(
                "compileProgram: verifier rejected the output (" +
                rep.summary() + "): " + rep.firstError());
    }

    if (stats) {
        stats->liveWires = live;
        stats->oorReads = countOorReads(prog, opts.swwWires);
        stats->instructions = prog.instrs.size();
        stats->andGates = prog.numAnd();
    }
    return prog;
}

} // namespace haac
