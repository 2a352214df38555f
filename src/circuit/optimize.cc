#include "circuit/optimize.h"

#include <algorithm>
#include <vector>

namespace haac {

namespace {

/** Rebuild a canonical netlist keeping only gates with keep[g] set. */
Netlist
compact(const Netlist &netlist, const std::vector<bool> &keep,
        const std::vector<WireId> &alias)
{
    const uint32_t inputs = netlist.numInputs();
    Netlist out;
    out.numGarblerInputs = netlist.numGarblerInputs;
    out.numEvaluatorInputs = netlist.numEvaluatorInputs;
    out.constOne = netlist.constOne;

    // Old wire id -> new wire id (inputs map to themselves).
    std::vector<WireId> remap(netlist.numWires(), kNoWire);
    for (uint32_t w = 0; w < inputs; ++w)
        remap[w] = w;

    auto resolve = [&](WireId w) {
        // Follow the alias chain (set by merging) then remap.
        while (alias[w] != w)
            w = alias[w];
        return remap[w];
    };

    for (uint32_t g = 0; g < netlist.numGates(); ++g) {
        if (!keep[g])
            continue;
        const Gate &gate = netlist.gates[g];
        Gate ng{gate.op, resolve(gate.a), resolve(gate.b)};
        remap[inputs + g] = inputs + out.numGates();
        out.gates.push_back(ng);
    }
    out.outputs.reserve(netlist.outputs.size());
    for (WireId w : netlist.outputs)
        out.outputs.push_back(resolve(w));
    out.recordAndGates();
    return out;
}

std::vector<WireId>
identityAlias(const Netlist &netlist)
{
    std::vector<WireId> alias(netlist.numWires());
    for (uint32_t w = 0; w < alias.size(); ++w)
        alias[w] = w;
    return alias;
}

} // namespace

Netlist
eliminateDeadGates(const Netlist &netlist, OptimizeStats *stats)
{
    const uint32_t inputs = netlist.numInputs();
    std::vector<bool> reachable(netlist.numWires(), false);
    for (WireId w : netlist.outputs)
        reachable[w] = true;
    for (int g = int(netlist.numGates()) - 1; g >= 0; --g) {
        if (!reachable[inputs + uint32_t(g)])
            continue;
        reachable[netlist.gates[size_t(g)].a] = true;
        reachable[netlist.gates[size_t(g)].b] = true;
    }

    std::vector<bool> keep(netlist.numGates());
    uint32_t removed = 0;
    for (uint32_t g = 0; g < netlist.numGates(); ++g) {
        keep[g] = reachable[inputs + g];
        removed += keep[g] ? 0 : 1;
    }
    if (stats)
        stats->deadGatesRemoved += removed;
    return compact(netlist, keep, identityAlias(netlist));
}

std::vector<WireId>
duplicateGateAliases(const Netlist &netlist)
{
    const uint32_t inputs = netlist.numInputs();
    std::vector<WireId> alias = identityAlias(netlist);
    // (min, max) of the resolved operands fills the key exactly, so
    // full 32-bit wire ids cannot collide.
    auto keyOf = [&alias](const Gate &gate) {
        WireId a = gate.a, b = gate.b;
        while (alias[a] != a)
            a = alias[a];
        while (alias[b] != b)
            b = alias[b];
        return uint64_t(std::min(a, b)) << 32 | std::max(a, b);
    };

    // Open addressing over the first output wire of each key, at most
    // half full; a slot is compared through its gate.
    int bits = 4;
    while ((size_t(1) << bits) < 2 * size_t(netlist.numGates()))
        ++bits;
    std::vector<WireId> table(size_t(1) << bits, kNoWire);
    for (uint32_t g = 0; g < netlist.numGates(); ++g) {
        const Gate &gate = netlist.gates[g];
        const uint64_t key = keyOf(gate);
        size_t i = size_t((key + uint64_t(gate.op)) * 0x9e3779b97f4a7c15ull >>
                          (64 - bits));
        for (; table[i] != kNoWire; i = (i + 1) & (table.size() - 1)) {
            const Gate &first = netlist.gates[table[i] - inputs];
            if (first.op == gate.op && keyOf(first) == key)
                break;
        }
        if (table[i] == kNoWire)
            table[i] = inputs + g;
        else
            alias[inputs + g] = table[i];
    }
    return alias;
}

Netlist
mergeDuplicateGates(const Netlist &netlist, OptimizeStats *stats)
{
    const uint32_t inputs = netlist.numInputs();
    const std::vector<WireId> alias = duplicateGateAliases(netlist);
    std::vector<bool> keep(netlist.numGates());
    uint32_t merged = 0;
    for (uint32_t g = 0; g < netlist.numGates(); ++g) {
        keep[g] = alias[inputs + g] == inputs + g;
        merged += keep[g] ? 0 : 1;
    }
    if (stats)
        stats->duplicatesMerged += merged;
    return compact(netlist, keep, alias);
}

Netlist
optimizeNetlist(const Netlist &netlist, OptimizeStats *stats)
{
    Netlist cur = netlist;
    for (int round = 0; round < 8; ++round) {
        OptimizeStats local;
        cur = mergeDuplicateGates(cur, &local);
        cur = eliminateDeadGates(cur, &local);
        if (stats) {
            stats->deadGatesRemoved += local.deadGatesRemoved;
            stats->duplicatesMerged += local.duplicatesMerged;
        }
        if (local.deadGatesRemoved == 0 && local.duplicatesMerged == 0)
            break;
    }
    return cur;
}

} // namespace haac
