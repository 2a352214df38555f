#include "shard/partition.h"

#include <algorithm>
#include <cassert>

namespace haac::shard {

ShardPlan
partitionStreams(const HaacProgram &prog, const StreamSet &set,
                 uint32_t shards)
{
    const uint32_t n = uint32_t(set.ge.size());
    assert(n > 0 && "partitionStreams needs at least one GE stream");

    ShardPlan plan;
    plan.requested = shards;
    const uint32_t m = std::max(1u, std::min(shards, n));

    // LPT pack: heaviest GE streams first, each to the least-loaded
    // shard; ties prefer the shard with fewer GEs, then the lower id,
    // which keeps the pack deterministic and leaves no shard empty
    // while m <= n.
    std::vector<uint32_t> order(n);
    for (uint32_t g = 0; g < n; ++g)
        order[g] = g;
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         return set.ge[a].instrs.size() >
                                set.ge[b].instrs.size();
                     });

    plan.shardOfGe.assign(n, 0);
    std::vector<uint64_t> load(m, 0);
    std::vector<uint32_t> count(m, 0);
    for (uint32_t g : order) {
        uint32_t best = 0;
        for (uint32_t s = 1; s < m; ++s) {
            if (load[s] < load[best] ||
                (load[s] == load[best] && count[s] < count[best]))
                best = s;
        }
        plan.shardOfGe[g] = uint8_t(best);
        load[best] += set.ge[g].instrs.size();
        ++count[best];
    }

    // Materialize the parts: GEs stay in original order inside each
    // shard, so at m == 1 the sub-StreamSet is the input set.
    plan.parts.resize(m);
    for (uint32_t g = 0; g < n; ++g) {
        ShardPart &part = plan.parts[plan.shardOfGe[g]];
        part.geIds.push_back(g);
        part.streams.ge.push_back(set.ge[g]);
        part.streams.totalOor += set.ge[g].oorAddrs.size();
        part.instructions += set.ge[g].instrs.size();
    }

    // Owning shard per instruction, from the scheduler's GE map.
    plan.shardOfInstr.resize(prog.instrs.size());
    for (size_t k = 0; k < prog.instrs.size(); ++k)
        plan.shardOfInstr[k] = plan.shardOfGe[set.geOf[k]];

    // Cross-shard wire manifest: any operand whose producer instruction
    // belongs to another shard is an import here and an export there.
    // Primary inputs (addr <= numInputs, which covers the OoRW
    // sentinel 0) are resident everywhere and never cross.
    std::vector<std::vector<uint32_t>> imports(m), exports(m);
    for (size_t k = 0; k < prog.instrs.size(); ++k) {
        const HaacInstruction &ins = prog.instrs[k];
        const uint8_t s = plan.shardOfInstr[k];
        auto cross = [&](uint32_t addr) {
            if (addr <= prog.numInputs)
                return;
            const uint32_t producer = addr - prog.numInputs - 1;
            const uint8_t p = plan.shardOfInstr[producer];
            if (p == s)
                return;
            imports[s].push_back(addr);
            exports[p].push_back(addr);
        };
        cross(ins.a);
        if (ins.op != HaacOp::Not)
            cross(ins.b);
    }
    for (uint32_t s = 0; s < m; ++s) {
        auto uniq = [](std::vector<uint32_t> &v) {
            std::sort(v.begin(), v.end());
            v.erase(std::unique(v.begin(), v.end()), v.end());
        };
        uniq(imports[s]);
        uniq(exports[s]);
        plan.parts[s].imports = std::move(imports[s]);
        plan.parts[s].exports = std::move(exports[s]);
        plan.crossWires += plan.parts[s].imports.size();
    }
    return plan;
}

uint64_t
markCrossShardLive(HaacProgram &prog, const ShardPlan &plan)
{
    uint64_t flipped = 0;
    for (const ShardPart &part : plan.parts) {
        for (uint32_t addr : part.exports) {
            HaacInstruction &ins =
                prog.instrs[addr - prog.numInputs - 1];
            if (!ins.live) {
                ins.live = true;
                ++flipped;
            }
        }
    }
    return flipped;
}

ShardManifest
toLintManifest(const ShardPlan &plan)
{
    ShardManifest man;
    man.shardOfInstr = plan.shardOfInstr;
    man.imports.reserve(plan.parts.size());
    man.exports.reserve(plan.parts.size());
    for (const ShardPart &part : plan.parts) {
        man.imports.push_back(part.imports);
        man.exports.push_back(part.exports);
    }
    return man;
}

} // namespace haac::shard
