/**
 * @file
 * Stream partitioning: one compiled program, M shards.
 *
 * The coordinator compiles and schedules once (recordSchedule), then
 * carves the per-GE queue streams into M shards, each a self-contained
 * sub-machine: its own GE subset, its own StreamSet, and an explicit
 * manifest of the wires that cross shard boundaries — imports (operands
 * whose producer instruction landed in another shard) and exports
 * (wires some other shard imports). The manifest is what makes the
 * merge honest: the coordinator replays cross-shard ready times into
 * each shard until the schedule converges, so the aggregate cycle
 * count includes the stalls a real multi-core HAAC would pay.
 *
 * Invariants:
 *  - every GE lands in exactly one shard, shards keep GEs in original
 *    order, and shard count is clamped to [1, numGes];
 *  - at M=1 the single shard's StreamSet::ge is bit-identical to the
 *    input set and both manifests are empty, so the sharded backend
 *    degenerates to the plain simulator;
 *  - balance is a greedy longest-processing-time pack over per-GE
 *    instruction counts (deterministic: ties break toward the
 *    emptier, then lower-numbered shard).
 */
#ifndef HAAC_SHARD_PARTITION_H
#define HAAC_SHARD_PARTITION_H

#include <cstdint>
#include <vector>

#include "core/compiler/streams.h"
#include "core/isa/program.h"
#include "core/isa/verify.h"

namespace haac::shard {

/** One shard's slice of the compiled program. */
struct ShardPart
{
    /** Original GE indices owned by this shard, ascending. */
    std::vector<uint32_t> geIds;

    /** This shard's queue streams (ge[i] feeds original GE geIds[i]). */
    StreamSet streams;

    /** Wire addresses read here but produced by another shard. */
    std::vector<uint32_t> imports;

    /** Wire addresses produced here and imported by another shard. */
    std::vector<uint32_t> exports;

    /** Instructions assigned to this shard (balance accounting). */
    uint64_t instructions = 0;
};

struct ShardPlan
{
    /** Shard count the caller asked for (before clamping). */
    uint32_t requested = 1;

    std::vector<ShardPart> parts;

    /** Owning shard per original GE index. */
    std::vector<uint8_t> shardOfGe;

    /** Owning shard per program instruction. */
    std::vector<uint8_t> shardOfInstr;

    /** Total cross-shard wire imports (each consumer shard counted). */
    uint64_t crossWires = 0;

    uint32_t shardCount() const { return uint32_t(parts.size()); }
};

/**
 * Partition @p set (built for @p prog) into at most @p shards shards.
 *
 * @p shards is clamped to [1, set.ge.size()]; every shard is non-empty
 * (it owns at least one GE, possibly with an empty stream).
 */
ShardPlan partitionStreams(const HaacProgram &prog, const StreamSet &set,
                           uint32_t shards);

/**
 * Mark every cross-shard export live in @p prog so its label is
 * written off-chip where the consuming shard can fetch it — the DRAM
 * traffic a multi-core split genuinely adds (ESW may have kept the
 * wire on-chip when one core ran everything).
 *
 * @return number of live bits newly set.
 */
uint64_t markCrossShardLive(HaacProgram &prog, const ShardPlan &plan);

/**
 * The plan's manifest in the static verifier's neutral form, so
 * verifyProgram() can check shard import/export consistency
 * (LintOptions::shards) without core/isa depending on this subsystem.
 * Check *after* markCrossShardLive — a dead export is an error.
 */
ShardManifest toLintManifest(const ShardPlan &plan);

} // namespace haac::shard

#endif // HAAC_SHARD_PARTITION_H
