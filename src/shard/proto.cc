#include "shard/proto.h"

#include "net/wire.h"

namespace haac::shard {

namespace {

/** Wire bytes of one encoded HaacInstruction (putInstrs). */
constexpr size_t kInstrWireBytes = 1 + 4 + 4 + 1 + 4;

/** Wire bytes of an empty GE stream: three counts and tableCount. */
constexpr size_t kGeStreamMinWireBytes = 4 * 8;

/** A count the frame can hold at @p min_bytes per element, or NetError. */
uint64_t
getCount(WireReader &r, size_t min_bytes)
{
    const uint64_t n = r.u64();
    if (n > r.remaining() / min_bytes)
        throw NetError("shard protocol: element count exceeds the frame");
    return n;
}

void
putConfig(WireWriter &w, const HaacConfig &cfg)
{
    w.u32(cfg.numGes);
    w.u64(cfg.swwBytes);
    w.u32(cfg.banksPerGe);
    w.u8(uint8_t(cfg.dram));
    w.u8(uint8_t(cfg.role));
    w.u8(cfg.forwarding ? 1 : 0);
    w.u64(cfg.queueSramBytes);
    w.u64(cfg.writeBufferBytes);
    w.u32(cfg.dramLatency);
    w.f64(cfg.dramBandwidthScale);
}

HaacConfig
getConfig(WireReader &r)
{
    HaacConfig cfg;
    cfg.numGes = r.u32();
    cfg.swwBytes = r.u64();
    cfg.banksPerGe = r.u32();
    cfg.dram = DramKind(r.u8());
    cfg.role = Role(r.u8());
    cfg.forwarding = r.u8() != 0;
    cfg.queueSramBytes = r.u64();
    cfg.writeBufferBytes = r.u64();
    cfg.dramLatency = r.u32();
    cfg.dramBandwidthScale = r.f64();
    return cfg;
}

void
putInstrs(WireWriter &w, const std::vector<HaacInstruction> &instrs)
{
    w.u64(instrs.size());
    for (const HaacInstruction &ins : instrs) {
        w.u8(uint8_t(ins.op));
        w.u32(ins.a);
        w.u32(ins.b);
        w.u8(ins.live ? 1 : 0);
        w.u32(ins.tweak);
    }
}

std::vector<HaacInstruction>
getInstrs(WireReader &r)
{
    const uint64_t n = getCount(r, kInstrWireBytes);
    std::vector<HaacInstruction> instrs;
    instrs.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
        HaacInstruction ins;
        ins.op = HaacOp(r.u8());
        ins.a = r.u32();
        ins.b = r.u32();
        ins.live = r.u8() != 0;
        ins.tweak = r.u32();
        instrs.push_back(ins);
    }
    return instrs;
}

void
putProgram(WireWriter &w, const HaacProgram &prog)
{
    w.u32(prog.numInputs);
    w.u32(prog.numGarblerInputs);
    w.u32(prog.numEvaluatorInputs);
    w.u32(prog.constOneAddr);
    putInstrs(w, prog.instrs);
    w.u32vec(prog.outputs);
}

HaacProgram
getProgram(WireReader &r)
{
    HaacProgram prog;
    prog.numInputs = r.u32();
    prog.numGarblerInputs = r.u32();
    prog.numEvaluatorInputs = r.u32();
    prog.constOneAddr = r.u32();
    prog.instrs = getInstrs(r);
    prog.outputs = r.u32vec();
    return prog;
}

void
putStreams(WireWriter &w, const StreamSet &set)
{
    w.u64(set.ge.size());
    for (const GeStreams &ge : set.ge) {
        w.u32vec(ge.instrIdx);
        putInstrs(w, ge.instrs);
        w.u32vec(ge.oorAddrs);
        w.u64(ge.tableCount);
    }
}

StreamSet
getStreams(WireReader &r)
{
    StreamSet set;
    const uint64_t n = getCount(r, kGeStreamMinWireBytes);
    set.ge.resize(n);
    for (uint64_t g = 0; g < n; ++g) {
        GeStreams &ge = set.ge[g];
        ge.instrIdx = r.u32vec();
        ge.instrs = getInstrs(r);
        ge.oorAddrs = r.u32vec();
        ge.tableCount = r.u64();
        set.totalOor += ge.oorAddrs.size();
    }
    return set;
}

void
putStats(WireWriter &w, const SimStats &s)
{
    w.u64(s.cycles);
    w.u64(s.instructions);
    w.u64(s.andOps);
    w.u64(s.xorOps);
    w.u64(s.notOps);
    w.u64(s.instrBytes);
    w.u64(s.tableBytes);
    w.u64(s.oorAddrBytes);
    w.u64(s.oorDataBytes);
    w.u64(s.liveWriteBytes);
    w.u64(s.inputLoadBytes);
    w.u64(s.liveWires);
    w.u64(s.oorReads);
    w.u64(s.stallOperand);
    w.u64(s.stallInstrQueue);
    w.u64(s.stallTableQueue);
    w.u64(s.stallOorwQueue);
    w.u64(s.stallBank);
    w.u64(s.stallWriteBuffer);
    w.u64(s.swwReads);
    w.u64(s.swwWrites);
    w.u64(s.forwardHits);
    w.u64vec(s.issuedPerGe);
}

SimStats
getStats(WireReader &r)
{
    SimStats s;
    s.cycles = r.u64();
    s.instructions = r.u64();
    s.andOps = r.u64();
    s.xorOps = r.u64();
    s.notOps = r.u64();
    s.instrBytes = r.u64();
    s.tableBytes = r.u64();
    s.oorAddrBytes = r.u64();
    s.oorDataBytes = r.u64();
    s.liveWriteBytes = r.u64();
    s.inputLoadBytes = r.u64();
    s.liveWires = r.u64();
    s.oorReads = r.u64();
    s.stallOperand = r.u64();
    s.stallInstrQueue = r.u64();
    s.stallTableQueue = r.u64();
    s.stallOorwQueue = r.u64();
    s.stallBank = r.u64();
    s.stallWriteBuffer = r.u64();
    s.swwReads = r.u64();
    s.swwWrites = r.u64();
    s.forwardHits = r.u64();
    s.issuedPerGe = r.u64vec();
    return s;
}

} // namespace

ShardMsg
frameTag(const std::vector<uint8_t> &frame)
{
    if (frame.empty())
        throw NetError("shard protocol: empty frame");
    const uint8_t tag = frame[0];
    if (tag < uint8_t(ShardMsg::Job) || tag > uint8_t(ShardMsg::Quit))
        throw NetError("shard protocol: unknown message tag " +
                       std::to_string(int(tag)));
    return ShardMsg(tag);
}

std::vector<uint8_t>
encodeJob(const ShardJob &job)
{
    WireWriter w;
    w.u8(uint8_t(ShardMsg::Job));
    putConfig(w, job.config);
    w.u8(uint8_t(job.mode));
    putProgram(w, job.program);
    putStreams(w, job.streams);
    w.u32vec(job.imports);
    w.u32vec(job.exports);
    w.u32vec(job.valueAddrs);
    w.bits(job.importValues);
    w.bits(job.inputValues);
    w.u8(job.wantValues ? 1 : 0);
    return w.take();
}

ShardJob
decodeJob(const std::vector<uint8_t> &frame)
{
    WireReader r(frame);
    if (ShardMsg(r.u8()) != ShardMsg::Job)
        throw NetError("shard protocol: expected a Job frame");
    ShardJob job;
    job.config = getConfig(r);
    job.mode = SimMode(r.u8());
    job.program = getProgram(r);
    job.streams = getStreams(r);
    job.imports = r.u32vec();
    job.exports = r.u32vec();
    job.valueAddrs = r.u32vec();
    job.importValues = r.bits();
    job.inputValues = r.bits();
    job.wantValues = r.u8() != 0;
    r.expectEnd("Job");
    return job;
}

std::vector<uint8_t>
encodeRound(const std::vector<uint64_t> &importReady)
{
    WireWriter w;
    w.u8(uint8_t(ShardMsg::Round));
    w.u64vec(importReady);
    return w.take();
}

std::vector<uint64_t>
decodeRound(const std::vector<uint8_t> &frame)
{
    WireReader r(frame);
    if (ShardMsg(r.u8()) != ShardMsg::Round)
        throw NetError("shard protocol: expected a Round frame");
    std::vector<uint64_t> ready = r.u64vec();
    r.expectEnd("Round");
    return ready;
}

std::vector<uint8_t>
encodeResult(const ShardResultMsg &result)
{
    WireWriter w;
    w.u8(uint8_t(ShardMsg::Result));
    putStats(w, result.stats);
    w.f64(result.energy.halfGateJ);
    w.f64(result.energy.crossbarJ);
    w.f64(result.energy.sramJ);
    w.f64(result.energy.othersJ);
    w.f64(result.energy.hbm2PhyJ);
    w.u64vec(result.exportReady);
    w.u8(result.hasValues ? 1 : 0);
    if (result.hasValues)
        w.bits(result.values);
    return w.take();
}

ShardResultMsg
decodeResult(const std::vector<uint8_t> &frame)
{
    WireReader r(frame);
    if (ShardMsg(r.u8()) != ShardMsg::Result)
        throw NetError("shard protocol: expected a Result frame");
    ShardResultMsg result;
    result.stats = getStats(r);
    result.energy.halfGateJ = r.f64();
    result.energy.crossbarJ = r.f64();
    result.energy.sramJ = r.f64();
    result.energy.othersJ = r.f64();
    result.energy.hbm2PhyJ = r.f64();
    result.exportReady = r.u64vec();
    result.hasValues = r.u8() != 0;
    if (result.hasValues)
        result.values = r.bits();
    r.expectEnd("Result");
    return result;
}

std::vector<uint8_t>
encodeQuit()
{
    WireWriter w;
    w.u8(uint8_t(ShardMsg::Quit));
    return w.take();
}

} // namespace haac::shard
