#include "api/run_report.h"

#include <sstream>

namespace haac {

const char *
simModeName(SimMode mode)
{
    switch (mode) {
    case SimMode::Combined:
        return "combined";
    case SimMode::ComputeOnly:
        return "compute";
    case SimMode::TrafficOnly:
        return "traffic";
    }
    return "?";
}

const char *
roleName(Role role)
{
    return role == Role::Garbler ? "garbler" : "evaluator";
}

const char *
dramKindName(DramKind kind)
{
    return kind == DramKind::Ddr4 ? "ddr4" : "hbm2";
}

namespace {

/** Minimal JSON writer: objects with string/number/bool members. */
class JsonObject
{
  public:
    void
    add(const char *key, const std::string &value)
    {
        sep();
        os_ << '"' << key << "\":\"";
        for (char ch : value) {
            switch (ch) {
            case '"':
                os_ << "\\\"";
                break;
            case '\\':
                os_ << "\\\\";
                break;
            case '\n':
                os_ << "\\n";
                break;
            default:
                if (static_cast<unsigned char>(ch) < 0x20)
                    break; // drop other control characters
                os_ << ch;
            }
        }
        os_ << '"';
    }

    void
    add(const char *key, uint64_t value)
    {
        sep();
        os_ << '"' << key << "\":" << value;
    }

    void
    add(const char *key, double value)
    {
        sep();
        os_ << '"' << key << "\":" << value;
    }

    void
    add(const char *key, bool value)
    {
        sep();
        os_ << '"' << key << "\":" << (value ? "true" : "false");
    }

    /** Open a nested object; close with end(). */
    void
    begin(const char *key)
    {
        sep();
        os_ << '"' << key << "\":{";
        first_ = true;
    }

    void
    end()
    {
        os_ << '}';
        first_ = false;
    }

    std::string
    str() const
    {
        return "{" + os_.str() + "}";
    }

  private:
    void
    sep()
    {
        if (!first_)
            os_ << ',';
        first_ = false;
    }

    std::ostringstream os_;
    bool first_ = true;
};

std::string
outputBits(const std::vector<bool> &bits)
{
    std::string s;
    s.reserve(bits.size());
    for (bool b : bits)
        s += b ? '1' : '0';
    return s;
}

std::string
joinU64(const std::vector<uint64_t> &vals)
{
    std::string s;
    for (uint64_t v : vals) {
        if (!s.empty())
            s += ',';
        s += std::to_string(v);
    }
    return s;
}

} // namespace

std::string
RunReport::toJson() const
{
    JsonObject j;
    j.add("backend", backend);
    j.add("workload", workload);
    j.add("label", label);
    j.add("host_seconds", hostSeconds);
    j.add("modeled_seconds", modeledSeconds());
    j.add("gates", gates);
    j.add("gates_per_sec", gatesPerSecond());
    j.add("wire_bytes_per_sec", wireBytesPerSecond());

    j.begin("config");
    j.add("ges", uint64_t(config.numGes));
    j.add("sww_bytes", uint64_t(config.swwBytes));
    j.add("banks_per_ge", uint64_t(config.banksPerGe));
    j.add("dram", std::string(dramKindName(config.dram)));
    j.add("role", std::string(roleName(config.role)));
    j.add("forwarding", config.forwarding);
    j.add("mode", std::string(simModeName(mode)));
    j.end();

    if (hasOutputs) {
        j.begin("outputs");
        j.add("count", uint64_t(outputs.size()));
        j.add("bits", outputBits(outputs));
        j.end();
    }

    if (hasComm) {
        j.begin("comm");
        j.add("table_bytes", comm.tableBytes);
        j.add("input_label_bytes", comm.inputLabelBytes);
        j.add("ot_bytes", comm.otBytes);
        j.add("ot_uplink_bytes", comm.otUplinkBytes);
        j.add("output_decode_bytes", comm.outputDecodeBytes);
        j.add("total_bytes", comm.totalBytes);
        j.end();
    }

    if (hasNet) {
        j.begin("net");
        j.add("role", std::string(roleName(net.role)));
        j.add("endpoint", net.endpoint);
        j.add("raw_bytes_sent", net.rawBytesSent);
        j.add("raw_bytes_received", net.rawBytesReceived);
        j.add("control_bytes", net.controlBytes);
        j.add("table_segments", net.tableSegments);
        j.add("segment_tables", uint64_t(net.segmentTables));
        j.add("ot_mode", std::string(otModeName(net.otMode)));
        j.add("gates", net.gates);
        j.add("gates_per_second", net.gatesPerSecond);
        j.end();
    }

    if (hasShard) {
        j.begin("shard");
        j.add("shards", uint64_t(shard.shards));
        j.add("requested", uint64_t(shard.requested));
        j.add("rounds", uint64_t(shard.rounds));
        j.add("converged", shard.converged);
        j.add("cross_wires", shard.crossWires);
        j.add("live_flipped", shard.liveFlipped);
        j.add("shard_cycles", joinU64(shard.shardCycles));
        j.add("shard_instructions", joinU64(shard.shardInstructions));
        j.end();
    }

    if (hasSim) {
        j.begin("compile");
        j.add("instructions", compile.instructions);
        j.add("and_gates", compile.andGates);
        j.add("live_wires", compile.liveWires);
        j.add("oor_reads", compile.oorReads);
        j.end();

        j.begin("sim");
        j.add("cycles", sim.cycles);
        j.add("seconds", sim.seconds());
        j.add("instructions", sim.instructions);
        j.add("and_ops", sim.andOps);
        j.add("xor_ops", sim.xorOps);
        j.add("not_ops", sim.notOps);
        j.add("traffic_bytes", sim.totalTrafficBytes());
        j.add("wire_traffic_bytes", sim.wireTrafficBytes());
        j.add("stall_operand", sim.stallOperand);
        j.add("stall_instr_queue", sim.stallInstrQueue);
        j.add("stall_table_queue", sim.stallTableQueue);
        j.add("stall_oorw_queue", sim.stallOorwQueue);
        j.add("stall_bank", sim.stallBank);
        j.add("stall_write_buffer", sim.stallWriteBuffer);
        j.add("ge_utilization", sim.geUtilization());
        j.add("forward_hits", sim.forwardHits);
        j.end();
    }

    if (hasServe) {
        j.begin("serve");
        j.add("compile_cache_hit", serve.compileCacheHit);
        j.add("compile_cache_hits", serve.compileCacheHits);
        j.add("compile_cache_misses", serve.compileCacheMisses);
        j.add("pooled_garbling", serve.pooledGarbling);
        j.add("ot_setup_reused", serve.otSetupReused);
        j.add("pool_hits", serve.poolHits);
        j.add("pool_misses", serve.poolMisses);
        j.add("queries", serve.queries);
        j.add("queries_per_second", serve.queriesPerSecond);
        j.end();
    }

    if (hasChain) {
        j.begin("chain");
        j.add("components", uint64_t(chain.components));
        j.add("links", uint64_t(chain.links));
        j.add("link_bytes", chain.linkBytes);
        j.add("link_frames", uint64_t(chain.linkFrames));
        j.add("pooled_components", uint64_t(chain.pooledComponents));
        j.end();
    }

    if (hasEnergy) {
        j.begin("energy");
        j.add("half_gate_j", energy.halfGateJ);
        j.add("crossbar_j", energy.crossbarJ);
        j.add("sram_j", energy.sramJ);
        j.add("others_j", energy.othersJ);
        j.add("hbm2_phy_j", energy.hbm2PhyJ);
        j.add("total_j", energy.totalJ());
        j.end();
    }

    return j.str();
}

std::string
RunReport::csvHeader()
{
    return "backend,workload,label,mode,ges,sww_bytes,dram,role,"
           "cycles,modeled_seconds,instructions,live_wires,oor_reads,"
           "traffic_bytes,comm_total_bytes,energy_total_j,host_seconds,"
           "gates,gates_per_sec,wire_bytes_per_sec";
}

std::string
RunReport::csvRow() const
{
    std::ostringstream os;
    auto quote = [](const std::string &s) {
        if (s.find_first_of(",\"\n") == std::string::npos)
            return s;
        std::string q = "\"";
        for (char ch : s) {
            if (ch == '"')
                q += '"';
            q += ch;
        }
        return q + "\"";
    };
    os << quote(backend) << ',' << quote(workload) << ','
       << quote(label) << ',' << simModeName(mode) << ','
       << config.numGes << ',' << config.swwBytes << ','
       << dramKindName(config.dram) << ',' << roleName(config.role)
       << ',' << (hasSim ? sim.cycles : 0) << ',' << modeledSeconds()
       << ',' << (hasSim ? sim.instructions : 0) << ','
       << (hasSim ? compile.liveWires : 0) << ','
       << (hasSim ? compile.oorReads : 0) << ','
       << (hasSim ? sim.totalTrafficBytes() : 0) << ','
       << (hasComm ? comm.totalBytes : 0) << ','
       << (hasEnergy ? energy.totalJ() : 0.0) << ',' << hostSeconds
       << ',' << gates << ',' << gatesPerSecond() << ','
       << wireBytesPerSecond();
    return os.str();
}

std::string
RunReport::toCsv() const
{
    return csvHeader() + "\n" + csvRow() + "\n";
}

} // namespace haac
