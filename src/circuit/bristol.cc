#include "circuit/bristol.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace haac {

namespace {

[[noreturn]] void
fail(const std::string &msg)
{
    throw std::runtime_error("bristol: " + msg);
}

Netlist
readBristolImpl(std::istream &in, CircuitLintReport *lints)
{
    uint64_t ngates = 0, nwires = 0;
    if (!(in >> ngates >> nwires))
        fail("missing gate/wire header");
    uint64_t ninp1 = 0, ninp2 = 0, nout = 0;
    if (!(in >> ninp1 >> ninp2 >> nout))
        fail("missing input/output header");

    // Header sanity, before a single allocation is sized off it. Each
    // bound fails closed on a hostile header: canonical ids (inputs,
    // const-one, one wire per gate) must fit WireId with kNoWire
    // reserved, the input and output blocks must fit inside the
    // declared wire count, and the wire count cannot exceed what the
    // inputs plus single-output gates can define.
    constexpr uint64_t kMaxWires = uint64_t(kNoWire); // ids 0..kNoWire-1
    if (ngates >= kMaxWires || ninp1 >= kMaxWires ||
        ninp2 >= kMaxWires - ninp1)
        fail("header counts overflow the 32-bit wire-id space");
    const uint64_t declared_inputs = ninp1 + ninp2;
    if (declared_inputs + 1 + ngates > kMaxWires) // + const-one wire
        fail("header counts overflow the 32-bit wire-id space");
    if (nout > nwires || declared_inputs > nwires - nout)
        fail("header declares more inputs and outputs than wires");
    if (nwires > declared_inputs + ngates)
        fail("header declares more wires than its inputs and gates "
             "can define");

    struct RawGate
    {
        std::string op;
        uint64_t a = 0, b = 0, out = 0;
    };
    std::vector<RawGate> raw;
    // The declared count is header-controlled; cap the up-front
    // reservation so growth past it has to be backed by actual gate
    // lines in the text.
    raw.reserve(size_t(std::min<uint64_t>(ngates, 1u << 20)));
    bool any_inv = false;
    for (uint64_t g = 0; g < ngates; ++g) {
        uint64_t fanin = 0, fanout = 0;
        if (!(in >> fanin >> fanout))
            fail("truncated gate list");
        if (fanout != 1)
            fail("multi-output gates unsupported");
        RawGate rg;
        if (fanin == 2) {
            if (!(in >> rg.a >> rg.b >> rg.out >> rg.op))
                fail("bad 2-input gate");
        } else if (fanin == 1) {
            if (!(in >> rg.a >> rg.out >> rg.op))
                fail("bad 1-input gate");
            rg.b = rg.a;
        } else {
            fail("unsupported fan-in");
        }
        if (rg.op == "INV" || rg.op == "NOT")
            any_inv = true;
        raw.push_back(rg);
    }

    Netlist nl;
    nl.numGarblerInputs = uint32_t(ninp1);
    nl.numEvaluatorInputs = uint32_t(ninp2);
    const uint64_t file_inputs = declared_inputs;
    // Always materialize the constant wire; keeps layout predictable
    // and matches what CircuitBuilder emits.
    nl.constOne = uint32_t(file_inputs);
    (void)any_inv;

    // Map file wire ids to canonical ids.
    std::vector<WireId> map(nwires, kNoWire);
    for (uint64_t w = 0; w < file_inputs; ++w)
        map[w] = WireId(w);

    const uint32_t base = nl.numInputs();
    for (size_t gi = 0; gi < raw.size(); ++gi) {
        const RawGate &rg = raw[gi];
        if (rg.a >= nwires || rg.b >= nwires || rg.out >= nwires)
            fail("wire index out of range");
        // A second definition of a file wire: the map overwrite below
        // silently retargets every later reader to this gate (last
        // definition wins) — exactly the miscompile the lint surfaces.
        if (map[rg.out] != kNoWire && lints != nullptr)
            lints->add({DiagCode::MultiplyDriven, Severity::Error,
                        uint32_t(gi), WireId(rg.out), 0,
                        "file wire " + std::to_string(rg.out) +
                            " is driven again by " + rg.op + " gate " +
                            std::to_string(gi) +
                            " — later readers silently rebind to the "
                            "last definition"});
        const WireId a = map[rg.a];
        if (a == kNoWire)
            fail("gate reads an undefined wire (not topologically sorted)");
        if (rg.op == "EQW" || rg.op == "EQ") {
            map[rg.out] = a;
            continue;
        }
        const WireId out = base + nl.numGates();
        if (rg.op == "INV" || rg.op == "NOT") {
            nl.gates.push_back({GateOp::Xor, a, nl.constOne});
        } else {
            const WireId b = map[rg.b];
            if (b == kNoWire)
                fail("gate reads an undefined wire");
            if (rg.op == "AND") {
                nl.gates.push_back({GateOp::And, a, b});
            } else if (rg.op == "XOR") {
                nl.gates.push_back({GateOp::Xor, a, b});
            } else {
                fail("unknown gate op '" + rg.op + "'");
            }
        }
        map[rg.out] = out;
    }

    // Old Bristol convention: the last nout file wires are the outputs.
    for (uint64_t w = nwires - nout; w < nwires; ++w) {
        if (map[w] == kNoWire)
            fail("output wire never defined");
        nl.outputs.push_back(map[w]);
    }

    const std::string err = nl.check();
    if (!err.empty())
        fail("canonicalization failed: " + err);

    if (lints != nullptr) {
        const CircuitLintReport rep = analyzeNetlist(nl);
        lints->merge(rep);
        lints->cost = rep.cost;
    }
    return nl;
}

} // namespace

Netlist
readBristol(std::istream &in)
{
    return readBristolImpl(in, nullptr);
}

Netlist
readBristol(std::istream &in, CircuitLintReport *lints)
{
    return readBristolImpl(in, lints);
}

Netlist
readBristolFile(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        fail("cannot open " + path);
    return readBristol(f);
}

Netlist
readBristolFile(const std::string &path, CircuitLintReport *lints)
{
    std::ifstream f(path);
    if (!f)
        fail("cannot open " + path);
    return readBristol(f, lints);
}

Netlist
readBristolString(const std::string &text)
{
    std::istringstream ss(text);
    return readBristol(ss);
}

Netlist
readBristolString(const std::string &text, CircuitLintReport *lints)
{
    std::istringstream ss(text);
    return readBristol(ss, lints);
}

void
writeBristol(const Netlist &netlist, std::ostream &out)
{
    // The constant-one wire is exported as a trailing evaluator input;
    // readers must feed it 1. Outputs must be the last wires in the
    // file, so we append EQW-free copies by re-listing via a tail
    // remap: we emit gates as-is and then, if outputs are not already
    // the trailing wires, emit XOR-with-zero copies.
    const uint32_t inputs = netlist.numInputs();
    const uint32_t base_wires = netlist.numWires();

    // Determine which outputs need copy gates to land at the tail.
    const size_t nout = netlist.outputs.size();
    std::vector<bool> in_place(nout, false);
    bool all_in_place = true;
    for (size_t i = 0; i < nout; ++i) {
        in_place[i] =
            netlist.outputs[i] == base_wires - nout + i;
        all_in_place = all_in_place && in_place[i];
    }

    uint32_t extra = all_in_place ? 0 : uint32_t(nout);
    out << netlist.numGates() + extra << ' ' << base_wires + extra
        << '\n';
    out << netlist.numGarblerInputs << ' '
        << inputs - netlist.numGarblerInputs << ' ' << nout << "\n\n";

    auto opName = [](GateOp op) {
        return op == GateOp::And ? "AND" : "XOR";
    };
    for (uint32_t g = 0; g < netlist.numGates(); ++g) {
        const Gate &gate = netlist.gates[g];
        out << "2 1 " << gate.a << ' ' << gate.b << ' ' << inputs + g
            << ' ' << opName(gate.op) << '\n';
    }
    if (!all_in_place) {
        // Copy each output to the tail with XOR(w, w) ^ ... we have no
        // zero wire guarantee, so use EQW which readers alias away.
        for (size_t i = 0; i < nout; ++i) {
            out << "1 1 " << netlist.outputs[i] << ' '
                << base_wires + i << " EQW\n";
        }
    }
}

std::string
writeBristolString(const Netlist &netlist)
{
    std::ostringstream ss;
    writeBristol(netlist, ss);
    return ss.str();
}

} // namespace haac
