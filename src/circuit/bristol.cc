#include "circuit/bristol.h"

#include <algorithm>
#include <fstream>
#include <iterator>
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

/** The ops a gate line may name; Other is any other token. */
enum class RawOp : uint8_t { And, Xor, Inv, Not, Eqw, Eq, Other };
constexpr std::string_view kRawOpNames[] = {"AND", "XOR", "INV",
                                             "NOT", "EQW", "EQ"};

/** One gate line as read, in file wire ids. */
struct RawGate
{
    uint32_t a, b, out;
    RawOp op;
};

/** A read position; every read skips the whitespace before it. */
struct Cursor
{
    std::string_view text;
    size_t pos = 0;

    /** Whitespace as the C locale's isspace has it. */
    static bool
    space(char c)
    {
        return c == ' ' || (c >= '\t' && c <= '\r');
    }

    void
    skipSpace()
    {
        while (pos < text.size() && space(text[pos]))
            ++pos;
    }

    /** The next run of non-whitespace bytes (empty at the end). */
    std::string_view
    token()
    {
        skipSpace();
        const size_t begin = pos;
        while (pos < text.size() && !space(text[pos]))
            ++pos;
        return text.substr(begin, pos - begin);
    }

    /** A token of decimal digits below 2^64. */
    bool
    number(uint64_t &v)
    {
        skipSpace();
        const size_t begin = pos;
        for (v = 0; pos < text.size(); ++pos) {
            const unsigned d = unsigned(uint8_t(text[pos])) - '0';
            if (d > 9 || v > (UINT64_MAX - d) / 10)
                break; // an overflow stops on a digit: no token end
            v = v * 10 + d;
        }
        return pos > begin && (pos == text.size() || space(text[pos]));
    }
};

} // namespace

std::optional<BristolHeader>
readBristolHeader(std::string_view text)
{
    Cursor in{text};
    BristolHeader h;
    if (!in.number(h.gates) || !in.number(h.wires))
        return std::nullopt;
    h.end = in.pos;
    return h;
}

Netlist
readBristol(std::string_view text, CircuitLintReport *lints,
            const CircuitLintOptions &lint_opts)
{
    const std::optional<BristolHeader> head = readBristolHeader(text);
    if (!head)
        fail("missing gate/wire header");
    const uint64_t ngates = head->gates, nwires = head->wires;
    Cursor in{text, head->end};
    uint64_t ninp1 = 0, ninp2 = 0, nout = 0;
    if (!in.number(ninp1) || !in.number(ninp2) || !in.number(nout))
        fail("missing input/output header");

    // Header sanity, before a single allocation is sized off it. Each
    // bound fails closed on a hostile header: canonical ids (inputs,
    // const-one, one wire per gate) must fit WireId with kNoWire
    // reserved, the input and output blocks must fit inside the
    // declared wire count, the wire count cannot exceed what the
    // inputs plus single-output gates can define, and no gate could
    // read an input past twice the gate count.
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
    if (declared_inputs > 2 * ngates)
        fail("header declares more inputs than its gates can read");

    // Every gate line is read before the wire map is sized off the
    // header. A gate line takes at least nine bytes, so the
    // reservation never outgrows the text. Ids past WireId read as
    // kNoWire, which lies past every admissible wire count; only the
    // first unknown op's text can reach a message.
    std::vector<RawGate> raw;
    raw.reserve(size_t(std::min<uint64_t>(ngates, text.size() / 9)));
    std::string_view unknown;
    for (uint64_t g = 0; g < ngates; ++g) {
        uint64_t fanin = 0, fanout = 0, w[3] = {};
        if (!in.number(fanin) || !in.number(fanout))
            fail("truncated gate list");
        if (fanout != 1)
            fail("multi-output gates unsupported");
        if (fanin != 1 && fanin != 2)
            fail("unsupported fan-in");
        bool ok = true;
        for (uint64_t i = 0; i <= fanin && ok; ++i)
            ok = in.number(w[i]);
        const std::string_view op = ok ? in.token() : std::string_view();
        if (op.empty())
            fail(fanin == 2 ? "bad 2-input gate" : "bad 1-input gate");
        const RawOp kind = RawOp(
            std::find(std::begin(kRawOpNames), std::end(kRawOpNames), op) -
            std::begin(kRawOpNames));
        if (kind == RawOp::Other && unknown.empty())
            unknown = op;
        auto id = [](uint64_t v) {
            return uint32_t(std::min<uint64_t>(v, kNoWire));
        };
        raw.push_back({id(w[0]), id(w[fanin - 1]), id(w[fanin]), kind});
    }

    Netlist nl;
    nl.numGarblerInputs = uint32_t(ninp1);
    nl.numEvaluatorInputs = uint32_t(ninp2);
    // Always materialize the constant wire; keeps layout predictable
    // and matches what CircuitBuilder emits.
    nl.constOne = uint32_t(declared_inputs);
    nl.gates.reserve(raw.size());

    // Map file wire ids to canonical ids.
    std::vector<WireId> map(nwires, kNoWire);
    for (uint64_t w = 0; w < declared_inputs; ++w)
        map[w] = WireId(w);

    const uint32_t base = nl.numInputs();
    for (size_t gi = 0; gi < raw.size(); ++gi) {
        const RawGate &rg = raw[gi];
        const std::string_view op = rg.op == RawOp::Other
                                        ? unknown
                                        : kRawOpNames[size_t(rg.op)];
        if (rg.a >= nwires || rg.b >= nwires || rg.out >= nwires)
            fail("wire index out of range");
        // A second definition of a file wire: the map overwrite below
        // silently retargets every later reader to this gate (last
        // definition wins) — exactly the miscompile the lint surfaces.
        if (map[rg.out] != kNoWire && lints != nullptr)
            lints->add({DiagCode::MultiplyDriven, Severity::Error,
                        uint32_t(gi), WireId(rg.out), 0,
                        "file wire " + std::to_string(rg.out) +
                            " is driven again by " + std::string(op) +
                            " gate " + std::to_string(gi) +
                            " — later readers silently rebind to the "
                            "last definition"});
        const WireId a = map[rg.a];
        if (a == kNoWire)
            fail("gate reads an undefined wire (not topologically sorted)");
        if (rg.op == RawOp::Eqw || rg.op == RawOp::Eq) {
            map[rg.out] = a;
            continue;
        }
        const WireId out = base + nl.numGates();
        if (rg.op == RawOp::Inv || rg.op == RawOp::Not) {
            nl.gates.push_back({GateOp::Xor, a, nl.constOne});
        } else {
            const WireId b = map[rg.b];
            if (b == kNoWire)
                fail("gate reads an undefined wire");
            if (rg.op == RawOp::Other)
                fail("unknown gate op '" + std::string(op) + "'");
            nl.gates.push_back(
                {rg.op == RawOp::And ? GateOp::And : GateOp::Xor, a, b});
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
    nl.recordAndGates();

    if (lints != nullptr) {
        CircuitLintReport rep = analyzeNetlist(nl, lint_opts);
        lints->cost = rep.cost;
        lints->merge(std::move(rep));
    }
    return nl;
}

Netlist
readBristolFile(const std::string &path, CircuitLintReport *lints)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        fail("cannot open " + path);
    const std::string text{std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>()};
    return readBristol(text, lints);
}

Netlist
readBristolString(const std::string &text)
{
    return readBristol(text);
}

Netlist
readBristolString(const std::string &text, CircuitLintReport *lints)
{
    return readBristol(text, lints);
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
    bool all_in_place = true;
    for (size_t i = 0; i < nout; ++i)
        all_in_place = all_in_place &&
                       netlist.outputs[i] == base_wires - nout + i;

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
