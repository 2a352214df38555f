/**
 * @file
 * haac_lint: both static analyzers as one CLI, for CI and for anyone
 * editing .haac by hand or feeding the stack a netlist.
 *
 *   haac_lint [isa] [options] [FILE.haac ...]
 *   haac_lint netlist [options] [FILE.txt ...]
 *
 * isa, the default mode, runs the ISA verifier (core/isa/verify.h)
 * over hand-written .haac files and compiled VIP workloads. Files are
 * checked at the grader corpus's 256-wire window by default, workloads
 * at the compiler's; --sww-wires overrides both. --streams also
 * replays the queue-stream generation and checks the OoRW rewrite/pop
 * discipline; --shards M partitions the streams and checks the
 * cross-shard manifest.
 *
 * netlist runs the circuit analyzer (circuit/analyze.h) over Bristol
 * files, VIP workloads and chained workloads, with a per-target cost
 * line (gates, ANDs, multiplicative depth, free-XOR share) and
 * optional JSON. Workloads and chains are analyzed after
 * optimizeNetlist by default: that is what the stack garbles, and it
 * is the analyzer-clean form the optimizer-referee tests pin. --raw
 * analyzes the frontend output instead (expect dead-gate findings —
 * the VIP adders deliberately synthesize a dead carry tail). Bristol
 * files are always analyzed exactly as written.
 *
 * Diagnostics print compiler-style ("file.haac:12: error[tweak-reuse]:
 * ..."). The exit code is 1 iff any error was reported (or any
 * warning, under --Werror), and 2 on a usage error, including a flag
 * that belongs to the other mode — the contract the CI steps rely on.
 */
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "chain/workloads.h"
#include "circuit/analyze.h"
#include "circuit/bristol.h"
#include "circuit/optimize.h"
#include "core/compiler/passes.h"
#include "core/isa/asm.h"
#include "core/isa/verify.h"
#include "core/sim/config.h"
#include "core/sim/engine.h"
#include "flag_number.h"
#include "shard/partition.h"
#include "workloads/vip.h"

namespace {

using namespace haac;

void
usage(std::ostream &os)
{
    os << "haac_lint: static analysis for HAAC programs and circuits\n"
          "\n"
          "usage: haac_lint [isa] [options] [FILE.haac ...]\n"
          "       haac_lint netlist [options] [FILE.txt ...]\n"
          "\n"
          "modes:\n"
          "  isa                  verify ISA programs (the default)\n"
          "  netlist              analyze netlists and chain plans\n"
          "\n"
          "targets:\n"
          "  FILE ...             .haac assembly files (isa) or\n"
          "                       old-format Bristol files (netlist)\n"
          "  --workload NAME      a VIP workload: compiled (isa) or\n"
          "                       its netlist (netlist)\n"
          "  --all-workloads      every VIP workload\n"
          "  --chain SPEC         netlist: a chained workload's plan\n"
          "                       (e.g. ChainMillSum:8)\n"
          "  --chains             netlist: the chained fleet at "
          "widths 8 and 16\n"
          "  --list               list workload names and exit\n"
          "\n"
          "isa checks:\n"
          "  --sww-wires N        window capacity (default: 256 for\n"
          "                       files, the compiler's for workloads;\n"
          "                       0 = structural checks only)\n"
          "  --streams            also build + verify the per-GE queue\n"
          "                       streams (--ges N, default 2)\n"
          "  --shards M           also partition into M shards and\n"
          "                       verify the import/export manifest\n"
          "  --ges N              GEs for --streams/--shards\n"
          "  --reorder KIND       workload compile: baseline | full |\n"
          "                       segment (default full)\n"
          "  --no-esw             workload compile: all wires live\n"
          "\n"
          "netlist checks:\n"
          "  --raw                analyze workload netlists before\n"
          "                       optimizeNetlist (default: after)\n"
          "\n"
          "reporting:\n"
          "  --json FILE          netlist: also write diagnostics as\n"
          "                       JSON (\"-\" = stdout)\n"
          "  --no-warnings        errors only\n"
          "  --Werror             exit nonzero on warnings too\n"
          "  -q, --quiet          summaries only, no diagnostics\n"
          "  --help               this text\n";
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::cerr << "haac_lint: " << msg << "\n";
    std::exit(2);
}

enum class Mode
{
    Isa,
    Netlist,
};

/** Flags that only one mode takes; the rest are shared. */
const std::map<std::string, Mode> kModeFlags = {
    {"--sww-wires", Mode::Isa}, {"--streams", Mode::Isa},
    {"--shards", Mode::Isa},    {"--ges", Mode::Isa},
    {"--reorder", Mode::Isa},   {"--no-esw", Mode::Isa},
    {"--chain", Mode::Netlist}, {"--chains", Mode::Netlist},
    {"--raw", Mode::Netlist},   {"--json", Mode::Netlist},
};

struct Options
{
    Mode mode = Mode::Isa;
    std::vector<std::string> files;
    std::vector<std::string> workloads;
    std::vector<std::string> chains;
    uint32_t swwWires = 0; ///< 0 = per-target default
    bool swwGiven = false;
    bool streams = false;
    uint32_t shards = 0;
    uint32_t ges = 2;
    ReorderKind reorder = ReorderKind::Full;
    bool esw = true;
    bool raw = false;
    std::string jsonPath;
    bool warnings = true;
    bool werror = false;
    bool quiet = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    int i = 1;
    if (i < argc && std::string(argv[i]) == "netlist") {
        opt.mode = Mode::Netlist;
        ++i;
    } else if (i < argc && std::string(argv[i]) == "isa") {
        ++i;
    }

    auto need = [&](const std::string &flag) -> std::string {
        if (i + 1 >= argc)
            usageError(flag + " needs an argument");
        return argv[++i];
    };
    // Whole-token decimal; "12x", "-1" and "" are usage errors.
    auto count = [&](const std::string &flag) {
        return flagNumber<uint32_t>("haac_lint", flag, need(flag));
    };

    for (; i < argc; ++i) {
        const std::string a = argv[i];
        const auto owner = kModeFlags.find(a);
        if (owner != kModeFlags.end() && owner->second != opt.mode)
            usageError(a + " only applies in " +
                       (owner->second == Mode::Isa ? "isa" : "netlist") +
                       " mode (try --help)");
        if (a == "--help" || a == "-h") {
            usage(std::cout);
            std::exit(0);
        } else if (a == "--list") {
            for (const std::string &n : vipNames())
                std::cout << n << "\n";
            if (opt.mode == Mode::Netlist)
                for (const std::string &s : chain::chainWorkloadSpecs(8))
                    std::cout << s << "\n";
            std::exit(0);
        } else if (a == "--workload") {
            opt.workloads.push_back(need(a));
        } else if (a == "--all-workloads") {
            for (const std::string &n : vipNames())
                opt.workloads.push_back(n);
        } else if (a == "--chain") {
            opt.chains.push_back(need(a));
        } else if (a == "--chains") {
            for (const uint32_t w : {8u, 16u})
                for (const std::string &s : chain::chainWorkloadSpecs(w))
                    opt.chains.push_back(s);
        } else if (a == "--raw") {
            opt.raw = true;
        } else if (a == "--json") {
            opt.jsonPath = need(a);
        } else if (a == "--sww-wires") {
            opt.swwWires = count(a);
            opt.swwGiven = true;
        } else if (a == "--streams") {
            opt.streams = true;
        } else if (a == "--shards") {
            opt.shards = count(a);
        } else if (a == "--ges") {
            opt.ges = count(a);
        } else if (a == "--reorder") {
            const std::string k = need(a);
            if (k == "baseline")
                opt.reorder = ReorderKind::Baseline;
            else if (k == "full")
                opt.reorder = ReorderKind::Full;
            else if (k == "segment")
                opt.reorder = ReorderKind::Segment;
            else
                usageError("unknown reorder kind '" + k + "'");
        } else if (a == "--no-esw") {
            opt.esw = false;
        } else if (a == "--no-warnings") {
            opt.warnings = false;
        } else if (a == "--Werror") {
            opt.werror = true;
        } else if (a == "-q" || a == "--quiet") {
            opt.quiet = true;
        } else if (!a.empty() && a[0] == '-') {
            usageError("unknown option '" + a + "' (try --help)");
        } else {
            opt.files.push_back(a);
        }
    }

    if (opt.files.empty() && opt.workloads.empty() && opt.chains.empty())
        usageError("nothing to lint: pass files, --workload NAME or "
                   "--all-workloads (try --help)");
    if (opt.mode == Mode::Isa) {
        HaacConfig cfg;
        cfg.numGes = opt.ges;
        if (opt.swwWires > 0)
            cfg.swwBytes = size_t(opt.swwWires) * kLabelBytes;
        const std::string bad = cfg.check();
        if (!bad.empty())
            usageError("--ges/--sww-wires: " + bad);
    }
    return opt;
}

struct Totals
{
    uint32_t targets = 0;
    uint32_t errors = 0;
    uint32_t warnings = 0;
    std::vector<std::string> json; ///< netlist --json targets
};

/** Print one target's diagnostics, then its summary and @p note. */
void
report(const std::string &name, const DiagReport &rep,
       const std::string &note, const Options &opt, Totals &tot)
{
    ++tot.targets;
    tot.errors += rep.errors;
    tot.warnings += rep.warnings;
    if (!opt.quiet)
        for (const Diagnostic &d : rep.diags)
            std::cout << formatDiagnostic(d, name) << "\n";
    std::cout << name << ": " << rep.summary() << note << "\n";
}

Workload
vipTarget(const std::string &name)
{
    try {
        return vipWorkload(name, /*paper_scale=*/false);
    } catch (const std::exception &ex) {
        usageError(std::string(ex.what()) + " (try --list)");
    }
}

// --- isa mode ---------------------------------------------------------

/**
 * Window-level lint of @p prog at @p sww, optionally with streams and
 * a shard manifest. @p lines may be null (compiled workloads).
 */
LintReport
lintProgram(const HaacProgram &prog, uint32_t sww, const Options &opt,
            const std::vector<uint32_t> *lines)
{
    LintOptions lo;
    lo.swwWires = sww;
    lo.warnings = opt.warnings;
    lo.instrLines = lines;

    HaacConfig cfg;
    cfg.numGes = opt.ges;
    cfg.swwBytes = size_t(sww) * kLabelBytes;

    StreamSet streams;
    ShardManifest manifest;
    HaacProgram marked;
    const HaacProgram *target = &prog;
    if (sww > 0 && (opt.streams || opt.shards > 0)) {
        streams = recordSchedule(prog, cfg);
        lo.streams = &streams;
        if (opt.shards > 0) {
            const shard::ShardPlan plan =
                shard::partitionStreams(prog, streams, opt.shards);
            marked = prog;
            shard::markCrossShardLive(marked, plan);
            manifest = shard::toLintManifest(plan);
            lo.shards = &manifest;
            // Rebuild: OoR rewrite depends only on addresses, but the
            // streams' local copies carry live bits.
            streams = recordSchedule(marked, cfg);
            target = &marked;
        }
    }
    return verifyProgram(*target, lo);
}

void
reportProgram(const std::string &name, const LintReport &rep,
              const Options &opt, Totals &tot)
{
    const std::string waste =
        rep.wasteBytes > 0 ? " (" + std::to_string(rep.wasteBytes) +
                                 " avoidable DRAM bytes)"
                           : "";
    report(name, rep, waste, opt, tot);
}

/** Returns false when a file failed to parse. */
bool
lintIsa(const Options &opt, Totals &tot)
{
    bool parsed = true;
    for (const std::string &path : opt.files) {
        const AsmResult r = parseAsmFile(path);
        if (!r.ok) {
            std::cout << path << ": parse error: " << r.error << "\n";
            parsed = false;
            continue;
        }
        // The grader corpus geometry unless overridden.
        const uint32_t sww = opt.swwGiven ? opt.swwWires : 256;
        reportProgram(path, lintProgram(r.prog, sww, opt, &r.instrLines),
                      opt, tot);
    }

    for (const std::string &name : opt.workloads) {
        const Workload w = vipTarget(name);
        CompileOptions copts;
        copts.reorder = opt.reorder;
        copts.esw = opt.esw;
        if (opt.swwWires > 0)
            copts.swwWires = opt.swwWires;
        const uint32_t sww = opt.swwGiven ? opt.swwWires
                                          : copts.swwWires;
        const HaacProgram prog =
            compileProgram(assemble(w.netlist), copts);
        reportProgram("workload:" + name,
                      lintProgram(prog, sww, opt, nullptr), opt, tot);
    }
    return parsed;
}

// --- netlist mode -----------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

/** One target's JSON object, appended to the --json array. */
std::string
jsonTarget(const std::string &name, const CircuitLintReport &rep)
{
    std::ostringstream os;
    os << "{\"target\":\"" << jsonEscape(name) << "\",\"errors\":"
       << rep.errors << ",\"warnings\":" << rep.warnings
       << ",\"cost\":{\"gates\":" << rep.cost.gates
       << ",\"andGates\":" << rep.cost.andGates
       << ",\"xorGates\":" << rep.cost.xorGates
       << ",\"multDepth\":" << rep.cost.multDepth
       << ",\"freeXorPercent\":" << rep.cost.freeXorPercent
       << "},\"diags\":[";
    for (size_t i = 0; i < rep.diags.size(); ++i) {
        const Diagnostic &d = rep.diags[i];
        os << (i > 0 ? "," : "") << "{\"code\":\""
           << diagCodeName(d.code) << "\",\"severity\":\""
           << severityName(d.severity) << "\",";
        if (d.site != kNoSite)
            os << "\"site\":" << d.site << ",";
        if (d.wire != kNoWire)
            os << "\"wire\":" << d.wire << ",";
        os << "\"message\":\"" << jsonEscape(d.message) << "\"}";
    }
    os << "]}";
    return os.str();
}

/** Keep only the diagnostics @p keep accepts; returns how many went. */
template <typename Keep>
uint32_t
filterDiags(DiagReport &rep, Keep keep)
{
    DiagReport kept;
    for (Diagnostic &d : rep.diags)
        if (keep(d))
            kept.add(std::move(d));
    const auto dropped = uint32_t(rep.diags.size() - kept.diags.size());
    rep = std::move(kept);
    return dropped;
}

void
reportCircuit(const std::string &name, const CircuitLintReport &rep,
              const Options &opt, Totals &tot, uint32_t waived = 0)
{
    if (!opt.jsonPath.empty())
        tot.json.push_back(jsonTarget(name, rep));
    std::ostringstream note;
    if (waived > 0)
        note << " (" << waived << " waived by the workload)";
    if (rep.clean() && rep.cost.gates > 0) {
        std::ostringstream pct;
        pct.precision(1);
        pct << std::fixed << rep.cost.freeXorPercent;
        note << " (" << rep.cost.gates << " gates, "
             << rep.cost.andGates << " AND, depth " << rep.cost.multDepth
             << ", " << pct.str() << "% free-XOR)";
    }
    report(name, rep, note.str(), opt, tot);
}

/** Returns false when a file failed to parse. */
bool
lintNetlists(const Options &opt, Totals &tot)
{
    CircuitLintOptions lopts;
    lopts.warnings = opt.warnings;

    bool parsed = true;
    for (const std::string &path : opt.files) {
        CircuitLintReport rep;
        try {
            // The lint-attaching parse: analyzer findings plus
            // parse-level MultiplyDriven diagnostics, no policy.
            (void)readBristolFile(path, &rep);
        } catch (const std::exception &ex) {
            std::cout << path << ": parse error: " << ex.what() << "\n";
            parsed = false;
            continue;
        }
        // The attach overload always runs deep; honor the flag.
        if (!opt.warnings)
            filterDiags(rep, [](const Diagnostic &d) {
                return d.severity == Severity::Error;
            });
        reportCircuit(path, rep, opt, tot);
    }

    for (const std::string &name : opt.workloads) {
        const Workload w = vipTarget(name);
        const Netlist nl =
            opt.raw ? w.netlist : optimizeNetlist(w.netlist);
        CircuitLintReport rep = analyzeNetlist(nl, lopts);
        // Warnings a workload waives by design (the registry NOLINT,
        // Workload::lintWaivers); errors are never waivable.
        const uint32_t waived =
            filterDiags(rep, [&](const Diagnostic &d) {
                return d.severity == Severity::Error ||
                       std::find(w.lintWaivers.begin(),
                                 w.lintWaivers.end(),
                                 diagCodeName(d.code)) ==
                           w.lintWaivers.end();
            });
        reportCircuit("workload:" + name, rep, opt, tot, waived);
    }

    for (const std::string &spec : opt.chains) {
        chain::ChainWorkload w;
        try {
            w = chain::resolveChainWorkload(spec);
        } catch (const std::exception &ex) {
            usageError(ex.what());
        }
        reportCircuit("chain:" + spec, analyzeChainPlan(w.plan, lopts),
                      opt, tot);
    }

    if (!opt.jsonPath.empty()) {
        std::ostringstream doc;
        doc << "{\"targets\":[";
        for (size_t i = 0; i < tot.json.size(); ++i)
            doc << (i > 0 ? "," : "") << tot.json[i];
        doc << "],\"errors\":" << tot.errors
            << ",\"warnings\":" << tot.warnings << "}\n";
        if (opt.jsonPath == "-") {
            std::cout << doc.str();
        } else {
            std::ofstream f(opt.jsonPath);
            if (!f)
                usageError("cannot open " + opt.jsonPath);
            f << doc.str();
        }
    }
    return parsed;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Totals tot;
    const bool parsed = opt.mode == Mode::Isa ? lintIsa(opt, tot)
                                              : lintNetlists(opt, tot);
    const bool bad = !parsed || tot.errors > 0 ||
                     (opt.werror && tot.warnings > 0);
    std::cout << "haac_lint: " << tot.targets << " target"
              << (tot.targets == 1 ? "" : "s") << ", " << tot.errors
              << " error" << (tot.errors == 1 ? "" : "s") << ", "
              << tot.warnings << " warning"
              << (tot.warnings == 1 ? "" : "s")
              << (bad ? " — FAIL" : " — ok") << "\n";
    return bad ? 1 : 0;
}
