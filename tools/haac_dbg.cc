/**
 * @file
 * haac_dbg: interactive cycle-level debugger for the HAAC timing model.
 *
 * Steps src/core/sim/engine.cc cycle by cycle through the SimProbe
 * hook, with breakpoints on cycles and GEs, watchpoints on wire writes,
 * and a live view of the streaming queues and SWW bank ports. Programs
 * come from the VIP workload suite (--workload, compiled through the
 * full pass pipeline) or from a .haac assembly file (run as written).
 *
 * Non-interactive use: --batch consumes `-x CMD` commands and then runs
 * to completion, so CI can smoke the whole surface; plain stdin EOF
 * behaves the same way.
 */
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler/passes.h"
#include "core/compiler/streams.h"
#include "core/isa/asm.h"
#include "core/isa/disasm.h"
#include "core/isa/program.h"
#include "core/isa/verify.h"
#include "core/sim/config.h"
#include "core/sim/engine.h"
#include "core/sim/functional.h"
#include "flag_number.h"
#include "workloads/vip.h"

namespace {

using namespace haac;

void
usage(std::ostream &os)
{
    os << "haac_dbg: cycle-level debugger for the HAAC timing model\n"
          "\n"
          "usage: haac_dbg [options] [FILE.haac]\n"
          "\n"
          "program selection:\n"
          "  FILE.haac            run a hand-written assembly program\n"
          "  --workload NAME      run a VIP workload (see --list)\n"
          "  --paper-scale        use the paper's input scales\n"
          "  --list               list workload names and exit\n"
          "\n"
          "compilation (workloads only; .haac files run as written):\n"
          "  --reorder KIND       baseline | full | segment "
          "(default full)\n"
          "  --no-esw             mark every wire live\n"
          "\n"
          "hardware configuration:\n"
          "  --ges N              number of garbling engines\n"
          "  --sww-wires N        SWW capacity in wires\n"
          "  --banks N            SWW banks per GE\n"
          "  --role R             garbler | evaluator\n"
          "  --mode M             combined | compute | traffic\n"
          "\n"
          "debugging:\n"
          "  --break N            break at cycle N\n"
          "  --break-ge G         break when GE G issues\n"
          "  --watch wN           break when wire N is written\n"
          "  --functional         also run the functional machine and\n"
          "                       report its verdict\n"
          "  --batch              no prompt: run -x commands, then run\n"
          "                       to completion\n"
          "  -x CMD               queue a debugger command (repeatable)\n"
          "  --help               this text\n"
          "\n"
          "commands at the (haac_dbg) prompt:\n"
          "  step [n] | s         advance n cycles (default 1)\n"
          "  run | c              run until a breakpoint or the end\n"
          "  break cycle N        add a cycle breakpoint\n"
          "  break ge G           break whenever GE G issues\n"
          "  watch wN             break when wire N is written\n"
          "  queues               per-GE queue and SWW-bank occupancy\n"
          "  disasm               next instruction of every GE\n"
          "  where                cycle and per-GE stream positions\n"
          "  stats                statistics so far\n"
          "  lint                 run the static verifier (haac-lint)\n"
          "                       over the loaded program + streams\n"
          "  dump [FILE]          write the current state as a\n"
          "                       committable .haac repro with a .test\n"
          "                       line (default haac_dbg_dump.haac)\n"
          "  quit | q             abandon the run\n";
}

struct Options
{
    std::string workload;
    std::string asmFile;
    bool paperScale = false;
    ReorderKind reorder = ReorderKind::Full;
    bool esw = true;
    HaacConfig cfg;
    SimMode mode = SimMode::Combined;
    bool batch = false;
    bool functional = false;
    std::vector<std::string> scripted;
    std::vector<uint64_t> cycleBreaks;
    std::vector<uint32_t> geBreaks;
    std::vector<uint32_t> watches;
};

bool
parseWire(const std::string &tok, uint32_t &addr)
{
    std::string digits = tok;
    if (!digits.empty() && (digits[0] == 'w' || digits[0] == 'W'))
        digits = digits.substr(1);
    const auto [end, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), addr);
    return ec == std::errc() && end == digits.data() + digits.size();
}

/** The interactive loop, driven from inside the timing engine. */
class Debugger : public SimProbe
{
  public:
    Debugger(const HaacProgram &prog, const Options &opt,
             const StreamSet &streams, std::vector<bool> garbler_bits,
             std::vector<bool> evaluator_bits,
             std::vector<uint32_t> instr_lines, std::string src_name)
        : prog_(prog), cfg_(opt.cfg), streams_(streams),
          garblerBits_(std::move(garbler_bits)),
          evaluatorBits_(std::move(evaluator_bits)),
          instrLines_(std::move(instr_lines)),
          srcName_(std::move(src_name)), batch_(opt.batch)
    {
        for (const std::string &cmd : opt.scripted)
            scripted_.push_back(cmd);
        for (uint64_t c : opt.cycleBreaks)
            cycleBreaks_.insert(c);
        for (uint32_t g : opt.geBreaks)
            geBreaks_.insert(g);
        for (uint32_t w : opt.watches)
            watches_.insert(w);
    }

    void
    onIssue(uint64_t cycle, uint32_t ge, uint32_t instrIdx,
            const HaacInstruction &ins, uint32_t outAddr) override
    {
        if (!freeRun_)
            std::cout << "  cycle " << cycle << ": ge" << ge
                      << " issues #" << instrIdx << ": "
                      << toString(ins, outAddr) << "\n";
        if (watches_.count(outAddr)) {
            std::ostringstream os;
            os << "watchpoint: w" << outAddr << " written by #"
               << instrIdx << " on ge" << ge << " at cycle " << cycle;
            stopReason_ = os.str();
        }
        if (geBreaks_.count(ge)) {
            std::ostringstream os;
            os << "breakpoint: ge" << ge << " issued #" << instrIdx
               << " at cycle " << cycle;
            stopReason_ = os.str();
        }
    }

    bool
    onCycle(const SimProbeView &view) override
    {
        view_ = view;
        haveView_ = true;

        bool stop = !stopReason_.empty();
        if (cycleBreaks_.count(view.cycle)) {
            std::ostringstream os;
            os << "breakpoint: cycle " << view.cycle;
            stopReason_ = os.str();
            stop = true;
        }
        if (!freeRun_) {
            if (steps_ > 0)
                --steps_;
            if (steps_ == 0)
                stop = true;
        }
        if (!stop)
            return true;

        if (!stopReason_.empty()) {
            std::cout << stopReason_ << "\n";
            stopReason_.clear();
        }
        return prompt();
    }

    bool aborted() const { return aborted_; }

  private:
    bool
    nextCommand(std::string &cmd)
    {
        if (!scripted_.empty()) {
            cmd = scripted_.front();
            scripted_.pop_front();
            std::cout << "(haac_dbg) " << cmd << "\n";
            return true;
        }
        if (batch_)
            return false;
        std::cout << "(haac_dbg) " << std::flush;
        return bool(std::getline(std::cin, cmd));
    }

    /** @return false to abort the simulation (quit). */
    bool
    prompt()
    {
        std::string lineBuf;
        while (true) {
            if (!nextCommand(lineBuf)) {
                // Scripted commands exhausted in batch mode, or EOF on
                // stdin: run the rest of the program unattended.
                freeRun_ = true;
                return true;
            }
            std::istringstream in(lineBuf);
            std::string cmd;
            if (!(in >> cmd))
                continue;

            if (cmd == "run" || cmd == "c" || cmd == "continue") {
                freeRun_ = true;
                return true;
            }
            if (cmd == "step" || cmd == "s") {
                uint64_t n = 1;
                in >> n;
                freeRun_ = false;
                steps_ = n == 0 ? 1 : n;
                return true;
            }
            if (cmd == "break") {
                std::string what;
                in >> what;
                uint64_t n = 0;
                if (what == "cycle" && (in >> n)) {
                    cycleBreaks_.insert(n);
                    std::cout << "break at cycle " << n << "\n";
                } else if (what == "ge" && (in >> n)) {
                    geBreaks_.insert(uint32_t(n));
                    std::cout << "break on ge" << n << " issue\n";
                } else {
                    // `break N` shorthand for a cycle breakpoint.
                    char *end = nullptr;
                    const unsigned long long v =
                        std::strtoull(what.c_str(), &end, 10);
                    if (end && *end == '\0' && !what.empty()) {
                        cycleBreaks_.insert(v);
                        std::cout << "break at cycle " << v << "\n";
                    } else {
                        std::cout
                            << "usage: break cycle N | break ge G\n";
                    }
                }
                continue;
            }
            if (cmd == "watch") {
                std::string tok;
                uint32_t addr = 0;
                if ((in >> tok) && parseWire(tok, addr)) {
                    watches_.insert(addr);
                    std::cout << "watch w" << addr << "\n";
                } else {
                    std::cout << "usage: watch wN\n";
                }
                continue;
            }
            if (cmd == "queues") {
                printQueues();
                continue;
            }
            if (cmd == "disasm") {
                printDisasm();
                continue;
            }
            if (cmd == "where") {
                printWhere();
                continue;
            }
            if (cmd == "stats") {
                printStats();
                continue;
            }
            if (cmd == "lint") {
                printLint();
                continue;
            }
            if (cmd == "dump") {
                std::string file;
                in >> file;
                dumpRepro(file);
                continue;
            }
            if (cmd == "help" || cmd == "h" || cmd == "?") {
                usage(std::cout);
                continue;
            }
            if (cmd == "quit" || cmd == "q" || cmd == "exit") {
                aborted_ = true;
                return false;
            }
            std::cout << "unknown command '" << cmd
                      << "' (try help)\n";
        }
    }

    void
    printQueues()
    {
        if (!haveView_) {
            std::cout << "no cycles simulated yet\n";
            return;
        }
        std::cout << "cycle " << view_.cycle << "\n";
        std::cout << "  ge   instrQ          tableQ         oorQ      "
                     "     stream\n";
        for (size_t g = 0; g < view_.ges.size(); ++g) {
            const GeQueueView &q = view_.ges[g];
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "  %2zu   %4llu/%-4llu      %4llu/%-4llu   "
                          "  %4llu/%-4llu      %llu/%llu",
                          g, (unsigned long long)q.instrReady,
                          (unsigned long long)q.instrCapacity,
                          (unsigned long long)q.tableReady,
                          (unsigned long long)q.tableCapacity,
                          (unsigned long long)q.oorReady,
                          (unsigned long long)q.oorCapacity,
                          (unsigned long long)q.streamPos,
                          (unsigned long long)q.streamLen);
            std::cout << buf << "\n";
        }
        std::cout << "  sww bank grants:";
        for (uint8_t b : view_.bankAccesses)
            std::cout << ' ' << unsigned(b);
        std::cout << "\n  write buffer: " << view_.pendingWriteBytes
                  << " bytes pending\n";
    }

    void
    printDisasm()
    {
        if (!haveView_) {
            std::cout << "no cycles simulated yet\n";
            return;
        }
        for (size_t g = 0; g < view_.ges.size(); ++g) {
            const uint32_t idx = view_.ges[g].nextInstr;
            std::cout << "  ge" << g << ": ";
            if (idx == kNoInstr) {
                std::cout << "(stream complete)\n";
            } else {
                std::cout << "#" << idx << ": "
                          << toString(prog_.instrs[idx],
                                      prog_.outputAddrOf(idx))
                          << "\n";
            }
        }
    }

    void
    printWhere()
    {
        if (!haveView_) {
            std::cout << "no cycles simulated yet\n";
            return;
        }
        std::cout << "cycle " << view_.cycle << "\n";
        for (size_t g = 0; g < view_.ges.size(); ++g)
            std::cout << "  ge" << g << ": instruction "
                      << view_.ges[g].streamPos << " of "
                      << view_.ges[g].streamLen << "\n";
    }

    void
    printStats()
    {
        if (!haveView_ || view_.stats == nullptr) {
            std::cout << "no statistics yet\n";
            return;
        }
        const SimStats &st = *view_.stats;
        std::cout << "  issued: " << st.instructions << " ("
                  << st.andOps << " AND, " << st.xorOps << " XOR, "
                  << st.notOps << " NOT)\n"
                  << "  traffic: " << st.totalTrafficBytes()
                  << " bytes (" << st.wireTrafficBytes() << " wires)\n"
                  << "  oor reads: " << st.oorReads << "\n"
                  << "  stalls: operand=" << st.stallOperand
                  << " instrq=" << st.stallInstrQueue
                  << " tableq=" << st.stallTableQueue
                  << " oorwq=" << st.stallOorwQueue
                  << " bank=" << st.stallBank
                  << " wbuf=" << st.stallWriteBuffer << "\n";
    }

    void
    printLint()
    {
        LintOptions opts;
        opts.swwWires = cfg_.swwWires();
        opts.streams = &streams_;
        if (!instrLines_.empty())
            opts.instrLines = &instrLines_;
        const LintReport rep = verifyProgram(prog_, opts);
        for (const Diagnostic &d : rep.diags)
            std::cout << "  " << formatDiagnostic(d, srcName_) << "\n";
        std::cout << "  lint: " << rep.summary();
        if (rep.wasteBytes > 0)
            std::cout << " (" << rep.wasteBytes
                      << " avoidable DRAM bytes)";
        std::cout << "\n";
    }

    void
    dumpRepro(std::string file)
    {
        if (file.empty())
            file = "haac_dbg_dump.haac";
        std::ostringstream os;
        os << "; haac_dbg repro dump";
        if (!srcName_.empty())
            os << " of " << srcName_;
        os << "\n";
        if (haveView_) {
            os << "; stopped at cycle " << view_.cycle
               << "; per-GE stream positions:";
            for (size_t g = 0; g < view_.ges.size(); ++g)
                os << " ge" << g << "=" << view_.ges[g].streamPos
                   << "/" << view_.ges[g].streamLen;
            os << "\n";
        }
        os << "; config: ges=" << cfg_.numGes
           << " sww_wires=" << cfg_.swwWires()
           << " banks_per_ge=" << cfg_.banksPerGe << " role="
           << (cfg_.role == Role::Garbler ? "garbler" : "evaluator")
           << "\n";
        os << toAsm(prog_);
        const std::vector<bool> expect =
            executePlain(prog_, garblerBits_, evaluatorBits_);
        auto bits = [](const std::vector<bool> &v) {
            std::string s;
            s.reserve(v.size());
            for (bool b : v)
                s.push_back(b ? '1' : '0');
            return s;
        };
        os << ".test garbler=" << bits(garblerBits_)
           << " evaluator=" << bits(evaluatorBits_)
           << " expect=" << bits(expect) << "\n";

        std::ofstream out(file, std::ios::binary);
        if (!out) {
            std::cout << "cannot write " << file << "\n";
            return;
        }
        out << os.str();
        std::cout << "dumped " << prog_.instrs.size()
                  << " instructions + .test vector to " << file
                  << "\n";
    }

    const HaacProgram &prog_;
    const HaacConfig cfg_;
    const StreamSet &streams_;
    std::vector<bool> garblerBits_;
    std::vector<bool> evaluatorBits_;
    std::vector<uint32_t> instrLines_;
    std::string srcName_;
    bool batch_ = false;
    std::deque<std::string> scripted_;
    std::set<uint64_t> cycleBreaks_;
    std::set<uint32_t> geBreaks_;
    std::set<uint32_t> watches_;
    uint64_t steps_ = 0; ///< 0 on entry => prompt before cycle 1 ends
    bool freeRun_ = false;
    bool aborted_ = false;
    std::string stopReason_;
    SimProbeView view_;
    bool haveView_ = false;
};

int
fail(const std::string &msg)
{
    std::cerr << "haac_dbg: " << msg << "\n";
    return 1;
}

template <typename T>
T
number(const char *flag, const std::string &value)
{
    return flagNumber<T>("haac_dbg", flag, value);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;

    auto need = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc) {
            std::cerr << "haac_dbg: " << flag
                      << " needs an argument\n";
            std::exit(1);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(std::cout);
            return 0;
        } else if (a == "--list") {
            for (const std::string &n : vipNames())
                std::cout << n << "\n";
            return 0;
        } else if (a == "--workload") {
            opt.workload = need(i, "--workload");
        } else if (a == "--paper-scale") {
            opt.paperScale = true;
        } else if (a == "--reorder") {
            const std::string k = need(i, "--reorder");
            if (k == "baseline")
                opt.reorder = ReorderKind::Baseline;
            else if (k == "full")
                opt.reorder = ReorderKind::Full;
            else if (k == "segment")
                opt.reorder = ReorderKind::Segment;
            else
                return fail("unknown reorder kind '" + k + "'");
        } else if (a == "--no-esw") {
            opt.esw = false;
        } else if (a == "--ges") {
            opt.cfg.numGes = number<uint32_t>("--ges", need(i, "--ges"));
        } else if (a == "--sww-wires") {
            opt.cfg.swwBytes =
                size_t(number<uint32_t>("--sww-wires",
                                        need(i, "--sww-wires"))) *
                kLabelBytes;
        } else if (a == "--banks") {
            opt.cfg.banksPerGe =
                number<uint32_t>("--banks", need(i, "--banks"));
        } else if (a == "--role") {
            const std::string r = need(i, "--role");
            if (r == "garbler")
                opt.cfg.role = Role::Garbler;
            else if (r == "evaluator")
                opt.cfg.role = Role::Evaluator;
            else
                return fail("unknown role '" + r + "'");
        } else if (a == "--mode") {
            const std::string m = need(i, "--mode");
            if (m == "combined")
                opt.mode = SimMode::Combined;
            else if (m == "compute")
                opt.mode = SimMode::ComputeOnly;
            else if (m == "traffic")
                opt.mode = SimMode::TrafficOnly;
            else
                return fail("unknown mode '" + m + "'");
        } else if (a == "--break") {
            opt.cycleBreaks.push_back(
                number<uint64_t>("--break", need(i, "--break")));
        } else if (a == "--break-ge") {
            opt.geBreaks.push_back(
                number<uint32_t>("--break-ge", need(i, "--break-ge")));
        } else if (a == "--watch") {
            uint32_t addr = 0;
            if (!parseWire(need(i, "--watch"), addr))
                return fail("--watch expects wN");
            opt.watches.push_back(addr);
        } else if (a == "--batch") {
            opt.batch = true;
        } else if (a == "--functional") {
            opt.functional = true;
        } else if (a == "-x") {
            opt.scripted.push_back(need(i, "-x"));
        } else if (!a.empty() && a[0] == '-') {
            return fail("unknown option '" + a + "' (try --help)");
        } else {
            opt.asmFile = a;
        }
    }

    if (opt.workload.empty() && opt.asmFile.empty())
        return fail("nothing to run: pass --workload NAME or a "
                    ".haac file (try --help)");
    if (!opt.workload.empty() && !opt.asmFile.empty())
        return fail("pass either --workload or a .haac file, "
                    "not both");
    const std::string bad_config = opt.cfg.check();
    if (!bad_config.empty()) {
        std::cerr << "haac_dbg: bad config: " << bad_config << "\n";
        return 2;
    }

    // --- Load the program. ---
    HaacProgram prog;
    std::vector<bool> garblerBits, evaluatorBits;
    std::vector<AsmTestVector> tests;
    std::vector<uint32_t> instrLines;
    std::string srcName;
    if (!opt.workload.empty()) {
        Workload w;
        try {
            w = vipWorkload(opt.workload, opt.paperScale);
        } catch (const std::exception &ex) {
            return fail(std::string(ex.what()) +
                        " (try --list for names)");
        }
        CompileOptions copts;
        copts.reorder = opt.reorder;
        copts.esw = opt.esw;
        copts.swwWires = opt.cfg.swwWires();
        prog = compileProgram(assemble(w.netlist), copts);
        garblerBits = w.garblerBits;
        evaluatorBits = w.evaluatorBits;
        std::cout << "workload " << w.name << ": "
                  << prog.instrs.size() << " instructions ("
                  << prog.numAnd() << " AND), " << prog.numInputs
                  << " inputs, " << prog.outputs.size()
                  << " outputs\n";
    } else {
        const AsmResult r = parseAsmFile(opt.asmFile);
        if (!r.ok)
            return fail(opt.asmFile + ": " + r.error);
        prog = r.prog;
        tests = r.tests;
        instrLines = r.instrLines;
        srcName = opt.asmFile;
        garblerBits.assign(prog.numGarblerInputs, false);
        evaluatorBits.assign(prog.numEvaluatorInputs, false);
        if (!tests.empty()) {
            garblerBits = tests[0].garbler;
            evaluatorBits = tests[0].evaluator;
        }
        std::cout << opt.asmFile << ": " << prog.instrs.size()
                  << " instructions (" << prog.numAnd() << " AND), "
                  << prog.numInputs << " inputs, "
                  << prog.outputs.size() << " outputs\n";
    }

    const std::string bad = prog.check();
    if (!bad.empty())
        return fail("program fails check(): " + bad);

    const StreamSet streams = buildStreams(prog, opt.cfg);
    std::cout << "config: " << opt.cfg.numGes << " GEs, "
              << opt.cfg.swwWires() << "-wire SWW, "
              << opt.cfg.banksPerGe << " banks/GE, role "
              << (opt.cfg.role == Role::Garbler ? "garbler"
                                                : "evaluator")
              << ", " << streams.totalOor << " OoR reads\n";

    Debugger dbg(prog, opt, streams, garblerBits, evaluatorBits,
                 std::move(instrLines), std::move(srcName));
    const SimStats st =
        runSimulation(prog, opt.cfg, streams, opt.mode, &dbg);

    std::cout << (dbg.aborted() ? "\nrun abandoned at cycle "
                                : "\nrun complete: ")
              << st.cycles << (dbg.aborted() ? "" : " cycles") << ", "
              << st.instructions << "/" << prog.instrs.size()
              << " instructions, " << st.totalTrafficBytes()
              << " traffic bytes, utilization "
              << st.geUtilization() << "\n";

    if (opt.functional && !dbg.aborted()) {
        const FunctionalResult fr = runFunctional(
            prog, streams, opt.cfg, garblerBits, evaluatorBits);
        if (!fr.ok)
            return fail("functional machine: " + fr.error);
        std::cout << "functional machine: ok, outputs ";
        for (bool b : fr.outputs)
            std::cout << (b ? '1' : '0');
        std::cout << " (" << fr.oorPops << " OoRW pops, "
                  << fr.liveSpills << " live spills)\n";
        if (!tests.empty() && fr.outputs != tests[0].expect)
            return fail("functional outputs disagree with the "
                        "file's first .test expectation");
    }
    return dbg.aborted() ? 2 : 0;
}
