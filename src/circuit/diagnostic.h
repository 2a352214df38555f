/**
 * @file
 * One diagnostic vocabulary for both static analyzers: the ISA
 * verifier (core/isa/verify.h) and the circuit analyzer
 * (circuit/analyze.h).
 *
 * A finding is a stable kebab-case code, a severity, the site it is
 * about (instruction, gate, output, plan node, link or input index),
 * the wire involved, an optional 1-based source line and a message.
 * The compiler, the assembler, the conformance harness, the Bristol
 * reader, Session, the server's upload gate, haac_dbg and haac_lint
 * all report through these types. The code table is documented in
 * docs/ARCHITECTURE.md.
 */
#ifndef HAAC_CIRCUIT_DIAGNOSTIC_H
#define HAAC_CIRCUIT_DIAGNOSTIC_H

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/netlist.h"

namespace haac {

/** Severity of one diagnostic. */
enum class Severity
{
    Error,   ///< running it would diverge, crash, or leak — reject it
    Warning, ///< legal but wasteful, fragile or suspicious
    Note,    ///< context attached to a preceding diagnostic
};

/**
 * Stable diagnostic codes: the ISA verifier's, then the circuit
 * analyzer's, each severity-major as in docs/ARCHITECTURE.md.
 * diagCodeName() gives the spelling tools print and tests grep for.
 */
enum class DiagCode
{
    // --- ISA errors -------------------------------------------------
    SentinelOperand,   ///< operand is w0, the reserved OoRW sentinel
    UseBeforeDef,      ///< operand at/after its own output (= cycle)
    NopOutputRead,     ///< operand or output reads a NOP's output wire
    TweakReuse,        ///< two ANDs share a Half-Gate tweak (security)
    InputSplit,        ///< garbler+evaluator counts don't fit numInputs
    ConstOne,          ///< .const_one discipline violated
    UndefinedOutput,   ///< program output w0 or past the address space
    OutputNotLive,     ///< program output's producer is not live
    DroppedLiveBit,    ///< off-window read of a dead producer
    StreamCoverage,    ///< GE streams don't partition the program
    StreamOorMismatch, ///< OoRW rewrite/pop order wrong for the window
    StreamTableCount,  ///< per-GE table count != its AND count
    ShardManifestBad,  ///< manifest malformed (sizes, ownership)
    ShardImportMissing,///< cross-shard read absent from consumer imports
    ShardExportMissing,///< cross-shard read absent from producer exports
    ShardExportDead,   ///< exported wire's producer is not live
    // --- ISA warnings -----------------------------------------------
    LivenessWaste,     ///< live bit nobody reads off-window (DRAM waste)
    NoncanonicalOperand,///< NOT/NOP with b != a (breaks round-trip ==)
    StrayTweak,        ///< non-zero tweak on a non-AND instruction
    ShardImportUnused, ///< import entry no instruction justifies
    ShardExportUnused, ///< export entry no other shard imports
    // --- circuit errors (UseBeforeDef above is shared) --------------
    WireOutOfRange,    ///< operand past the netlist's address space
    MultiplyDriven,    ///< Bristol file wire written more than once
    DanglingOutput,    ///< output names an undefined wire or port
    InputShape,        ///< input counts overflow / constOne misplaced
    PlanShape,         ///< plan node/source/output lists malformed
    PortWidthMismatch, ///< source list size != component input bits
    PlanInputRange,    ///< source names an undeclared plan input
    LinkOrder,         ///< link names a non-earlier node (= cycle)
    PortRange,         ///< link names a nonexistent output bit
    LinkTweakReuse,    ///< two links share a CLNK tweak (security)
    LinkTweakDomain,   ///< link tweak outside the CLNK domain
    // --- circuit warnings -------------------------------------------
    DeadGate,          ///< gate cannot reach any primary output
    UnusedInput,       ///< declared input nobody reads
    ConstantCone,      ///< gate output statically constant
    DuplicateGate,     ///< structural duplicate (optimizer-mergeable)
    InertOutput,       ///< output with no evaluator-input dependence
    DeadNode,          ///< plan node feeding no output or later node
    UnusedPlanInput,   ///< declared plan input no source names
};

/** Kebab-case code name, e.g. "tweak-reuse". */
const char *diagCodeName(DiagCode code);

/** "error" / "warning" / "note". */
const char *severityName(Severity sev);

/** Sentinel for diagnostics not tied to one site. */
inline constexpr uint32_t kNoSite = ~uint32_t(0);

/** One structured finding. */
struct Diagnostic
{
    DiagCode code = DiagCode::UseBeforeDef;
    Severity severity = Severity::Error;

    /**
     * Site index, or kNoSite: the instruction for ISA codes; the gate,
     * output, plan node, link or input for circuit codes.
     */
    uint32_t site = kNoSite;

    /** Wire involved (kNoWire, or kOorAddr for ISA codes, when none). */
    uint32_t wire = kNoWire;

    /** 1-based source line when the caller supplied a map. */
    uint32_t line = 0;

    std::string message;
};

/** Diagnostics plus their per-severity counts. */
struct DiagReport
{
    std::vector<Diagnostic> diags;
    uint32_t errors = 0;
    uint32_t warnings = 0;
    uint32_t notes = 0;

    /** Append @p d and count it under its severity. */
    void add(Diagnostic d);

    /** Append every diagnostic of @p other, counted. */
    void merge(DiagReport other);

    /** No errors (warnings allowed). */
    bool clean() const { return errors == 0; }

    /** "2 errors, 1 warning" (never empty). */
    std::string summary() const;

    /** First error's message, or "" when clean. */
    std::string firstError() const;

    /** True if any diagnostic carries @p code. */
    bool has(DiagCode code) const;
};

/**
 * One diagnostic as a compiler-style line:
 * "file.haac:12: error[tweak-reuse]: ..." or
 * "adder.txt: error[use-before-def]: ... (gate #12)". The file and
 * line are elided when unknown; without a line, the site is appended
 * with the noun its code's scope implies.
 */
std::string formatDiagnostic(const Diagnostic &diag,
                             const std::string &file = std::string());

} // namespace haac

#endif // HAAC_CIRCUIT_DIAGNOSTIC_H
