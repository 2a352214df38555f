/**
 * @file
 * Bristol-format netlist I/O.
 *
 * The HAAC toolflow (paper Fig. 5) consumes netlists in the "old"
 * Bristol format that EMP emits: a header of gate/wire counts, an
 * input/output split, then one gate per line. The reader accepts
 * AND/XOR/INV/NOT/EQW gates and canonicalizes on load: INV becomes XOR
 * against the constant-one wire, EQW becomes wire aliasing, and wires
 * are renumbered so gate outputs are dense and in order (the invariant
 * the rest of the stack relies on).
 *
 * The reader makes one pass over a view of the text. Whitespace of any
 * kind separates tokens; a number is a token of decimal digits below
 * 2^64. The header is checked before anything is sized off it, and
 * may not declare more inputs than twice its gates (all a gate could
 * read); every gate line is read before the wire map is allocated.
 *
 * The lint-attaching overloads additionally run the circuit analyzer
 * (circuit/analyze.h) over the canonicalized netlist and record what
 * the canonicalization itself would otherwise hide: a Bristol file
 * wire written twice silently retargets later readers (last definition
 * wins in the wire map), which surfaces as a MultiplyDriven error
 * diagnostic. Lints are *attached, not enforced* — parsing succeeds so
 * callers (the server admission gate, haac_lint netlist) decide the
 * policy; only unrecoverable text-level failures still throw.
 */
#ifndef HAAC_CIRCUIT_BRISTOL_H
#define HAAC_CIRCUIT_BRISTOL_H

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "circuit/analyze.h"
#include "circuit/netlist.h"

namespace haac {

/** The declared gate and wire counts, and the offset just past them. */
struct BristolHeader
{
    uint64_t gates = 0, wires = 0;
    size_t end = 0;
};

/** The counts opening @p text (what the reader starts with), so a
 *  caller can cap them before parsing; nullopt when they are missing. */
std::optional<BristolHeader> readBristolHeader(std::string_view text);

/**
 * Parse an old-format Bristol circuit. Throws std::runtime_error.
 * Lint-attaching parse: with a non-null @p lints, merge the
 * canonicalized netlist's analyzer report (under @p lint_opts) plus
 * parse-level MultiplyDriven findings into it. Text-level failures
 * still throw.
 */
Netlist readBristol(std::string_view text,
                    CircuitLintReport *lints = nullptr,
                    const CircuitLintOptions &lint_opts = {});

/** readBristol over a file's contents, and over a string. */
Netlist readBristolFile(const std::string &path,
                        CircuitLintReport *lints = nullptr);
Netlist readBristolString(const std::string &text);
Netlist readBristolString(const std::string &text,
                          CircuitLintReport *lints);

/** Serialize a canonical netlist to the old Bristol format. */
void writeBristol(const Netlist &netlist, std::ostream &out);
std::string writeBristolString(const Netlist &netlist);

} // namespace haac

#endif // HAAC_CIRCUIT_BRISTOL_H
