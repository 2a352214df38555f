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
#include <string>

#include "circuit/analyze.h"
#include "circuit/netlist.h"

namespace haac {

/** Parse an old-format Bristol circuit. Throws std::runtime_error. */
Netlist readBristol(std::istream &in);
Netlist readBristolFile(const std::string &path);
Netlist readBristolString(const std::string &text);

/**
 * Lint-attaching parse: on success, merge the canonicalized netlist's
 * full analyzer report plus parse-level MultiplyDriven findings into
 * @p lints (which must be non-null). Text-level failures still throw.
 */
Netlist readBristol(std::istream &in, CircuitLintReport *lints);
Netlist readBristolFile(const std::string &path,
                        CircuitLintReport *lints);
Netlist readBristolString(const std::string &text,
                          CircuitLintReport *lints);

/** Serialize a canonical netlist to the old Bristol format. */
void writeBristol(const Netlist &netlist, std::ostream &out);
std::string writeBristolString(const Netlist &netlist);

} // namespace haac

#endif // HAAC_CIRCUIT_BRISTOL_H
