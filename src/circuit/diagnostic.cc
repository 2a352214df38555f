#include "circuit/diagnostic.h"

#include <iterator>
#include <sstream>
#include <utility>

namespace haac {

namespace {

/** Per code, in DiagCode order: its name and its site's noun. */
struct CodeInfo
{
    const char *name;
    const char *noun; ///< null: the site is not printed
};

constexpr CodeInfo kCodes[] = {
    {"sentinel-operand", "instruction"},
    {"use-before-def", "gate"},
    {"nop-output-read", "instruction"},
    {"tweak-reuse", "instruction"},
    {"input-split", "instruction"},
    {"const-one", "instruction"},
    {"undefined-output", "instruction"},
    {"output-not-live", "instruction"},
    {"dropped-live-bit", "instruction"},
    {"stream-coverage", "instruction"},
    {"stream-oor-mismatch", "instruction"},
    {"stream-table-count", "instruction"},
    {"shard-manifest", "instruction"},
    {"shard-import-missing", "instruction"},
    {"shard-export-missing", "instruction"},
    {"shard-export-dead", "instruction"},
    {"liveness-waste", "instruction"},
    {"noncanonical-operand", "instruction"},
    {"stray-tweak", "instruction"},
    {"shard-import-unused", "instruction"},
    {"shard-export-unused", "instruction"},
    {"wire-out-of-range", "gate"},
    {"multiply-driven", "gate"},
    {"dangling-output", "output"},
    {"input-shape", nullptr},
    {"plan-shape", "node"},
    {"port-width-mismatch", "node"},
    {"plan-input-range", "node"},
    {"link-order", "node"},
    {"port-range", "node"},
    {"link-tweak-reuse", "link"},
    {"link-tweak-domain", "link"},
    {"dead-gate", "gate"},
    {"unused-input", "input"},
    {"constant-cone", "gate"},
    {"duplicate-gate", "gate"},
    {"inert-output", "output"},
    {"dead-node", "node"},
    {"unused-plan-input", "input"},
};
static_assert(std::size(kCodes) == size_t(DiagCode::UnusedPlanInput) + 1,
              "one kCodes row per DiagCode");

constexpr const char *kSeverities[] = {"error", "warning", "note"};

} // namespace

const char *
diagCodeName(DiagCode code)
{
    return kCodes[size_t(code)].name;
}

const char *
severityName(Severity sev)
{
    return kSeverities[size_t(sev)];
}

void
DiagReport::add(Diagnostic d)
{
    switch (d.severity) {
    case Severity::Error:
        ++errors;
        break;
    case Severity::Warning:
        ++warnings;
        break;
    case Severity::Note:
        ++notes;
        break;
    }
    diags.push_back(std::move(d));
}

void
DiagReport::merge(DiagReport other)
{
    diags.reserve(diags.size() + other.diags.size());
    for (Diagnostic &d : other.diags)
        add(std::move(d));
}

std::string
DiagReport::summary() const
{
    std::ostringstream os;
    os << errors << (errors == 1 ? " error, " : " errors, ") << warnings
       << (warnings == 1 ? " warning" : " warnings");
    if (notes > 0)
        os << ", " << notes << (notes == 1 ? " note" : " notes");
    return os.str();
}

std::string
DiagReport::firstError() const
{
    for (const Diagnostic &d : diags)
        if (d.severity == Severity::Error)
            return d.message;
    return "";
}

bool
DiagReport::has(DiagCode code) const
{
    for (const Diagnostic &d : diags)
        if (d.code == code)
            return true;
    return false;
}

std::string
formatDiagnostic(const Diagnostic &diag, const std::string &file)
{
    std::ostringstream os;
    if (!file.empty()) {
        os << file << ':';
        if (diag.line > 0)
            os << diag.line << ':';
        os << ' ';
    } else if (diag.line > 0) {
        os << "line " << diag.line << ": ";
    }
    os << severityName(diag.severity) << '[' << diagCodeName(diag.code)
       << "]: " << diag.message;
    const char *noun = kCodes[size_t(diag.code)].noun;
    if (noun != nullptr && diag.site != kNoSite && diag.line == 0)
        os << " (" << noun << " #" << diag.site << ')';
    return os.str();
}

} // namespace haac
