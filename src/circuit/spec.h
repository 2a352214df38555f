/**
 * @file
 * The one "Name:N" grammar: the server's workload families
 * ("Million:32"), the chained workloads ("ChainMillSum:8") and
 * "host:port" endpoints. N is
 * [1-9][0-9]* up to a bound the caller gives, so an accepted spec is
 * the one spelling of its circuit (a fit cache or pool key) and no N
 * wraps around 32 bits.
 */
#ifndef HAAC_CIRCUIT_SPEC_H
#define HAAC_CIRCUIT_SPEC_H

#include <cstdint>
#include <optional>
#include <string_view>

namespace haac {

/** @p digits as N when [1-9][0-9]* and at most @p max, else 0. */
inline uint32_t
parseSpecSize(std::string_view digits, uint32_t max)
{
    if (digits.empty() || digits[0] == '0')
        return 0;
    uint64_t n = 0;
    for (const char c : digits) {
        if (c < '0' || c > '9')
            return 0;
        n = n * 10 + uint64_t(c - '0');
        if (n > max)
            return 0;
    }
    return uint32_t(n);
}

/** A "Name:N" spec split at its last colon; size 0 = malformed N. */
struct SizedSpec
{
    std::string_view name;
    uint32_t size = 0;
};

/** Split @p spec (nullopt without a colon); the caller refuses size 0. */
inline std::optional<SizedSpec>
splitSizedSpec(std::string_view spec, uint32_t max)
{
    const size_t colon = spec.rfind(':');
    if (colon == std::string_view::npos)
        return std::nullopt;
    return SizedSpec{spec.substr(0, colon),
                     parseSpecSize(spec.substr(colon + 1), max)};
}

} // namespace haac

#endif // HAAC_CIRCUIT_SPEC_H
