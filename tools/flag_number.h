/**
 * @file
 * Whole-token decimal flag values for the command-line tools.
 *
 * strtoul reads "abc" as 0 and "12x" as 12, so a typo silently becomes
 * another setting (a port of 0 binds an ephemeral port). haac_server,
 * haac_lint and haac_dbg read every numeric flag here instead: the
 * whole token must be a decimal number that fits the flag's type, or
 * the tool exits 2 naming the flag.
 */
#ifndef HAAC_TOOLS_FLAG_NUMBER_H
#define HAAC_TOOLS_FLAG_NUMBER_H

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

namespace haac {

/** @p value of @p tool's @p flag as a T; anything else exits 2. */
template <typename T>
T
flagNumber(const char *tool, const std::string &flag,
           const std::string &value)
{
    static_assert(std::is_unsigned_v<T>, "the message names [0, max]");
    const char *const first = value.data();
    const char *const last = first + value.size();
    T n = 0;
    const auto [end, ec] = std::from_chars(first, last, n);
    if (ec != std::errc() || end != last) {
        std::fprintf(stderr,
                     "%s: %s needs an integer in [0, %llu], got '%s'\n",
                     tool, flag.c_str(),
                     (unsigned long long)std::numeric_limits<T>::max(),
                     value.c_str());
        std::exit(2);
    }
    return n;
}

} // namespace haac

#endif // HAAC_TOOLS_FLAG_NUMBER_H
