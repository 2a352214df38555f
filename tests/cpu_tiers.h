/**
 * @file
 * Every kernel tier the host can run, for the goldens (test_crypto,
 * test_gc, test_ot, test_serve): a golden that holds under each tier
 * holds the portable code and every accelerated kernel to one set of
 * bytes on one host.
 */
#ifndef HAAC_TESTS_CPU_TIERS_H
#define HAAC_TESTS_CPU_TIERS_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "platform/host_cpu.h"

namespace haac {
namespace golden {

/** "aesni pclmul vaes ifma", or "portable" for no feature. */
inline std::string
tierName(uint32_t features)
{
    static const struct
    {
        uint32_t bit;
        const char *name;
    } kNames[] = {{cpu::kAesni, "aesni"},
                  {cpu::kPclmul, "pclmul"},
                  {cpu::kVaes, "vaes"},
                  {cpu::kIfma, "ifma"}};
    std::string out;
    for (const auto &n : kNames)
        if (features & n.bit)
            out += out.empty() ? n.name : std::string(" ") + n.name;
    return out.empty() ? "portable" : out;
}

/**
 * Run @p body under the host's own features, with each feature cleared
 * on its own, and with all of them cleared; a mask that leaves the
 * same features as an earlier one is not run again. Failures name the
 * tier they ran on.
 */
template <class Body>
void
forEachCpuTier(Body &&body)
{
    std::vector<uint32_t> ran;
    for (uint32_t clear : {0u, uint32_t(cpu::kAesni), uint32_t(cpu::kPclmul),
                           uint32_t(cpu::kVaes), uint32_t(cpu::kIfma),
                           ~0u}) {
        cpu::ScopedMask mask(clear);
        const uint32_t tier = cpu::features();
        if (std::find(ran.begin(), ran.end(), tier) != ran.end())
            continue;
        ran.push_back(tier);
        SCOPED_TRACE("kernel tier: " + tierName(tier));
        body();
    }
}

} // namespace golden
} // namespace haac

#endif // HAAC_TESTS_CPU_TIERS_H
