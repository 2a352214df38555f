#include "platform/host_cpu.h"

namespace haac {
namespace cpu {

namespace {

uint32_t
readHostFeatures()
{
    uint32_t f = 0;
#if defined(HAAC_USE_AESNI) || defined(HAAC_USE_PCLMUL) ||                  \
    defined(HAAC_USE_VAES) || defined(HAAC_USE_IFMA)
    // This runs before the static constructor that would otherwise
    // have initialized the CPU model.
    __builtin_cpu_init();
    const bool avx512 = __builtin_cpu_supports("avx512f");
    if (__builtin_cpu_supports("aes") && __builtin_cpu_supports("ssse3"))
        f |= kAesni;
    if (__builtin_cpu_supports("pclmul"))
        f |= kPclmul;
    if (avx512 && __builtin_cpu_supports("vaes") &&
        __builtin_cpu_supports("avx512bw"))
        f |= kVaes;
    if (avx512 && __builtin_cpu_supports("avx512ifma"))
        f |= kIfma;
#endif
    return f & kCompiled;
}

} // namespace

// Set ahead of every default-priority static constructor, so no kernel
// that one of them reaches sees the features unread.
std::atomic<uint32_t> detail::features
    __attribute__((init_priority(101))){readHostFeatures()};

ScopedMask::ScopedMask(uint32_t clear) : saved_(features())
{
    detail::features.store(saved_ & ~clear, std::memory_order_relaxed);
}

ScopedMask::~ScopedMask()
{
    detail::features.store(saved_, std::memory_order_relaxed);
}

} // namespace cpu
} // namespace haac
