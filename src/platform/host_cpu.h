/**
 * @file
 * The host CPU's kernel features, read once: the one place the crypto
 * and GC code learns which instruction sets it may use.
 *
 * A feature bit means "this build carries the kernels and this CPU
 * runs them". The CMake probes define HAAC_USE_AESNI, HAAC_USE_PCLMUL,
 * HAAC_USE_VAES and HAAC_USE_IFMA for the whole library, and one CPUID
 * read before main() fills in the rest. has() is one load, and folds
 * to false for a feature the build lacks.
 */
#ifndef HAAC_PLATFORM_HOST_CPU_H
#define HAAC_PLATFORM_HOST_CPU_H

#include <atomic>
#include <cstdint>

namespace haac {
namespace cpu {

enum Feature : uint32_t
{
    kAesni = 1u << 0,  ///< aes + ssse3: crypto/aes128.cc
    kPclmul = 1u << 1, ///< pclmul: crypto/gf128.cc
    kVaes = 1u << 2,   ///< vaes + avx512f + avx512bw: gc/key_stream.h
    kIfma = 1u << 3,   ///< avx512f + avx512ifma: crypto/curve25519.cc
};

/** The features whose kernels this build compiled in. */
inline constexpr uint32_t kCompiled = 0
#if defined(HAAC_USE_AESNI)
                                      | kAesni
#endif
#if defined(HAAC_USE_PCLMUL)
                                      | kPclmul
#endif
#if defined(HAAC_USE_VAES)
                                      | kVaes
#endif
#if defined(HAAC_USE_IFMA)
                                      | kIfma
#endif
    ;

namespace detail {
extern std::atomic<uint32_t> features;
} // namespace detail

/** The Feature bits the kernels may use now. */
inline uint32_t
features()
{
    return detail::features.load(std::memory_order_relaxed);
}

/** Whether the kernels of @p f are compiled in and may run. */
inline bool
has(Feature f)
{
    return (kCompiled & f) != 0 && (features() & f) != 0;
}

/**
 * Test-only: clears the @p clear bits from features() until it goes
 * out of scope, so the lower kernel tiers run on a host that has the
 * higher ones. It cannot set a bit. Use it while no other thread runs
 * a kernel.
 */
class ScopedMask
{
  public:
    explicit ScopedMask(uint32_t clear);
    ScopedMask(const ScopedMask &) = delete;
    ScopedMask &operator=(const ScopedMask &) = delete;
    ~ScopedMask();

  private:
    uint32_t saved_;
};

} // namespace cpu
} // namespace haac

#endif // HAAC_PLATFORM_HOST_CPU_H
