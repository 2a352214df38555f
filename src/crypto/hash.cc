#include "crypto/hash.h"

namespace haac {

Label
tweakKey(uint64_t tweak)
{
    return Label(tweak, tweak ^ kTweakKeyDomain);
}

Label
hashRekeyed(const Label &x, uint64_t tweak)
{
    Aes128 aes(tweakKey(tweak));
    return aes.encryptBlock(x) ^ x;
}

void
hashRekeyedPair(uint64_t j0, uint64_t j1, const Label x0[], Label y0[],
                const Label x1[], Label y1[], int n)
{
    aesMmoPair(tweakKey(j0), tweakKey(j1), x0, y0, x1, y1, n);
}

namespace {

Label
fixedGlobalKey()
{
    return Label(0x7061706572484141ull, 0x4341534963613233ull);
}

/** sigma(x): swap-and-double linear orthomorphism (EMP-style). */
Label
sigma(const Label &x)
{
    return Label(x.hi ^ x.lo, x.hi);
}

} // namespace

FixedKeyHasher::FixedKeyHasher() : aes_(fixedGlobalKey()) {}

Label
FixedKeyHasher::operator()(const Label &x, uint64_t tweak) const
{
    Label t = sigma(x) ^ Label(tweak, 0);
    return aes_.encryptBlock(t) ^ t;
}

} // namespace haac
