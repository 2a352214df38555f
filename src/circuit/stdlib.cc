#include "circuit/stdlib.h"

#include <cassert>

namespace haac {

SumCarry
addWithCarry(CircuitBuilder &cb, const Bits &a, const Bits &b,
             Wire carry_in)
{
    assert(a.size() == b.size());
    Bits sum(a.size());
    Wire c = carry_in;
    for (size_t i = 0; i < a.size(); ++i) {
        Wire axc = cb.xorGate(a[i], c);
        Wire bxc = cb.xorGate(b[i], c);
        sum[i] = cb.xorGate(axc, b[i]);
        // Majority(a, b, c) with one AND: (a^c)&(b^c) ^ c.
        c = cb.xorGate(cb.andGate(axc, bxc), c);
    }
    return {std::move(sum), c};
}

Bits
addBits(CircuitBuilder &cb, const Bits &a, const Bits &b)
{
    return addWithCarry(cb, a, b, cb.constant(false)).sum;
}

Bits
addBitsKoggeStone(CircuitBuilder &cb, const Bits &a, const Bits &b)
{
    assert(a.size() == b.size());
    const uint32_t n = uint32_t(a.size());
    if (n == 0)
        return {};
    Bits g(n), p(n), p0(n);
    for (uint32_t i = 0; i < n; ++i) {
        g[i] = cb.andGate(a[i], b[i]);
        p[i] = cb.xorGate(a[i], b[i]);
        p0[i] = p[i];
    }
    // Prefix combine: after all rounds, g[i] is the carry out of
    // bits [0, i]. Descending update keeps each round reading the
    // previous round's values.
    for (uint32_t shift = 1; shift < n; shift <<= 1) {
        for (uint32_t i = n; i-- > shift;) {
            g[i] = cb.xorGate(g[i],
                              cb.andGate(p[i], g[i - shift]));
            p[i] = cb.andGate(p[i], p[i - shift]);
        }
    }
    Bits sum(n);
    sum[0] = p0[0];
    for (uint32_t i = 1; i < n; ++i)
        sum[i] = cb.xorGate(p0[i], g[i - 1]);
    return sum;
}

Bits
subBits(CircuitBuilder &cb, const Bits &a, const Bits &b)
{
    return addWithCarry(cb, a, notBits(cb, b), cb.constant(true)).sum;
}

Bits
andBits(CircuitBuilder &cb, const Bits &a, const Bits &b)
{
    assert(a.size() == b.size());
    Bits out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = cb.andGate(a[i], b[i]);
    return out;
}

Bits
xorBits(CircuitBuilder &cb, const Bits &a, const Bits &b)
{
    assert(a.size() == b.size());
    Bits out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = cb.xorGate(a[i], b[i]);
    return out;
}

Bits
notBits(CircuitBuilder &cb, const Bits &a)
{
    Bits out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = cb.notGate(a[i]);
    return out;
}

Bits
mulBits(CircuitBuilder &cb, const Bits &a, const Bits &b,
        uint32_t out_width)
{
    Bits acc(out_width, cb.constant(false));
    for (size_t j = 0; j < b.size() && j < out_width; ++j) {
        // Row j: (a & b[j]) << j, truncated to out_width.
        Bits row(out_width, cb.constant(false));
        for (size_t i = 0; i + j < out_width && i < a.size(); ++i)
            row[i + j] = cb.andGate(a[i], b[j]);
        acc = addBits(cb, acc, row);
    }
    return acc;
}

Wire
ltUnsigned(CircuitBuilder &cb, const Bits &a, const Bits &b)
{
    assert(a.size() == b.size());
    // Borrow chain of a - b; borrow-out == (a < b).
    // borrow' = Majority(~a, b, borrow) = ((~a)^bw)&(b^bw) ^ bw.
    Wire bw = cb.constant(false);
    for (size_t i = 0; i < a.size(); ++i) {
        Wire nax = cb.xorGate(cb.notGate(a[i]), bw);
        Wire bx = cb.xorGate(b[i], bw);
        bw = cb.xorGate(cb.andGate(nax, bx), bw);
    }
    return bw;
}

Wire
ltSigned(CircuitBuilder &cb, const Bits &a, const Bits &b)
{
    assert(!a.empty() && a.size() == b.size());
    Wire ult = ltUnsigned(cb, a, b);
    Wire sa = a.back(), sb = b.back();
    // Signs differ: a < b iff a is negative. Else unsigned order holds.
    return cb.mux(cb.xorGate(sa, sb), sa, ult);
}

Wire
eqBits(CircuitBuilder &cb, const Bits &a, const Bits &b)
{
    assert(a.size() == b.size());
    Bits same(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        same[i] = cb.xnorGate(a[i], b[i]);
    return reduceAnd(cb, same);
}

Wire
reduceAnd(CircuitBuilder &cb, const Bits &a)
{
    if (a.empty())
        return cb.constant(true);
    // Balanced tree keeps depth logarithmic (helps ILP / levels).
    Bits cur = a;
    while (cur.size() > 1) {
        Bits next;
        for (size_t i = 0; i + 1 < cur.size(); i += 2)
            next.push_back(cb.andGate(cur[i], cur[i + 1]));
        if (cur.size() % 2)
            next.push_back(cur.back());
        cur = std::move(next);
    }
    return cur[0];
}

Wire
reduceOr(CircuitBuilder &cb, const Bits &a)
{
    if (a.empty())
        return cb.constant(false);
    Bits cur = a;
    while (cur.size() > 1) {
        Bits next;
        for (size_t i = 0; i + 1 < cur.size(); i += 2)
            next.push_back(cb.orGate(cur[i], cur[i + 1]));
        if (cur.size() % 2)
            next.push_back(cur.back());
        cur = std::move(next);
    }
    return cur[0];
}

Bits
muxBits(CircuitBuilder &cb, Wire s, const Bits &t, const Bits &f)
{
    assert(t.size() == f.size());
    Bits out(t.size());
    for (size_t i = 0; i < t.size(); ++i)
        out[i] = cb.mux(s, t[i], f[i]);
    return out;
}

Bits
shlConst(CircuitBuilder &cb, const Bits &a, uint32_t k)
{
    Bits out(a.size(), cb.constant(false));
    for (size_t i = 0; i + k < a.size(); ++i)
        out[i + k] = a[i];
    return out;
}

Bits
shrConst(CircuitBuilder &cb, const Bits &a, uint32_t k)
{
    Bits out(a.size(), cb.constant(false));
    for (size_t i = k; i < a.size(); ++i)
        out[i - k] = a[i];
    return out;
}

Bits
shrVar(CircuitBuilder &cb, const Bits &a, const Bits &amt)
{
    Bits cur = a;
    // Stages for shift bits that matter; larger bits force zero.
    uint32_t useful = 0;
    while ((1u << useful) < cur.size())
        ++useful;
    for (uint32_t s = 0; s < amt.size() && s < useful; ++s) {
        Bits shifted = shrConst(cb, cur, 1u << s);
        cur = muxBits(cb, amt[s], shifted, cur);
    }
    if (amt.size() > useful) {
        Bits high(amt.begin() + useful, amt.end());
        Wire oob = reduceOr(cb, high);
        Bits zero(cur.size(), cb.constant(false));
        cur = muxBits(cb, oob, zero, cur);
    }
    return cur;
}

Bits
zeroExtend(CircuitBuilder &cb, const Bits &a, uint32_t width)
{
    Bits out = a;
    out.resize(width, cb.constant(false));
    if (out.size() > width)
        out.resize(width);
    return out;
}

Bits
popcount(CircuitBuilder &cb, const Bits &a)
{
    if (a.empty())
        return Bits{cb.constant(false)};
    // Pairwise adder tree over growing widths.
    std::vector<Bits> words;
    words.reserve(a.size());
    for (Wire w : a)
        words.push_back(Bits{w});
    while (words.size() > 1) {
        std::vector<Bits> next;
        for (size_t i = 0; i + 1 < words.size(); i += 2) {
            uint32_t w = uint32_t(words[i].size()) + 1;
            Bits x = zeroExtend(cb, words[i], w);
            Bits y = zeroExtend(cb, words[i + 1], w);
            next.push_back(addBits(cb, x, y));
        }
        if (words.size() % 2)
            next.push_back(words.back());
        words = std::move(next);
    }
    return words[0];
}

Bits
reluBits(CircuitBuilder &cb, const Bits &a)
{
    assert(!a.empty());
    Wire keep = cb.notGate(a.back());
    Bits out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = cb.andGate(a[i], keep);
    return out;
}

void
condSwap(CircuitBuilder &cb, Wire c, Bits &a, Bits &b)
{
    assert(a.size() == b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        Wire d = cb.andGate(c, cb.xorGate(a[i], b[i]));
        a[i] = cb.xorGate(a[i], d);
        b[i] = cb.xorGate(b[i], d);
    }
}

} // namespace haac
