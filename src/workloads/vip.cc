#include "workloads/vip.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "circuit/builder.h"
#include "circuit/float32.h"
#include "circuit/stdlib.h"
#include "crypto/prg.h"

namespace haac {

namespace {

/** Defeat dead-code elimination in plaintext kernels. */
volatile uint64_t g_sink; // NOLINT

void
sink(uint64_t v)
{
    g_sink = v;
}

void
appendWord(std::vector<bool> &bits, uint64_t v, uint32_t width)
{
    for (uint32_t i = 0; i < width; ++i)
        bits.push_back(((v >> i) & 1) != 0);
}

std::vector<uint32_t>
randomWords(uint64_t seed, size_t n)
{
    Prg prg(seed);
    std::vector<uint32_t> out(n);
    for (uint32_t &v : out)
        v = uint32_t(prg.nextU64());
    return out;
}

/** Split a word list across the two parties (garbler gets the front). */
void
splitWords(const std::vector<uint32_t> &vals, size_t garbler_count,
           uint32_t width, std::vector<bool> &gb, std::vector<bool> &eb)
{
    for (size_t i = 0; i < vals.size(); ++i) {
        appendWord(i < garbler_count ? gb : eb, vals[i], width);
    }
}

} // namespace

// ---------------------------------------------------------------------
// Bubble sort
// ---------------------------------------------------------------------

Workload
makeBubbleSort(uint32_t n, uint32_t width)
{
    Workload wl;
    wl.name = "BubbSt";
    wl.description = "bubble sort of " + std::to_string(n) + " " +
                     std::to_string(width) + "-bit words";

    CircuitBuilder cb;
    std::vector<Bits> words(n);
    const uint32_t half = n / 2;
    for (uint32_t i = 0; i < half; ++i)
        words[i] = cb.garblerInputs(width);
    for (uint32_t i = half; i < n; ++i)
        words[i] = cb.evaluatorInputs(width);

    for (uint32_t pass = 0; pass + 1 < n; ++pass) {
        for (uint32_t j = 0; j + 1 < n - pass; ++j) {
            Wire swap = ltSigned(cb, words[j + 1], words[j]);
            condSwap(cb, swap, words[j], words[j + 1]);
        }
    }
    for (const Bits &w : words)
        cb.addOutputs(w);
    wl.netlist = cb.build();

    // Truncate samples to the circuit width and sign-extend so the
    // reference sorts exactly what the circuit sees.
    std::vector<uint32_t> vals = randomWords(101, n);
    const uint64_t wmask =
        width >= 64 ? ~uint64_t(0) : (uint64_t(1) << width) - 1;
    const uint64_t sign = uint64_t(1) << (width - 1);
    std::vector<int32_t> signed_vals(n);
    for (uint32_t i = 0; i < n; ++i) {
        vals[i] = uint32_t(vals[i] & wmask);
        signed_vals[i] = int32_t(
            (vals[i] & sign) ? (uint64_t(vals[i]) | ~wmask) : vals[i]);
    }
    splitWords(vals, half, width, wl.garblerBits, wl.evaluatorBits);

    std::vector<int32_t> ref = signed_vals;
    std::sort(ref.begin(), ref.end());
    for (int32_t v : ref)
        appendWord(wl.expectedOutputs, uint64_t(uint32_t(v)) & wmask,
                   width);

    wl.plaintextKernel = [vals = signed_vals]() mutable {
        std::vector<int32_t> a(vals.begin(), vals.end());
        for (size_t pass = 0; pass + 1 < a.size(); ++pass) {
            for (size_t j = 0; j + 1 < a.size() - pass; ++j) {
                if (a[j + 1] < a[j])
                    std::swap(a[j], a[j + 1]);
            }
        }
        sink(uint64_t(uint32_t(a[0])));
    };
    return wl;
}

// ---------------------------------------------------------------------
// Dot product
// ---------------------------------------------------------------------

Workload
makeDotProduct(uint32_t n, uint32_t width)
{
    Workload wl;
    wl.name = "DotProd";
    wl.description = "dot product of two " + std::to_string(n) +
                     "-element vectors";

    CircuitBuilder cb;
    std::vector<Bits> a(n), b(n);
    for (uint32_t i = 0; i < n; ++i)
        a[i] = cb.garblerInputs(width);
    for (uint32_t i = 0; i < n; ++i)
        b[i] = cb.evaluatorInputs(width);

    Bits acc = constantBits(cb, width, 0);
    for (uint32_t i = 0; i < n; ++i)
        acc = addBits(cb, acc, mulBits(cb, a[i], b[i], width));
    cb.addOutputs(acc);
    wl.netlist = cb.build();

    std::vector<uint32_t> av = randomWords(202, n);
    std::vector<uint32_t> bv = randomWords(203, n);
    for (uint32_t v : av)
        appendWord(wl.garblerBits, v, width);
    for (uint32_t v : bv)
        appendWord(wl.evaluatorBits, v, width);

    uint32_t dot = 0;
    for (uint32_t i = 0; i < n; ++i)
        dot += av[i] * bv[i];
    appendWord(wl.expectedOutputs, dot, width);

    wl.plaintextKernel = [av, bv]() {
        uint32_t acc = 0;
        for (size_t i = 0; i < av.size(); ++i)
            acc += av[i] * bv[i];
        sink(acc);
    };
    return wl;
}

// ---------------------------------------------------------------------
// Mersenne Twister (MT19937)
// ---------------------------------------------------------------------

namespace {

constexpr uint32_t kMtN = 624;
constexpr uint32_t kMtM = 397;
constexpr uint32_t kMtMatrixA = 0x9908b0dfu;
constexpr uint32_t kMtInitMult = 1812433253u;

void
mtSeedRef(std::vector<uint32_t> &mt, uint32_t seed)
{
    mt.resize(kMtN);
    mt[0] = seed;
    for (uint32_t i = 1; i < kMtN; ++i)
        mt[i] = kMtInitMult * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i;
}

void
mtTwistRef(std::vector<uint32_t> &mt)
{
    for (uint32_t i = 0; i < kMtN; ++i) {
        const uint32_t y = (mt[i] & 0x80000000u) |
                           (mt[(i + 1) % kMtN] & 0x7fffffffu);
        uint32_t next = mt[(i + kMtM) % kMtN] ^ (y >> 1);
        if (y & 1)
            next ^= kMtMatrixA;
        mt[i] = next;
    }
}

uint32_t
mtTemperRef(uint32_t y)
{
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    y ^= y >> 18;
    return y;
}

} // namespace

namespace {

/**
 * AND a word against a *private* 32-bit mask (VIP-Bench treats
 * constants as encrypted values, so masked shifts cost real AND
 * gates — this is where Table 2's Merse AND% comes from).
 */
Bits
andPrivateMask(CircuitBuilder &cb, const Bits &word, const Bits &mask)
{
    return andBits(cb, word, mask);
}

struct MtMasks
{
    Bits matrixA;
    Bits temperB;
    Bits temperC;
};

Bits
mtTemperPrivate(CircuitBuilder &cb, Bits y, const MtMasks &m)
{
    y = xorBits(cb, y, shrConst(cb, y, 11));
    y = xorBits(cb, y, andPrivateMask(cb, shlConst(cb, y, 7),
                                      m.temperB));
    y = xorBits(cb, y, andPrivateMask(cb, shlConst(cb, y, 15),
                                      m.temperC));
    y = xorBits(cb, y, shrConst(cb, y, 18));
    return y;
}

} // namespace

Workload
makeMersenne(uint32_t outputs, bool seeded)
{
    if (seeded && outputs > kMtN)
        throw std::invalid_argument("mersenne: seeded caps at 624");
    Workload wl;
    wl.name = "Merse";
    wl.description = std::string("MT19937 (") +
                     (seeded ? "seeded init, public masks"
                             : "state input, private masks") +
                     "), " + std::to_string(outputs) + " draws";

    const uint32_t seed_val = 5489u; // std::mt19937 default
    CircuitBuilder cb;
    std::vector<Bits> mt(kMtN);
    MtMasks masks;
    if (seeded) {
        // Knuth init in-circuit; masks are public constants (folded).
        Bits seed = cb.garblerInputs(32);
        mt[0] = seed;
        const Bits mult = constantBits(cb, 32, kMtInitMult);
        for (uint32_t i = 1; i < kMtN; ++i) {
            Bits x = xorBits(cb, mt[i - 1], shrConst(cb, mt[i - 1], 30));
            x = mulBits(cb, x, mult, 32);
            mt[i] = addBits(cb, x, constantBits(cb, 32, i));
        }
        masks.matrixA = constantBits(cb, 32, kMtMatrixA);
        masks.temperB = constantBits(cb, 32, 0x9d2c5680u);
        masks.temperC = constantBits(cb, 32, 0xefc60000u);
    } else {
        // VIP-style: masks are private (Garbler-supplied) values and
        // the state is split between the parties.
        masks.matrixA = cb.garblerInputs(32);
        masks.temperB = cb.garblerInputs(32);
        masks.temperC = cb.garblerInputs(32);
        const uint32_t half = kMtN / 2;
        for (uint32_t i = 0; i < half; ++i)
            mt[i] = cb.garblerInputs(32);
        for (uint32_t i = half; i < kMtN; ++i)
            mt[i] = cb.evaluatorInputs(32);
    }

    // As many in-place twists as the draw count requires.
    const uint32_t twists = (outputs + kMtN - 1) / kMtN;
    uint32_t emitted = 0;
    for (uint32_t round = 0; round < twists; ++round) {
        for (uint32_t i = 0; i < kMtN; ++i) {
            const Bits &lo_src = mt[(i + 1) % kMtN];
            Bits y(32);
            for (uint32_t bitpos = 0; bitpos < 31; ++bitpos)
                y[bitpos] = lo_src[bitpos];
            y[31] = mt[i][31];
            Bits next = xorBits(cb, mt[(i + kMtM) % kMtN],
                                shrConst(cb, y, 1));
            // (y & 1) ? matrixA : 0 — one AND per mask bit.
            Bits cond(32, y[0]);
            next = xorBits(cb, next,
                           andPrivateMask(cb, cond, masks.matrixA));
            mt[i] = next;
        }
        for (uint32_t i = 0; i < kMtN && emitted < outputs; ++i) {
            cb.addOutputs(mtTemperPrivate(cb, mt[i], masks));
            ++emitted;
        }
    }
    wl.netlist = cb.build();

    // Reference data.
    std::vector<uint32_t> state;
    if (seeded) {
        appendWord(wl.garblerBits, seed_val, 32);
        mtSeedRef(state, seed_val);
    } else {
        appendWord(wl.garblerBits, kMtMatrixA, 32);
        appendWord(wl.garblerBits, 0x9d2c5680u, 32);
        appendWord(wl.garblerBits, 0xefc60000u, 32);
        state = randomWords(404, kMtN);
        splitWords(state, kMtN / 2, 32, wl.garblerBits,
                   wl.evaluatorBits);
    }
    std::vector<uint32_t> ref = state;
    for (uint32_t round = 0; round < twists; ++round) {
        mtTwistRef(ref);
        for (uint32_t i = 0;
             i < kMtN && round * kMtN + i < outputs; ++i) {
            appendWord(wl.expectedOutputs, mtTemperRef(ref[i]), 32);
        }
    }

    wl.plaintextKernel = [state, outputs, twists]() {
        std::vector<uint32_t> mtv = state;
        uint32_t acc = 0;
        uint32_t emitted_ = 0;
        for (uint32_t round = 0; round < twists; ++round) {
            mtTwistRef(mtv);
            for (uint32_t i = 0; i < kMtN && emitted_ < outputs;
                 ++i, ++emitted_) {
                acc ^= mtTemperRef(mtv[i]);
            }
        }
        sink(acc);
    };
    // The twist reads (x_k & UPPER) | (x_{k+1} & LOWER): at small draw
    // counts some declared state bits are never consumed. The 624-word
    // interface is MT19937's, not ours to trim.
    wl.lintWaivers = {"unused-input"};
    return wl;
}

// ---------------------------------------------------------------------
// Triangle counting
// ---------------------------------------------------------------------

Workload
makeTriangleCount(uint32_t n)
{
    Workload wl;
    wl.name = "Triangle";
    wl.description = "triangle count in a " + std::to_string(n) +
                     "-vertex graph";

    const uint32_t edges = n * (n - 1) / 2;
    CircuitBuilder cb;
    Bits adj(edges);
    const uint32_t half = edges / 2;
    for (uint32_t i = 0; i < half; ++i)
        adj[i] = cb.garblerInput();
    for (uint32_t i = half; i < edges; ++i)
        adj[i] = cb.evaluatorInput();

    auto edge_index = [n](uint32_t i, uint32_t j) {
        // Upper-triangle row-major index, i < j.
        return i * (2 * n - i - 1) / 2 + (j - i - 1);
    };

    // Accumulate per outer vertex, as VIP's loop nest does: a popcount
    // tree per i, folded into a serial running count. This gives the
    // Table 2 depth character (levels ~ n * adder depth).
    uint32_t count_width = 1;
    while ((uint64_t(1) << count_width) <
           uint64_t(n) * (n - 1) * (n - 2) / 6 + 1)
        ++count_width;
    Bits running = constantBits(cb, count_width, 0);
    for (uint32_t i = 0; i < n; ++i) {
        Bits terms;
        for (uint32_t j = i + 1; j < n; ++j) {
            Wire eij = adj[edge_index(i, j)];
            for (uint32_t k = j + 1; k < n; ++k) {
                terms.push_back(
                    cb.andGate(cb.andGate(eij, adj[edge_index(j, k)]),
                               adj[edge_index(i, k)]));
            }
        }
        if (terms.empty())
            continue;
        Bits pc = popcount(cb, terms);
        running = addBits(cb, running, zeroExtend(cb, pc, count_width));
    }
    cb.addOutputs(running);
    wl.netlist = cb.build();

    // Random graph, ~30% density.
    Prg prg(505);
    std::vector<bool> edge_bits(edges);
    for (uint32_t i = 0; i < edges; ++i)
        edge_bits[i] = prg.nextRange(10) < 3;
    for (uint32_t i = 0; i < edges; ++i)
        (i < half ? wl.garblerBits : wl.evaluatorBits)
            .push_back(edge_bits[i]);

    uint64_t count = 0;
    for (uint32_t i = 0; i < n; ++i)
        for (uint32_t j = i + 1; j < n; ++j)
            for (uint32_t k = j + 1; k < n; ++k)
                count += (edge_bits[edge_index(i, j)] &&
                          edge_bits[edge_index(j, k)] &&
                          edge_bits[edge_index(i, k)])
                             ? 1
                             : 0;
    const uint32_t out_width = uint32_t(wl.netlist.outputs.size());
    appendWord(wl.expectedOutputs, count, out_width);

    wl.plaintextKernel = [edge_bits, n, edge_index]() {
        uint64_t c = 0;
        for (uint32_t i = 0; i < n; ++i)
            for (uint32_t j = i + 1; j < n; ++j)
                if (edge_bits[edge_index(i, j)])
                    for (uint32_t k = j + 1; k < n; ++k)
                        c += (edge_bits[edge_index(j, k)] &&
                              edge_bits[edge_index(i, k)])
                                 ? 1
                                 : 0;
        sink(c);
    };
    return wl;
}

// ---------------------------------------------------------------------
// Hamming distance
// ---------------------------------------------------------------------

Workload
makeHamming(uint32_t bits)
{
    Workload wl;
    wl.name = "Hamm";
    wl.description = "Hamming distance over " + std::to_string(bits) +
                     " bits";

    CircuitBuilder cb;
    Bits x = cb.garblerInputs(bits);
    Bits y = cb.evaluatorInputs(bits);
    cb.addOutputs(popcount(cb, xorBits(cb, x, y)));
    wl.netlist = cb.build();

    Prg prg(606);
    std::vector<bool> xv(bits), yv(bits);
    for (uint32_t i = 0; i < bits; ++i) {
        xv[i] = prg.nextBit();
        yv[i] = prg.nextBit();
    }
    wl.garblerBits = xv;
    wl.evaluatorBits = yv;

    uint64_t dist = 0;
    for (uint32_t i = 0; i < bits; ++i)
        dist += xv[i] != yv[i] ? 1 : 0;
    appendWord(wl.expectedOutputs, dist,
               uint32_t(wl.netlist.outputs.size()));

    wl.plaintextKernel = [xv, yv]() {
        uint64_t d = 0;
        for (size_t i = 0; i < xv.size(); ++i)
            d += xv[i] != yv[i] ? 1 : 0;
        sink(d);
    };
    return wl;
}

// ---------------------------------------------------------------------
// Matrix multiply
// ---------------------------------------------------------------------

Workload
makeMatMult(uint32_t d, uint32_t width)
{
    Workload wl;
    wl.name = "MatMult";
    wl.description = std::to_string(d) + "x" + std::to_string(d) +
                     " matrix multiply, " + std::to_string(width) +
                     "-bit";

    CircuitBuilder cb;
    std::vector<Bits> a(d * d), b(d * d);
    for (Bits &w : a)
        w = cb.garblerInputs(width);
    for (Bits &w : b)
        w = cb.evaluatorInputs(width);

    for (uint32_t i = 0; i < d; ++i) {
        for (uint32_t j = 0; j < d; ++j) {
            Bits acc = constantBits(cb, width, 0);
            for (uint32_t k = 0; k < d; ++k) {
                acc = addBits(
                    cb, acc,
                    mulBits(cb, a[i * d + k], b[k * d + j], width));
            }
            cb.addOutputs(acc);
        }
    }
    wl.netlist = cb.build();

    std::vector<uint32_t> av = randomWords(707, d * d);
    std::vector<uint32_t> bv = randomWords(708, d * d);
    const uint64_t mask = width >= 64 ? ~uint64_t(0)
                                      : ((uint64_t(1) << width) - 1);
    for (uint32_t v : av)
        appendWord(wl.garblerBits, v & mask, width);
    for (uint32_t v : bv)
        appendWord(wl.evaluatorBits, v & mask, width);

    for (uint32_t i = 0; i < d; ++i) {
        for (uint32_t j = 0; j < d; ++j) {
            uint64_t acc = 0;
            for (uint32_t k = 0; k < d; ++k)
                acc += uint64_t(av[i * d + k] & mask) *
                       uint64_t(bv[k * d + j] & mask);
            appendWord(wl.expectedOutputs, acc & mask, width);
        }
    }

    wl.plaintextKernel = [av, bv, d, mask]() {
        uint64_t acc_all = 0;
        for (uint32_t i = 0; i < d; ++i)
            for (uint32_t j = 0; j < d; ++j) {
                uint64_t acc = 0;
                for (uint32_t k = 0; k < d; ++k)
                    acc += uint64_t(av[i * d + k] & mask) *
                           uint64_t(bv[k * d + j] & mask);
                acc_all ^= acc & mask;
            }
        sink(acc_all);
    };
    return wl;
}

// ---------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------

Workload
makeRelu(uint32_t count, uint32_t width)
{
    Workload wl;
    wl.name = "ReLU";
    wl.description = std::to_string(count) + " independent " +
                     std::to_string(width) + "-bit ReLUs";

    CircuitBuilder cb;
    std::vector<Bits> acts(count);
    const uint32_t half = count / 2;
    for (uint32_t i = 0; i < half; ++i)
        acts[i] = cb.garblerInputs(width);
    for (uint32_t i = half; i < count; ++i)
        acts[i] = cb.evaluatorInputs(width);
    for (const Bits &a : acts)
        cb.addOutputs(reluBits(cb, a));
    wl.netlist = cb.build();
    // Each lane is one party's activation, so the garbler-half lanes
    // have no evaluator dependence — the embarrassingly-parallel
    // shape is the benchmark, not a hazard.
    wl.lintWaivers = {"inert-output"};

    std::vector<uint32_t> vals = randomWords(808, count);
    splitWords(vals, half, width, wl.garblerBits, wl.evaluatorBits);
    for (uint32_t v : vals) {
        const int32_t s = int32_t(v);
        appendWord(wl.expectedOutputs, s < 0 ? 0 : uint32_t(s), width);
    }

    wl.plaintextKernel = [vals]() {
        uint32_t acc = 0;
        for (uint32_t v : vals) {
            const int32_t s = int32_t(v);
            acc ^= s < 0 ? 0 : uint32_t(s);
        }
        sink(acc);
    };
    return wl;
}

// ---------------------------------------------------------------------
// Gradient descent (float linear regression)
// ---------------------------------------------------------------------

Workload
makeGradDesc(uint32_t points, uint32_t rounds)
{
    Workload wl;
    wl.name = "GradDesc";
    wl.description = "linear regression, " + std::to_string(rounds) +
                     " rounds of gradient descent over " +
                     std::to_string(points) + " float points";

    const uint32_t lr_bits = floatToBits(0.0625f);

    CircuitBuilder cb;
    std::vector<Bits> xs(points), ys(points);
    for (Bits &x : xs)
        x = cb.garblerInputs(32);
    for (Bits &y : ys)
        y = cb.evaluatorInputs(32);

    Bits w = constantBits(cb, 32, 0);
    Bits b = constantBits(cb, 32, 0);
    const Bits lr = constantBits(cb, 32, lr_bits);
    for (uint32_t r = 0; r < rounds; ++r) {
        Bits gw = constantBits(cb, 32, 0);
        Bits gb = constantBits(cb, 32, 0);
        for (uint32_t i = 0; i < points; ++i) {
            Bits pred = floatAddCircuit(
                cb, floatMulCircuit(cb, w, xs[i]), b);
            Bits e = floatSubCircuit(cb, pred, ys[i]);
            gw = floatAddCircuit(cb, gw,
                                 floatMulCircuit(cb, e, xs[i]));
            gb = floatAddCircuit(cb, gb, e);
        }
        w = floatSubCircuit(cb, w, floatMulCircuit(cb, lr, gw));
        b = floatSubCircuit(cb, b, floatMulCircuit(cb, lr, gb));
    }
    cb.addOutputs(w);
    cb.addOutputs(b);
    wl.netlist = cb.build();

    // Data: y ~ 0.8x + 0.3 with small deterministic noise.
    Prg prg(909);
    std::vector<uint32_t> xv(points), yv(points);
    std::vector<float> xf(points), yf(points);
    for (uint32_t i = 0; i < points; ++i) {
        const float x = float(int(prg.nextRange(64))) / 16.0f - 2.0f;
        const float noise = float(int(prg.nextRange(16))) / 128.0f;
        const float y = 0.8f * x + 0.3f + noise;
        xf[i] = x;
        yf[i] = y;
        xv[i] = floatToBits(x);
        yv[i] = floatToBits(y);
        appendWord(wl.garblerBits, xv[i], 32);
        appendWord(wl.evaluatorBits, yv[i], 32);
    }

    // Bit-exact reference via the SoftFloat model.
    uint32_t rw = 0, rb = 0;
    for (uint32_t r = 0; r < rounds; ++r) {
        uint32_t gw = 0, gb = 0;
        for (uint32_t i = 0; i < points; ++i) {
            const uint32_t pred = sfAdd(sfMul(rw, xv[i]), rb);
            const uint32_t e = sfSub(pred, yv[i]);
            gw = sfAdd(gw, sfMul(e, xv[i]));
            gb = sfAdd(gb, e);
        }
        rw = sfSub(rw, sfMul(lr_bits, gw));
        rb = sfSub(rb, sfMul(lr_bits, gb));
    }
    appendWord(wl.expectedOutputs, rw, 32);
    appendWord(wl.expectedOutputs, rb, 32);

    wl.plaintextKernel = [xf, yf, rounds]() {
        float w_ = 0, b_ = 0;
        const float lr_ = 0.0625f;
        for (uint32_t r = 0; r < rounds; ++r) {
            float gw = 0, gb = 0;
            for (size_t i = 0; i < xf.size(); ++i) {
                const float e = (w_ * xf[i] + b_) - yf[i];
                gw += e * xf[i];
                gb += e;
            }
            w_ -= lr_ * gw;
            b_ -= lr_ * gb;
        }
        sink(floatToBits(w_) ^ floatToBits(b_));
    };
    return wl;
}

// ---------------------------------------------------------------------
// Edit distance (extra workload)
// ---------------------------------------------------------------------

Workload
makeEditDistance(uint32_t m, uint32_t n, uint32_t symbol_bits,
                 bool kogge_stone)
{
    Workload wl;
    wl.name = "EditDist";
    wl.description = "Levenshtein distance, " + std::to_string(m) +
                     " x " + std::to_string(n) + " symbols of " +
                     std::to_string(symbol_bits) + " bits" +
                     (kogge_stone ? " (Kogge-Stone adders)" : "");

    uint32_t w = 1;
    while ((1u << w) < m + n + 1)
        ++w;

    CircuitBuilder cb;
    std::vector<Bits> sa(m), sb(n);
    for (Bits &s : sa)
        s = cb.garblerInputs(symbol_bits);
    for (Bits &s : sb)
        s = cb.evaluatorInputs(symbol_bits);

    auto add = [&cb, kogge_stone](const Bits &x, const Bits &y) {
        return kogge_stone ? addBitsKoggeStone(cb, x, y)
                           : addBits(cb, x, y);
    };
    auto min_u = [&cb](const Bits &x, const Bits &y) {
        return muxBits(cb, ltUnsigned(cb, y, x), y, x);
    };
    const Bits one = constantBits(cb, w, 1);

    // Rolling DP row.
    std::vector<Bits> row(n + 1);
    for (uint32_t j = 0; j <= n; ++j)
        row[j] = constantBits(cb, w, j);
    for (uint32_t i = 1; i <= m; ++i) {
        Bits diag = row[0]; // D[i-1][j-1]
        row[0] = constantBits(cb, w, i);
        for (uint32_t j = 1; j <= n; ++j) {
            Bits up = row[j]; // D[i-1][j]
            Wire neq = cb.notGate(eqBits(cb, sa[i - 1], sb[j - 1]));
            Bits subst =
                add(diag, zeroExtend(cb, Bits{neq}, w));
            Bits del = add(up, one);
            Bits ins = add(row[j - 1], one);
            row[j] = min_u(subst, min_u(del, ins));
            diag = up;
        }
    }
    cb.addOutputs(row[n]);
    wl.netlist = cb.build();

    // Deterministic strings + reference DP.
    Prg prg(1212);
    const uint32_t symmask = (1u << symbol_bits) - 1;
    std::vector<uint32_t> av(m), bv(n);
    for (uint32_t &v : av)
        v = uint32_t(prg.nextU64()) & symmask;
    for (uint32_t &v : bv)
        v = uint32_t(prg.nextU64()) & symmask;
    for (uint32_t v : av)
        appendWord(wl.garblerBits, v, symbol_bits);
    for (uint32_t v : bv)
        appendWord(wl.evaluatorBits, v, symbol_bits);

    auto reference = [](const std::vector<uint32_t> &x,
                        const std::vector<uint32_t> &y) {
        std::vector<uint32_t> row_(y.size() + 1);
        for (uint32_t j = 0; j <= y.size(); ++j)
            row_[j] = j;
        for (uint32_t i = 1; i <= x.size(); ++i) {
            uint32_t diag = row_[0];
            row_[0] = i;
            for (uint32_t j = 1; j <= y.size(); ++j) {
                const uint32_t up = row_[j];
                const uint32_t subst =
                    diag + (x[i - 1] != y[j - 1] ? 1 : 0);
                row_[j] = std::min(subst,
                                   std::min(up, row_[j - 1]) + 1);
                diag = up;
            }
        }
        return row_[y.size()];
    };
    appendWord(wl.expectedOutputs, reference(av, bv), w);

    wl.plaintextKernel = [av, bv, reference]() {
        sink(reference(av, bv));
    };
    return wl;
}

// ---------------------------------------------------------------------
// Suite registry
// ---------------------------------------------------------------------

const std::vector<std::string> &
vipNames()
{
    static const std::vector<std::string> names = {
        "BubbSt", "DotProd", "Merse", "Triangle",
        "Hamm",   "MatMult", "ReLU",  "GradDesc",
    };
    return names;
}

Workload
vipWorkload(const std::string &name, bool paper_scale)
{
    if (name == "BubbSt")
        return makeBubbleSort(paper_scale ? 310 : 48);
    if (name == "DotProd")
        return makeDotProduct(paper_scale ? 128 : 32);
    // Merse uses VIP's private-constant masks (real ANDs) and scales
    // by draw count (one in-place twist per 624 draws).
    if (name == "Merse")
        return makeMersenne(paper_scale ? 4368 : 1248, false);
    if (name == "Triangle")
        return makeTriangleCount(paper_scale ? 170 : 40);
    if (name == "Hamm")
        return makeHamming(paper_scale ? 40960 : 8192);
    if (name == "MatMult")
        return makeMatMult(paper_scale ? 8 : 4);
    if (name == "ReLU")
        return makeRelu(paper_scale ? 2048 : 512);
    if (name == "GradDesc")
        return makeGradDesc(paper_scale ? 8 : 4, paper_scale ? 20 : 5);
    throw std::invalid_argument("unknown VIP workload: " + name);
}

} // namespace haac
