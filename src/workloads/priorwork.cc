#include "workloads/priorwork.h"

#include <array>

#include "circuit/stdlib.h"
#include "crypto/aes128.h"
#include "crypto/prg.h"

namespace haac {

namespace {

using u128 = unsigned __int128;

/** Bits [0, width) of @p v, lsb first; bits at and past 128 are 0. */
void
appendWord(std::vector<bool> &bits, u128 v, uint32_t width)
{
    for (uint32_t i = 0; i < width; ++i)
        bits.push_back(i < 128 && ((v >> i) & 1) != 0);
}

/** Reduce a degree-14 GF(2)[x] polynomial modulo x^8+x^4+x^3+x+1. */
Bits
gfReduce(CircuitBuilder &cb, std::array<Wire, 15> c)
{
    for (int k = 14; k >= 8; --k) {
        const Wire t = c[size_t(k)];
        c[size_t(k - 8)] = cb.xorGate(c[size_t(k - 8)], t);
        c[size_t(k - 7)] = cb.xorGate(c[size_t(k - 7)], t);
        c[size_t(k - 5)] = cb.xorGate(c[size_t(k - 5)], t);
        c[size_t(k - 4)] = cb.xorGate(c[size_t(k - 4)], t);
    }
    return Bits(c.begin(), c.begin() + 8);
}

} // namespace

Bits
gfMul(CircuitBuilder &cb, const Bits &a, const Bits &b)
{
    std::array<Wire, 15> c;
    c.fill(cb.constant(false));
    for (uint32_t i = 0; i < 8; ++i)
        for (uint32_t j = 0; j < 8; ++j)
            c[i + j] = cb.xorGate(c[i + j], cb.andGate(a[i], b[j]));
    return gfReduce(cb, c);
}

Bits
gfSquare(CircuitBuilder &cb, const Bits &a)
{
    std::array<Wire, 15> c;
    c.fill(cb.constant(false));
    for (uint32_t i = 0; i < 8; ++i)
        c[2 * i] = a[i];
    return gfReduce(cb, c);
}

Bits
gfInverse(CircuitBuilder &cb, const Bits &a)
{
    // x^254 via an addition chain: 4 multiplies, the rest squarings.
    Bits x2 = gfSquare(cb, a);
    Bits x3 = gfMul(cb, x2, a);
    Bits x12 = gfSquare(cb, gfSquare(cb, x3));
    Bits x15 = gfMul(cb, x12, x3);
    Bits x240 =
        gfSquare(cb, gfSquare(cb, gfSquare(cb, gfSquare(cb, x15))));
    Bits x252 = gfMul(cb, x240, x12);
    return gfMul(cb, x252, x2);
}

Bits
aesSbox(CircuitBuilder &cb, const Bits &x)
{
    Bits inv = gfInverse(cb, x);
    // Affine transform: b_i = inv_i ^ inv_{i+4} ^ inv_{i+5} ^ inv_{i+6}
    //                        ^ inv_{i+7} ^ c_i, c = 0x63.
    const uint32_t c = 0x63;
    Bits out(8);
    for (uint32_t i = 0; i < 8; ++i) {
        Wire w = inv[i];
        w = cb.xorGate(w, inv[(i + 4) % 8]);
        w = cb.xorGate(w, inv[(i + 5) % 8]);
        w = cb.xorGate(w, inv[(i + 6) % 8]);
        w = cb.xorGate(w, inv[(i + 7) % 8]);
        if ((c >> i) & 1)
            w = cb.notGate(w);
        out[i] = w;
    }
    return out;
}

Workload
makeMillionaire(uint32_t bits)
{
    Workload wl;
    wl.name = "Million-" + std::to_string(bits);
    wl.description = "millionaires' problem, " + std::to_string(bits) +
                     "-bit wealth";
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(bits);
    Bits b = cb.evaluatorInputs(bits);
    cb.addOutput(ltUnsigned(cb, b, a)); // 1 iff Alice is richer
    wl.netlist = cb.build();

    Prg prg(111);
    const uint64_t mask = bits >= 64 ? ~uint64_t(0)
                                     : ((uint64_t(1) << bits) - 1);
    const uint64_t av = prg.nextU64() & mask;
    const uint64_t bv = prg.nextU64() & mask;
    appendWord(wl.garblerBits, av, bits);
    appendWord(wl.evaluatorBits, bv, bits);
    wl.expectedOutputs.push_back(bv < av);
    wl.plaintextKernel = [] {};
    return wl;
}

Workload
makeAdder(uint32_t bits)
{
    Workload wl;
    wl.name = "Add-" + std::to_string(bits);
    wl.description = std::to_string(bits) + "-bit adder";
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(bits);
    Bits b = cb.evaluatorInputs(bits);
    cb.addOutputs(addBits(cb, a, b));
    wl.netlist = cb.build();

    Prg prg(222);
    const uint64_t mask = bits >= 64 ? ~uint64_t(0)
                                     : ((uint64_t(1) << bits) - 1);
    const uint64_t av = prg.nextU64() & mask;
    const uint64_t bv = prg.nextU64() & mask;
    appendWord(wl.garblerBits, av, bits);
    appendWord(wl.evaluatorBits, bv, bits);
    appendWord(wl.expectedOutputs, u128(av) + bv, bits);
    wl.plaintextKernel = [] {};
    return wl;
}

Workload
makeMultiplier(uint32_t bits)
{
    Workload wl;
    wl.name = "Mult-" + std::to_string(bits);
    wl.description = std::to_string(bits) + "x" + std::to_string(bits) +
                     "-bit multiplier (full product)";
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(bits);
    Bits b = cb.evaluatorInputs(bits);
    cb.addOutputs(mulBits(cb, a, b, 2 * bits));
    wl.netlist = cb.build();

    Prg prg(333);
    const uint64_t mask = bits >= 64 ? ~uint64_t(0)
                                     : ((uint64_t(1) << bits) - 1);
    const uint64_t av = prg.nextU64() & mask;
    const uint64_t bv = prg.nextU64() & mask;
    appendWord(wl.garblerBits, av, bits);
    appendWord(wl.evaluatorBits, bv, bits);
    appendWord(wl.expectedOutputs, u128(av) * bv, 2 * bits);
    wl.plaintextKernel = [] {};
    return wl;
}

Workload
makeSmallMatMult(uint32_t d, uint32_t width)
{
    Workload wl = makeMatMult(d, width);
    wl.name = std::to_string(d) + "x" + std::to_string(d) + "Matx-" +
              std::to_string(width);
    return wl;
}

Workload
makeAes128()
{
    Workload wl;
    wl.name = "AES-128";
    wl.description = "AES-128 encryption of one block";

    CircuitBuilder cb;
    // Bytes of key and plaintext, in FIPS byte order.
    std::vector<Bits> key(16), pt(16);
    for (Bits &b : key)
        b = cb.garblerInputs(8);
    for (Bits &b : pt)
        b = cb.evaluatorInputs(8);

    // --- Key schedule (44 words = 176 bytes). ---
    std::vector<Bits> rk = key;
    rk.resize(176);
    static const uint8_t rcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                     0x20, 0x40, 0x80, 0x1b, 0x36};
    for (uint32_t i = 4; i < 44; ++i) {
        std::array<Bits, 4> temp;
        for (uint32_t byte = 0; byte < 4; ++byte)
            temp[byte] = rk[4 * (i - 1) + byte];
        if (i % 4 == 0) {
            // RotWord + SubWord + Rcon.
            std::array<Bits, 4> rot = {temp[1], temp[2], temp[3],
                                       temp[0]};
            for (uint32_t byte = 0; byte < 4; ++byte)
                rot[byte] = aesSbox(cb, rot[byte]);
            rot[0] = xorBits(cb, rot[0],
                             constantBits(cb, 8, rcon[i / 4 - 1]));
            temp = rot;
        }
        for (uint32_t byte = 0; byte < 4; ++byte)
            rk[4 * i + byte] =
                xorBits(cb, rk[4 * (i - 4) + byte], temp[byte]);
    }

    // --- Rounds (mirrors crypto/aes128.cc exactly). ---
    auto shiftRows = [](std::vector<Bits> &s) {
        Bits t = s[1];
        s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
        std::swap(s[2], s[10]);
        std::swap(s[6], s[14]);
        t = s[15];
        s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
    };
    auto xtime = [&](const Bits &v) {
        // (v << 1) ^ (v7 ? 0x1b : 0); 0x1b = bits 0,1,3,4.
        Bits o(8);
        o[0] = v[7];
        o[1] = cb.xorGate(v[0], v[7]);
        o[2] = v[1];
        o[3] = cb.xorGate(v[2], v[7]);
        o[4] = cb.xorGate(v[3], v[7]);
        o[5] = v[4];
        o[6] = v[5];
        o[7] = v[6];
        return o;
    };
    auto mixColumns = [&](std::vector<Bits> &s) {
        for (uint32_t c = 0; c < 4; ++c) {
            Bits a0 = s[4 * c], a1 = s[4 * c + 1];
            Bits a2 = s[4 * c + 2], a3 = s[4 * c + 3];
            Bits all = xorBits(cb, xorBits(cb, a0, a1),
                               xorBits(cb, a2, a3));
            s[4 * c] = xorBits(cb, xorBits(cb, a0, all),
                               xtime(xorBits(cb, a0, a1)));
            s[4 * c + 1] = xorBits(cb, xorBits(cb, a1, all),
                                   xtime(xorBits(cb, a1, a2)));
            s[4 * c + 2] = xorBits(cb, xorBits(cb, a2, all),
                                   xtime(xorBits(cb, a2, a3)));
            s[4 * c + 3] = xorBits(cb, xorBits(cb, a3, all),
                                   xtime(xorBits(cb, a3, a0)));
        }
    };

    std::vector<Bits> state = pt;
    for (uint32_t i = 0; i < 16; ++i)
        state[i] = xorBits(cb, state[i], rk[i]);
    for (uint32_t round = 1; round < 10; ++round) {
        for (uint32_t i = 0; i < 16; ++i)
            state[i] = aesSbox(cb, state[i]);
        shiftRows(state);
        mixColumns(state);
        for (uint32_t i = 0; i < 16; ++i)
            state[i] = xorBits(cb, state[i], rk[16 * round + i]);
    }
    for (uint32_t i = 0; i < 16; ++i)
        state[i] = aesSbox(cb, state[i]);
    shiftRows(state);
    for (uint32_t i = 0; i < 16; ++i)
        state[i] = xorBits(cb, state[i], rk[160 + i]);

    for (const Bits &byte : state)
        cb.addOutputs(byte);
    wl.netlist = cb.build();

    // Sample data + expected ciphertext from the software AES.
    Prg prg(444);
    std::array<uint8_t, 16> key_bytes{}, pt_bytes{}, ct_bytes{};
    for (uint8_t &b : key_bytes)
        b = uint8_t(prg.nextU64());
    for (uint8_t &b : pt_bytes)
        b = uint8_t(prg.nextU64());
    Aes128 aes(key_bytes.data());
    aes.encryptBlock(pt_bytes.data(), ct_bytes.data());
    for (uint8_t b : key_bytes)
        appendWord(wl.garblerBits, b, 8);
    for (uint8_t b : pt_bytes)
        appendWord(wl.evaluatorBits, b, 8);
    for (uint8_t b : ct_bytes)
        appendWord(wl.expectedOutputs, b, 8);

    wl.plaintextKernel = [key_bytes, pt_bytes]() {
        Aes128 aes_(key_bytes.data());
        uint8_t out[16];
        aes_.encryptBlock(pt_bytes.data(), out);
    };
    return wl;
}

} // namespace haac
