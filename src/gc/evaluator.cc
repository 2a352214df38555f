#include "gc/evaluator.h"

namespace haac {

Label
evaluateAnd(const Label &a, const Label &b, const GarbledTable &table,
            uint64_t gate_index)
{
    const uint64_t j0 = 2 * gate_index;
    const uint64_t j1 = 2 * gate_index + 1;
    const bool sa = a.lsb();
    const bool sb = b.lsb();

    Label wg, we;
    hashRekeyedPair(j0, j1, &a, &wg, &b, &we, 1);
    return wg ^ selectLabel(sa, table.tg) ^ we ^
           selectLabel(sb, table.te ^ a);
}

Label
evaluateAndFixedKey(const FixedKeyHasher &h, const Label &a, const Label &b,
                    const GarbledTable &table, uint64_t gate_index)
{
    const uint64_t j0 = 2 * gate_index;
    const uint64_t j1 = 2 * gate_index + 1;
    const bool sa = a.lsb();
    const bool sb = b.lsb();

    const Label wg = h(a, j0) ^ selectLabel(sa, table.tg);
    const Label we = h(b, j1) ^ selectLabel(sb, table.te ^ a);
    return wg ^ we;
}

} // namespace haac
