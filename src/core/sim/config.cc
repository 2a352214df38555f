#include "core/sim/config.h"

#include <limits>

namespace haac {

const char *
roleName(Role role)
{
    return role == Role::Garbler ? "garbler" : "evaluator";
}

double
dramBytesPerCycle(DramKind kind)
{
    switch (kind) {
      case DramKind::Ddr4:
        return 35.2;
      case DramKind::Hbm2:
        return 512.0;
    }
    return 35.2;
}

std::string
HaacConfig::check() const
{
    constexpr uint64_t kMax32 = std::numeric_limits<uint32_t>::max();
    if (numGes == 0)
        return "numGes must be at least 1";
    if (banksPerGe == 0)
        return "banksPerGe must be at least 1";
    if (uint64_t(numGes) * banksPerGe > kMax32)
        return "numGes x banksPerGe overflows 32 bits";
    if (swwBytes / kLabelBytes < 2)
        return "swwBytes must hold at least 2 labels";
    if (swwBytes / kLabelBytes > kMax32)
        return "swwBytes holds more than 2^32 - 1 labels";
    if (writeBufferBytes == 0)
        return "writeBufferBytes must be non-zero";
    // Negated so NaN fails too.
    if (!(dramBandwidthScale >= kMinDramBandwidthScale &&
          dramBandwidthScale <= 1))
        return "dramBandwidthScale must be in [1/1024, 1]";
    return "";
}

} // namespace haac
