#include "sim/dram.hh"

#include <numeric>

#include "common/logging.hh"

namespace asr::sim {

const char *
dataClassName(DataClass cls)
{
    switch (cls) {
      case DataClass::State:    return "states";
      case DataClass::Arc:      return "arcs";
      case DataClass::Token:    return "tokens";
      case DataClass::Overflow: return "overflow";
      case DataClass::Acoustic: return "acoustic";
      default:                  return "unknown";
    }
}

std::uint64_t
DramStats::totalReadBytes() const
{
    return std::accumulate(readBytes.begin(), readBytes.end(),
                           std::uint64_t(0));
}

std::uint64_t
DramStats::totalWriteBytes() const
{
    return std::accumulate(writeBytes.begin(), writeBytes.end(),
                           std::uint64_t(0));
}

std::uint64_t
DramStats::totalBytes() const
{
    return totalReadBytes() + totalWriteBytes();
}

std::uint64_t
DramStats::totalRequests() const
{
    return std::accumulate(requests.begin(), requests.end(),
                           std::uint64_t(0));
}

std::uint64_t
DramStats::bytesForClass(DataClass cls) const
{
    auto i = static_cast<unsigned>(cls);
    return readBytes[i] + writeBytes[i];
}

Dram::Dram(const DramConfig &config)
    : cfg(config), slots(config.maxInflight)
{
    ASR_ASSERT(cfg.maxInflight > 0, "need at least one in-flight slot");
    ASR_ASSERT(cfg.issuePerCycle > 0, "issue width must be positive");
    // Lowest id on top: an idle controller hands out 0, 1, 2, ...
    freeIds.resize(cfg.maxInflight);
    for (RequestId i = 0; i < cfg.maxInflight; ++i)
        freeIds[i] = cfg.maxInflight - 1 - i;
}

} // namespace asr::sim
