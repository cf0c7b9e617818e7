#include "mem/dram.hh"

#include <algorithm>
#include <cmath>

#include "verify/sim_error.hh"

namespace finereg
{

Dram::Dram(const DramConfig &config, StatGroup &stats)
    : config_(config),
      bytes_{&stats.counter("dram.bytes_data"),
             &stats.counter("dram.bytes_cta_context"),
             &stats.counter("dram.bytes_bitvec")},
      accesses_(&stats.counter("dram.accesses"))
{
    if (config_.bytesPerCycle <= 0.0)
        raiseConfigError("DRAM bandwidth must be positive");
}

Cycle
Dram::serve(Cycle now, std::uint64_t bytes, TrafficClass cls)
{
    accesses_->inc();
    bytes_[static_cast<unsigned>(cls)]->inc(bytes);

    const double start = std::max(static_cast<double>(now), nextFree_);
    const double transfer =
        static_cast<double>(bytes) / config_.bytesPerCycle;
    nextFree_ = start + transfer;
    return static_cast<Cycle>(
        std::ceil(start + config_.accessLatency + transfer));
}

std::uint64_t
Dram::bytesMoved(TrafficClass cls) const
{
    return bytes_[static_cast<unsigned>(cls)]->value();
}

std::uint64_t
Dram::totalBytes() const
{
    std::uint64_t total = 0;
    for (const auto *counter : bytes_)
        total += counter->value();
    return total;
}

} // namespace finereg
