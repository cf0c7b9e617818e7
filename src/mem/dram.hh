/**
 * @file
 * Off-chip DRAM model: fixed access latency plus a bandwidth-limited channel
 * (Table I: 352.5 GB/s at 1126 MHz = ~313 bytes per core cycle). Requests
 * serialize on the channel; per-traffic-class byte counters feed Fig. 15.
 */

#ifndef FINEREG_MEM_DRAM_HH
#define FINEREG_MEM_DRAM_HH

#include <array>
#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/mem_request.hh"

namespace finereg
{

struct DramConfig
{
    /** Bytes the channel moves per core cycle (352.5e9 / 1126e6). */
    double bytesPerCycle = 313.0;

    /** Closed-page access latency in core cycles. */
    unsigned accessLatency = 220;
};

class Dram
{
  public:
    Dram(const DramConfig &config, StatGroup &stats);

    /**
     * Serve @p bytes starting no earlier than @p now.
     *
     * @return cycle at which the last byte arrives.
     */
    Cycle serve(Cycle now, std::uint64_t bytes, TrafficClass cls);

    /** Total bytes moved for @p cls. */
    std::uint64_t bytesMoved(TrafficClass cls) const;

    /** Total bytes moved across all classes. */
    std::uint64_t totalBytes() const;

    /** Number of serve() calls (DRAM "accesses" for the energy model). */
    std::uint64_t accesses() const { return accesses_->value(); }

    /** Reset the channel's queue (between experiments). */
    void reset() { nextFree_ = 0.0; }

  private:
    DramConfig config_;
    /** Earliest time the channel can start a new transfer. Fractional so
     * that sub-cycle transfers (128 B at ~313 B/cycle) accumulate exactly
     * instead of each rounding up to a full cycle. */
    double nextFree_ = 0.0;
    std::array<Counter *, kNumTrafficClasses> bytes_;
    Counter *accesses_;
};

} // namespace finereg

#endif // FINEREG_MEM_DRAM_HH
