/**
 * @file
 * The full memory hierarchy: per-SM L1 data caches, a shared L2, and the
 * DRAM channel. The SM load/store unit calls warpAccess() with a warp's
 * coalesced transaction list; the hierarchy walks each transaction through
 * the levels, models MSHR merging and bandwidth queuing, and returns the
 * completion cycle. Policies call offchipTransfer() to inject CTA-context
 * (Reg+DRAM) and bit-vector (FineReg) traffic onto the same DRAM channel.
 */

#ifndef FINEREG_MEM_MEM_HIERARCHY_HH
#define FINEREG_MEM_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/mem_request.hh"

namespace finereg
{

struct MemHierarchyConfig
{
    CacheConfig l1{48 * 1024, 8, 128, 28, 64};
    CacheConfig l2{2048 * 1024, 8, 128, 300, 256, true};
    DramConfig dram{};

    /** L2 transactions accepted per cycle (crossbar+slice bandwidth). */
    double l2TransactionsPerCycle = 8.0;
};

class MemHierarchy
{
  public:
    MemHierarchy(const MemHierarchyConfig &config, unsigned num_sms,
                 StatGroup &stats);

    /**
     * Issue one warp-level global access of @p transactions consecutive
     * 128-byte lines starting at @p addr.
     *
     * @return per-level hit counts and the completion cycle of the slowest
     *         transaction.
     */
    MemAccessResult warpAccess(SmId sm, Addr addr, unsigned transactions,
                               bool is_write, Cycle now);

    /**
     * Move @p bytes between the chip and DRAM outside the cache path (CTA
     * contexts, live-register bit vectors).
     *
     * @return completion cycle.
     */
    Cycle offchipTransfer(Cycle now, std::uint64_t bytes, TrafficClass cls);

    Cache &l1(SmId sm) { return *l1s_[sm]; }
    Cache &l2() { return *l2_; }
    Dram &dram() { return *dram_; }

    /** Resize every L1 (unified on-chip memory mode, Sec. VI-G3). */
    void resizeL1(std::uint64_t bytes);

    /** Invalidate all caches and reset channel queues. */
    void reset();

  private:
    MemHierarchyConfig config_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<Dram> dram_;

    /** L2 acceptance queue modeled as a next-free-cycle counter. */
    double l2NextFree_ = 0.0;
};

} // namespace finereg

#endif // FINEREG_MEM_MEM_HIERARCHY_HH
