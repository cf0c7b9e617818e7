/**
 * @file
 * Streaming multiprocessor. Models the issue stage (4 GTO schedulers), the
 * functional units (ALU/SFU/LDST with a per-cycle memory port budget), the
 * scoreboard-driven stall-on-use semantics, CTA barriers, and the CTA
 * residency mechanisms (launch/suspend/resume) the register-management
 * policies orchestrate. Register *allocation* is policy business; the SM
 * enforces only the scheduler-slot limits (Table I) and shared memory.
 */

#ifndef FINEREG_SM_SM_HH
#define FINEREG_SM_SM_HH

#include <memory>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/mem_hierarchy.hh"
#include "sm/cta.hh"
#include "sm/kernel_context.hh"
#include "sm/warp_scheduler.hh"

namespace finereg
{

struct SmConfig
{
    unsigned maxCtas = 32;       ///< CTA scheduler slots (active CTAs).
    unsigned maxWarps = 64;      ///< Warp scheduler slots (active warps).
    unsigned maxThreads = 2048;  ///< Thread slots (active threads).
    unsigned numSchedulers = 4;
    SchedKind sched = SchedKind::GTO;

    std::uint64_t regFileBytes = 256 * 1024;
    std::uint64_t shmemBytes = 96 * 1024;

    unsigned memPortsPerCycle = 1; ///< Warp memory instructions issued/cycle.
    unsigned aluLatency = 4;
    unsigned sfuLatency = 16;
    unsigned sharedLatency = 26;
    unsigned branchLatency = 2;

    /** FineReg residency caps (Sec. V-F: up to 128 CTAs / 512 warps). */
    unsigned maxResidentCtas = 128;
    unsigned maxResidentWarps = 512;
};

class Sm
{
  public:
    Sm(SmId id, const SmConfig &config, const KernelContext &context,
       MemHierarchy &mem, StatGroup &stats, std::uint64_t seed);

    SmId id() const { return id_; }
    const SmConfig &config() const { return config_; }
    const KernelContext &context() const { return *context_; }
    MemHierarchy &mem() { return *mem_; }
    Rng &rng() { return rng_; }

    /**
     * Base seed for per-warp RNG streams. Must be identical across SMs
     * (the Gpu passes its grid-level seed) so a CTA's execution path does
     * not depend on which SM it lands on.
     */
    void setCtaSeedBase(std::uint64_t base) { ctaSeedBase_ = base; }

    // Cycle execution ---------------------------------------------------------

    /**
     * Run one issue cycle: each scheduler attempts to issue one instruction.
     *
     * @return number of instructions issued.
     */
    unsigned tick(Cycle now);

    /**
     * Earliest future cycle at which any active warp may become issuable
     * (kNoCycle if none). Valid immediately after a tick that issued 0.
     */
    Cycle nextWakeCycle(Cycle now) const;

    /** Add @p delta cycles' worth of occupancy-weighted statistics. */
    void accumulateOccupancy(Cycle delta);

    // CTA residency mechanisms -----------------------------------------------

    /** Active-slot headroom check against the scheduler limits. */
    bool canActivateCta() const;

    /** Free shared-memory bytes. */
    std::uint64_t shmemFree() const { return config_.shmemBytes - shmemUsed_; }

    /** Allocated shared-memory bytes (auditor introspection). */
    std::uint64_t shmemUsed() const { return shmemUsed_; }

    /** Occupied warp scheduler slots (auditor introspection). */
    unsigned activeWarpSlotsUsed() const { return activeWarpSlots_; }

    /** Occupied thread slots (auditor introspection). */
    unsigned activeThreadSlotsUsed() const { return activeThreadSlots_; }

    /** Resident CTA/warp headroom (FineReg's 128/512 caps). */
    bool hasResidencyHeadroom() const;

    /**
     * Create an Active CTA for grid CTA @p grid_id. The caller must have
     * verified canActivateCta(), shared memory, and register space.
     */
    Cta *launchCta(GridCtaId grid_id, Cycle now);

    /** Move an active CTA to Pending: deschedule its warps. */
    void suspendCta(Cta &cta, Cycle now);

    /**
     * Reactivate a pending CTA; its warps may issue from
     * now + @p wake_latency.
     */
    void resumeCta(Cta &cta, Cycle now, Cycle wake_latency);

    /** Resident CTAs (all states). */
    std::vector<std::unique_ptr<Cta>> &residentCtas() { return ctas_; }
    const std::vector<std::unique_ptr<Cta>> &residentCtas() const
    {
        return ctas_;
    }

    /**
     * Active CTAs in residentCtas() order (launch-sequence sorted) —
     * the policies' per-tick stall scans iterate this instead of
     * filtering the full resident set. Maintained at every state
     * transition; the invariant auditor cross-checks it.
     */
    const std::vector<Cta *> &activeCtaList() const { return activeList_; }

    unsigned activeCtaCount() const { return activeCtas_; }

    /** Pending CTA count, maintained incrementally (hot path: policy
     * saturation checks run it once per stalled CTA per tick). */
    unsigned pendingCtaCount() const { return pendingCtas_; }

    /** Resident warp count, maintained incrementally. */
    unsigned residentWarpCount() const { return residentWarps_; }

    /** Unfinished warps of Active CTAs (occupancy accounting). */
    unsigned activeLiveWarps() const { return activeLiveWarps_; }

    // O(resident) reference scans for the incremental counters above;
    // the invariant auditor cross-checks them every audit.
    unsigned scanPendingCtaCount() const;
    unsigned scanResidentWarpCount() const;
    unsigned scanActiveLiveWarps() const;

    /** CTAs that finished during the last tick; caller takes ownership of
     * the notification (the CTA objects remain resident until destroy). */
    std::vector<Cta *> takeFinished();

    /** Remove a Done CTA from the resident set. */
    void destroyCta(Cta &cta);

    /** Last cycle any warp of @p cta issued. */
    Cycle ctaLastIssue(const Cta &cta) const;

    // Probes ------------------------------------------------------------------

    /** Enable the Fig. 5 register-usage window tracker. */
    void enableUsageTracking(bool on) { usageTracking_ = on; }

    /** Enable the Table III stall-episode probe. */
    void enableStallProbe(bool on) { stallProbe_ = on; }

    /** Attach functional value trackers to CTAs launched from now on
     * (differential/golden end-state capture; no timing effect). */
    void enableValueTracking(bool on) { trackValues_ = on; }

    std::uint64_t issuedInstrs() const { return issuedTotal_; }

    /** Issued during the most recent tick. */
    unsigned issuedLastTick() const { return issuedLastTick_; }

    StatGroup &stats() { return *stats_; }

    /**
     * True when a CTA state transition (launch, suspend, resume, whole-CTA
     * finish) happened since the last call; consumed by the sampled
     * invariant auditor to audit every transition edge.
     */
    bool
    takeStateEdge()
    {
        const bool edge = stateEdge_;
        stateEdge_ = false;
        return edge;
    }

  private:
    bool warpIssuable(Warp *warp, Cycle now);
    Cycle blockedUntil(Warp &warp, Cycle now);
    void issueInstr(Warp &warp, Cycle now);
    void execBranch(Warp &warp, const Instruction &instr, Cycle now);
    void execMemory(Warp &warp, const Instruction &instr, Cycle now);
    void execExit(Warp &warp, Cycle now);
    void finishWarp(Warp &warp, Cycle now);
    void addWarpToSchedulers(Cta &cta);
    void removeWarpFromSchedulers(Cta &cta);

    /** The scheduler a warp is statically assigned to. */
    WarpScheduler &
    schedulerOf(const Warp &warp)
    {
        const Cta &cta = *warp.cta();
        return schedulers_[(cta.launchSeq() * cta.numWarps() + warp.id()) %
                           config_.numSchedulers];
    }

    void trackUsage(const Warp &warp, const Instruction &instr);
    void checkStallEpisodes(Cycle now);

    SmId id_;
    SmConfig config_;
    const KernelContext *context_;
    MemHierarchy *mem_;
    StatGroup *stats_;
    Rng rng_;

    /** Insert @p cta into launch-seq-sorted @p list / remove it. */
    static void listInsert(std::vector<Cta *> &list, Cta *cta);
    static void listRemove(std::vector<Cta *> &list, Cta *cta);

    std::vector<WarpScheduler> schedulers_;
    std::vector<std::unique_ptr<Cta>> ctas_;
    std::vector<Cta *> finished_;
    std::vector<Cta *> activeList_;

    unsigned activeCtas_ = 0;
    unsigned activeWarpSlots_ = 0;
    unsigned activeThreadSlots_ = 0;
    unsigned pendingCtas_ = 0;
    unsigned residentWarps_ = 0;
    unsigned activeLiveWarps_ = 0;
    std::uint64_t shmemUsed_ = 0;
    unsigned launchSeq_ = 0;
    bool stateEdge_ = false;

    unsigned memIssuedThisCycle_ = 0;
    unsigned issuedLastTick_ = 0;
    std::uint64_t issuedTotal_ = 0;
    std::uint64_t ctaSeedBase_ = 0;

    // Fig. 5 usage tracking: distinct warp-registers touched per
    // 1000-issued-instruction window vs. statically allocated regs.
    bool usageTracking_ = false;
    std::unordered_set<std::uint64_t> touchedRegs_;
    std::uint64_t windowIssued_ = 0;

    bool stallProbe_ = false;
    bool trackValues_ = false;

    Counter *issuedCtr_;
    Counter *rfReads_;
    Counter *rfWrites_;
    Counter *sharedAccesses_;
    Counter *divergences_;
    Counter *barriersHit_;
    Counter *residentCtaCycles_;
    Counter *activeCtaCycles_;
    Counter *activeThreadCycles_;
    Counter *occupancyCycles_;
    Distribution *usageWindow_;
    Distribution *stallEpisode_;
};

} // namespace finereg

#endif // FINEREG_SM_SM_HH
