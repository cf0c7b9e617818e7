/**
 * @file
 * Cooperative thread array: the unit FineReg's register management operates
 * on. A CTA is Active (warps schedulable, registers in the ACRF), Pending
 * (evicted from the pipeline, live registers in the PCRF / DRAM depending on
 * policy), or Done. The Cta tracks barrier state, stall detection, and the
 * timing probes Table III and Fig. 12 need.
 */

#ifndef FINEREG_SM_CTA_HH
#define FINEREG_SM_CTA_HH

#include <memory>
#include <vector>

#include "common/types.hh"
#include "sm/warp.hh"

namespace finereg
{

class CtaValues;

enum class CtaState : unsigned char
{
    Active,  ///< Executing: context in pipeline, registers in ACRF.
    Pending, ///< Stalled and evicted; awaiting reactivation.
    Done,    ///< All warps finished.
};

class Cta
{
  public:
    /**
     * @p seed_base seeds the warps' private RNG streams (warp w draws from
     * seed_base mixed with w). Callers derive it from the grid CTA id so
     * the execution path is independent of placement and timing.
     */
    Cta(GridCtaId grid_id, unsigned launch_seq, const KernelContext &context,
        std::uint64_t seed_base = 0);
    ~Cta();

    GridCtaId gridId() const { return gridId_; }

    /** Monotone launch sequence on this SM (GTO "oldest" order). */
    unsigned launchSeq() const { return launchSeq_; }

    CtaState state() const { return state_; }
    void
    setState(CtaState s)
    {
        state_ = s;
        invalidateStallCache();
    }

    std::vector<std::unique_ptr<Warp>> &warps() { return warps_; }
    const std::vector<std::unique_ptr<Warp>> &warps() const { return warps_; }

    unsigned numWarps() const { return warps_.size(); }

    unsigned finishedWarps() const { return finishedWarps_; }
    void
    noteWarpFinished()
    {
        ++finishedWarps_;
        invalidateStallCache();
    }
    bool allWarpsFinished() const { return finishedWarps_ == warps_.size(); }

    const KernelContext &context() const { return *context_; }

    // Barrier ---------------------------------------------------------------

    /**
     * A warp arrived at a barrier.
     *
     * @retval true when this arrival releases the barrier (all live warps
     *         arrived); the caller must then wake the waiting warps.
     */
    bool arriveAtBarrier();
    void
    releaseBarrier()
    {
        barrierCount_ = 0;
        invalidateStallCache();
    }

    // Stall detection and probes ---------------------------------------------

    /**
     * True when every unfinished warp is blocked on global memory — the
     * condition that makes the CTA a switch candidate (Sec. IV-A).
     */
    bool fullyStalledOnMemory(Cycle now) const;

    /**
     * Stall check with memoization support: returns the cycle until which
     * the CTA is guaranteed to remain fully stalled (the earliest warp
     * wake-up), or 0 when the CTA is not fully stalled. Policies cache
     * the result to avoid rescanning warps every cycle.
     */
    Cycle fullyStalledUntil(Cycle now) const;

    /** Last cycle any warp of this CTA issued (O(1), kept by the SM). */
    Cycle lastIssueCycle() const { return lastIssue_; }
    void
    noteIssue(Cycle now)
    {
        lastIssue_ = now;
        invalidateStallCache();
    }

    /**
     * Memoised fullyStalledOnMemory: the last scan's verdict is reused
     * while no warp of this CTA mutated and @p now is before the cached
     * horizon (earliest wake for a stalled CTA, issue-shadow expiry for
     * a not-yet-issuable one, forever for a CTA with an issuable warp —
     * time alone can never turn an issuable warp into a blocked one).
     * Every mutation path (issue, earliest-issue wake, barrier traffic,
     * warp finish, state change) resets the horizon, so the cached
     * verdict is always identical to a fresh warp scan.
     */
    bool
    stalledOnMemoryCached(Cycle now) const
    {
        if (now < stallHorizon_)
            return stallStalled_; // memo hit: the hot path
        return rescanStall(now);
    }

    /** Drop the stall memo after a warp-visible state change. */
    void invalidateStallCache() { stallHorizon_ = 0; }

    /**
     * Cycle at which the CTA is worth reactivating: when at least half of
     * its blocked warps have their operands back.
     */
    Cycle estimateReadyCycle(Cycle now) const;

    /** Start (or restart after resume) the Table III stall-episode timer. */
    void startExecutionEpisode(Cycle now) { episodeStart_ = now; episodeOpen_ = true; }

    /** Open a new episode on the first issue after a closed one. */
    void
    startExecutionEpisodeIfClosed(Cycle now)
    {
        if (!episodeOpen_)
            startExecutionEpisode(now);
    }

    /** Close the episode at full stall; returns its length, or 0 if no
     * episode was open. */
    Cycle closeExecutionEpisode(Cycle now);

    // Value tracking ---------------------------------------------------------

    /**
     * Attach a functional value tracker (ref/cta_values.hh). Off by
     * default: the timing model never reads values, so tracking is pure
     * observation enabled only for differential/golden runs.
     */
    void enableValueTracking();

    /** The value tracker, or nullptr when tracking is off. */
    CtaValues *values() { return values_.get(); }
    const CtaValues *values() const { return values_.get(); }

    /** Registers-in-ACRF bookkeeping handle for policies. */
    unsigned regAllocHandle = kInvalidId;

  private:
    GridCtaId gridId_;
    unsigned launchSeq_;
    const KernelContext *context_;
    CtaState state_ = CtaState::Active;
    std::vector<std::unique_ptr<Warp>> warps_;
    unsigned finishedWarps_ = 0;
    unsigned barrierCount_ = 0;

    std::unique_ptr<CtaValues> values_;

    Cycle episodeStart_ = 0;
    bool episodeOpen_ = false;
    /** Slow path of stalledOnMemoryCached: scan warps, refresh memo. */
    bool rescanStall(Cycle now) const;

    Cycle lastIssue_ = 0;

    // Stall memo (see stalledOnMemoryCached). Horizon 0 = invalid.
    mutable Cycle stallHorizon_ = 0;
    mutable bool stallStalled_ = false;
};

} // namespace finereg

#endif // FINEREG_SM_CTA_HH
