/**
 * @file
 * Warp: 32 threads executing in lockstep. Carries the SIMT reconvergence
 * stack (PDOM divergence handling), the scoreboard, loop trip counters, and
 * per-memory-instruction execution counts used for deterministic address
 * generation.
 */

#ifndef FINEREG_SM_WARP_HH
#define FINEREG_SM_WARP_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "sm/kernel_context.hh"
#include "sm/scoreboard.hh"

namespace finereg
{

class Cta;

/** Why a warp cannot issue right now. */
enum class BlockReason : unsigned char
{
    None,      ///< Issuable.
    Execution, ///< Scoreboard dependence on a short-latency op.
    Memory,    ///< Scoreboard dependence on a global-memory load.
    Barrier,   ///< Waiting at a CTA barrier.
    Finished,  ///< All lanes exited.
};

class Warp
{
  public:
    /**
     * @p seed drives this warp's private stochastic stream (branch
     * outcomes, divergence masks, address reuse). Seeding per warp from
     * the grid CTA id makes the executed instruction sequence a pure
     * function of the kernel and seed — independent of issue timing, CTA
     * placement, and the management policy.
     */
    Warp(Cta *cta, WarpId id, const KernelContext &context,
         std::uint64_t seed = 0);

    Cta *cta() const { return cta_; }
    WarpId id() const { return id_; }

    /** Private deterministic RNG for this warp's execution randomness. */
    Rng &rng() { return rng_; }

    // SIMT stack ------------------------------------------------------------

    struct StackEntry
    {
        Pc pc;
        std::uint32_t mask;
        Pc reconvPc;
    };

    Pc pc() const { return stack_.back().pc; }
    void setPc(Pc pc) { stack_.back().pc = pc; }
    std::uint32_t activeMask() const { return stack_.back().mask; }
    unsigned activeLanes() const;

    const std::vector<StackEntry> &simtStack() const { return stack_; }

    /**
     * Diverge at the current PC: the current entry becomes the
     * reconvergence entry, and the two path entries are pushed (taken path
     * on top, so it executes first).
     */
    void diverge(Pc taken_pc, std::uint32_t taken_mask, Pc fall_pc,
                 Pc reconv_pc);

    /** Pop reconverged entries; returns true if the warp is mid-divergence
     * and just merged. */
    void reconvergeIfNeeded();

    /** Mark the current stack entry's lanes as exited. */
    void exitCurrentPath();

    bool finished() const { return finished_; }

    // Scheduling state -------------------------------------------------------

    Scoreboard &scoreboard() { return scoreboard_; }
    const Scoreboard &scoreboard() const { return scoreboard_; }

    /** Earliest cycle the front end may issue from this warp. Setting it
     * clears the wake hint and drops the parent CTA's stall memo (defined
     * in warp.cc: Cta is incomplete here). */
    Cycle earliestIssue() const { return earliestIssue_; }
    void setEarliestIssue(Cycle c);

    /**
     * Issue-path wake hint: the SM's issue check found this warp blocked
     * until this cycle for a reason only setEarliestIssue() can lift
     * sooner (issue shadow, scoreboard, barrier; kNoCycle = until woken).
     * The issue check skips the warp while the hint lies in the future.
     * 0 = no hint: evaluate the warp in full.
     */
    Cycle wakeHint() const { return wakeHint_; }
    void setWakeHint(Cycle c) { wakeHint_ = c; }

    bool atBarrier() const { return atBarrier_; }
    void setAtBarrier(bool v) { atBarrier_ = v; }

    /** Last cycle this warp issued (GTO greediness / age tiebreaks). */
    Cycle lastIssueCycle() const { return lastIssueCycle_; }
    void setLastIssueCycle(Cycle c) { lastIssueCycle_ = c; }

    // Loop and memory side state ---------------------------------------------

    /** Remaining iterations of loop @p loop_id (0 = counter idle). */
    unsigned loopRemaining(int loop_id) const { return loopRemaining_[loop_id]; }
    void setLoopRemaining(int loop_id, unsigned n) { loopRemaining_[loop_id] = n; }

    /** Dynamic execution count of memory instruction @p mem_id. */
    std::uint32_t memExecCount(int mem_id) const { return memExec_[mem_id]; }
    void bumpMemExecCount(int mem_id) { ++memExec_[mem_id]; }

    Addr lastMemAddr(int mem_id) const { return lastAddr_[mem_id]; }
    void setLastMemAddr(int mem_id, Addr a) { lastAddr_[mem_id] = a; }

    /** Dynamic instructions this warp has issued. */
    std::uint64_t issuedInstrs() const { return issuedInstrs_; }
    void bumpIssuedInstrs() { ++issuedInstrs_; }

    const KernelContext &context() const { return *context_; }

    /** Next instruction this warp will execute; finished() must be false. */
    const Instruction &currentInstr() const;

    /** True when the current PC has run past the kernel end. */
    bool pastEnd() const { return pc() >= context_->endPc(); }

  private:
    Cta *cta_;
    WarpId id_;
    const KernelContext *context_;

    std::vector<StackEntry> stack_;
    bool finished_ = false;
    bool atBarrier_ = false;

    Scoreboard scoreboard_;
    Cycle earliestIssue_ = 0;
    Cycle wakeHint_ = 0;
    Cycle lastIssueCycle_ = 0;

    std::vector<unsigned> loopRemaining_;
    std::vector<std::uint32_t> memExec_;
    std::vector<Addr> lastAddr_;
    std::uint64_t issuedInstrs_ = 0;
    Rng rng_;
};

} // namespace finereg

#endif // FINEREG_SM_WARP_HH
