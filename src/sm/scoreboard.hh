/**
 * @file
 * Per-warp scoreboard: tracks in-flight register writes so dependent
 * instructions stall until their operands land (stall-on-use). It also
 * remembers which pending writes come from global memory — the signal the
 * CTA-stall detector uses to classify a warp as memory-blocked.
 */

#ifndef FINEREG_SM_SCOREBOARD_HH
#define FINEREG_SM_SCOREBOARD_HH

#include <array>

#include "common/bitvec.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace finereg
{

class Scoreboard
{
  public:
    /** Record that @p reg is written and becomes readable at @p ready. */
    void
    recordWrite(RegIndex reg, Cycle ready, bool from_global_mem)
    {
        readyAt_[reg] = ready;
        pending_.set(reg);
        if (from_global_mem)
            fromMem_.set(reg);
        else
            fromMem_.reset(reg);
    }

    /**
     * Earliest cycle at which @p instr can issue: the latest ready time of
     * its sources (RAW) and destination (WAW). Expires settled entries as a
     * side effect.
     */
    Cycle
    readyCycle(const Instruction &instr, Cycle now)
    {
        Cycle latest = 0;
        auto consider = [&](int reg) {
            if (reg < 0)
                return;
            const auto r = static_cast<RegIndex>(reg);
            if (!pending_.test(r))
                return;
            if (readyAt_[r] <= now) {
                pending_.reset(r);
                fromMem_.reset(r);
                return;
            }
            latest = std::max(latest, readyAt_[r]);
        };
        for (int src : instr.srcs)
            consider(src);
        consider(instr.dst);
        return latest;
    }

    /**
     * True when @p instr cannot issue at @p now *and* at least one blocking
     * operand is an outstanding global-memory load.
     */
    bool
    blockedOnMemory(const Instruction &instr, Cycle now) const
    {
        bool blocked_mem = false;
        auto consider = [&](int reg) {
            if (reg < 0)
                return;
            const auto r = static_cast<RegIndex>(reg);
            if (pending_.test(r) && readyAt_[r] > now && fromMem_.test(r))
                blocked_mem = true;
        };
        for (int src : instr.srcs)
            consider(src);
        consider(instr.dst);
        return blocked_mem;
    }

    /** Latest outstanding-write completion, or @p now when none pending. */
    Cycle
    lastPendingCycle(Cycle now) const
    {
        Cycle latest = now;
        pending_.forEach([&](RegIndex r) {
            if (readyAt_[r] > now)
                latest = std::max(latest, readyAt_[r]);
        });
        return latest;
    }

    void
    clear()
    {
        readyAt_.fill(0);
        pending_.clear();
        fromMem_.clear();
    }

    // Auditor introspection --------------------------------------------------

    /** Registers with a recorded in-flight write (may include writes that
     * already settled but were not yet lazily expired). */
    const RegBitVec &pendingMask() const { return pending_; }

    /** Subset of pendingMask() whose writes come from global memory. */
    const RegBitVec &memPendingMask() const { return fromMem_; }

    /** Recorded completion cycle of the last write to @p reg. */
    Cycle readyAtOf(RegIndex reg) const { return readyAt_[reg]; }

  private:
    std::array<Cycle, kMaxRegsPerThread> readyAt_{};
    RegBitVec pending_;
    RegBitVec fromMem_;
};

} // namespace finereg

#endif // FINEREG_SM_SCOREBOARD_HH
