#include "sm/cta.hh"

#include <algorithm>
#include <array>

#include "common/log.hh"
#include "ref/cta_values.hh"

namespace finereg
{

Cta::Cta(GridCtaId grid_id, unsigned launch_seq, const KernelContext &context,
         std::uint64_t seed_base)
    : gridId_(grid_id), launchSeq_(launch_seq), context_(&context)
{
    const unsigned n_warps = context.kernel().warpsPerCta();
    warps_.reserve(n_warps);
    for (unsigned w = 0; w < n_warps; ++w) {
        const std::uint64_t warp_seed =
            seed_base + 0x9e3779b97f4a7c15ull * (w + 1);
        warps_.push_back(
            std::make_unique<Warp>(this, WarpId(w), context, warp_seed));
    }
}

Cta::~Cta() = default;

void
Cta::enableValueTracking()
{
    if (!values_)
        values_ = std::make_unique<CtaValues>(gridId_, *context_);
}

bool
Cta::arriveAtBarrier()
{
    ++barrierCount_;
    const unsigned live = numWarps() - finishedWarps_;
    return barrierCount_ >= live;
}

bool
Cta::fullyStalledOnMemory(Cycle now) const
{
    return fullyStalledUntil(now) > now;
}

Cycle
Cta::fullyStalledUntil(Cycle now) const
{
    bool any_mem_blocked = false;
    Cycle until = kNoCycle;
    for (const auto &warp : warps_) {
        if (warp->finished())
            continue;
        if (warp->atBarrier()) {
            // A barrier-parked warp neither runs nor blocks switching:
            // whether the CTA is stalled depends on the warps still
            // executing toward the barrier.
            continue;
        }
        if (warp->earliestIssue() > now)
            return 0; // still in its issue shadow; not a stall
        const Instruction &instr = warp->currentInstr();
        if (!warp->scoreboard().blockedOnMemory(instr, now))
            return 0;
        any_mem_blocked = true;
        // The warp stays blocked until its operands land.
        Scoreboard &sb = const_cast<Scoreboard &>(warp->scoreboard());
        until = std::min(until, sb.readyCycle(instr, now));
    }
    if (!any_mem_blocked)
        return 0;
    return std::max(until, now + 1);
}

bool
Cta::rescanStall(Cycle now) const
{
    // Rescan, and record how long the verdict holds absent a mutation
    // (mutations reset stallHorizon_ to 0, forcing the next call here).
    stallStalled_ = false;
    stallHorizon_ = kNoCycle;
    bool any_mem_blocked = false;
    Cycle until = kNoCycle;
    for (const auto &warp : warps_) {
        if (warp->finished() || warp->atBarrier())
            continue;
        if (warp->earliestIssue() > now) {
            // Issue shadow: not a stall until the shadow expires.
            stallHorizon_ = warp->earliestIssue();
            return false;
        }
        const Instruction &instr = warp->currentInstr();
        if (!warp->scoreboard().blockedOnMemory(instr, now)) {
            // An issuable (or non-memory-blocked) warp stays that way
            // until it issues — which invalidates the memo.
            return false;
        }
        any_mem_blocked = true;
        Scoreboard &sb = const_cast<Scoreboard &>(warp->scoreboard());
        until = std::min(until, sb.readyCycle(instr, now));
    }
    if (!any_mem_blocked)
        return false;
    stallStalled_ = true;
    stallHorizon_ = std::max(until, now + 1);
    return true;
}

Cycle
Cta::estimateReadyCycle(Cycle now) const
{
    // Every eviction calls this, so the wake cycles live on the stack;
    // only a CTA of more than 64 warps spills to the heap.
    std::array<Cycle, 64> local;
    std::vector<Cycle> spill;
    Cycle *wake = local.data();
    if (warps_.size() > local.size()) {
        spill.resize(warps_.size());
        wake = spill.data();
    }
    std::size_t n = 0;
    for (const auto &warp : warps_) {
        if (warp->finished() || warp->atBarrier())
            continue;
        wake[n++] = warp->scoreboard().lastPendingCycle(now);
    }
    if (n == 0)
        return now;
    // Ready when half the blocked warps can run again: the lower median,
    // the value a full sort would put at this index.
    Cycle *median = wake + (n - 1) / 2;
    std::nth_element(wake, median, wake + n);
    return *median;
}

Cycle
Cta::closeExecutionEpisode(Cycle now)
{
    if (!episodeOpen_)
        return 0;
    episodeOpen_ = false;
    return now > episodeStart_ ? now - episodeStart_ : 0;
}

} // namespace finereg
