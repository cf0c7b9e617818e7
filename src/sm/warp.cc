#include "sm/warp.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "sm/cta.hh"

namespace finereg
{

void
Warp::setEarliestIssue(Cycle c)
{
    earliestIssue_ = std::max(earliestIssue_, c);
    wakeHint_ = 0;
    cta_->invalidateStallCache();
}

Warp::Warp(Cta *cta, WarpId id, const KernelContext &context,
           std::uint64_t seed)
    : cta_(cta), id_(id), context_(&context),
      loopRemaining_(context.numLoops(), 0),
      memExec_(context.numMemInstrs(), 0),
      lastAddr_(context.numMemInstrs(), 0), rng_(seed)
{
    stack_.push_back({0, 0xffffffffu, context.endPc()});
}

unsigned
Warp::activeLanes() const
{
    return std::popcount(stack_.back().mask);
}

void
Warp::diverge(Pc taken_pc, std::uint32_t taken_mask, Pc fall_pc,
              Pc reconv_pc)
{
    StackEntry &current = stack_.back();
    const std::uint32_t full_mask = current.mask;
    const std::uint32_t fall_mask = full_mask & ~taken_mask;

    if (taken_mask == 0 || fall_mask == 0)
        FINEREG_PANIC("diverge() without an actual lane split");

    // Current entry becomes the reconvergence continuation.
    current.pc = reconv_pc;

    // Fall-through path below, taken path on top (executes first).
    stack_.push_back({fall_pc, fall_mask, reconv_pc});
    stack_.push_back({taken_pc, taken_mask, reconv_pc});
}

void
Warp::reconvergeIfNeeded()
{
    while (stack_.size() > 1 && stack_.back().pc == stack_.back().reconvPc)
        stack_.pop_back();
}

void
Warp::exitCurrentPath()
{
    if (stack_.size() > 1) {
        stack_.pop_back();
    } else {
        finished_ = true;
    }
}

const Instruction &
Warp::currentInstr() const
{
    return context_->kernel().instrAt(pc());
}

} // namespace finereg
