#include "policies/virtual_thread_policy.hh"

#include <algorithm>
#include <sstream>

#include "core/gpu_config.hh"
#include "sm/gpu.hh"
#include "verify/sim_error.hh"

namespace finereg
{

void
VirtualThreadPolicy::onBind()
{
    SwitchingPolicy::onBind();
    rfs_.clear();
    for (unsigned s = 0; s < gpu().config().numSms; ++s) {
        rfs_.push_back(std::make_unique<RegFileAllocator>(
            "vt_rf_sm" + std::to_string(s), gpu().config().sm.regFileBytes));
    }
}

void
VirtualThreadPolicy::switchOut(Sm &sm, Cta &cta,
                               const SwitchPartner &partner, Cycle now)
{
    mutableReadyOf(sm).push(cta, cta.estimateReadyCycle(now));
    sm.suspendCta(cta, now);
    // Growing the resident set: a brand-new CTA takes over the slot while
    // the stalled one keeps its registers and waits.
    if (partner.canGrow)
        launchIntoSlot(*this, sm, now);
    else
        resume(*this, sm, *partner.readyPending, now, switchLatency());
}

void
VirtualThreadPolicy::onCtaFinished(Sm &sm, Cta &cta, Cycle)
{
    rf(sm).free(cta.regAllocHandle);
}

void
VirtualThreadPolicy::audit(const Sm &sm, Cycle now) const
{
    auditRegFile(sm, now);
    auditReadyQueues(sm, now, {&readyOf(sm)});
}

void
VirtualThreadPolicy::auditRegFile(const Sm &sm, Cycle now) const
{
    const RegFileAllocator &rf_alloc = rf(sm);
    unsigned holders = 0;
    unsigned expected_used = 0;
    for (const auto &cta : sm.residentCtas()) {
        if (cta->state() == CtaState::Active &&
            cta->regAllocHandle == kInvalidId) {
            raiseInvariant("rf-accounting",
                           "active CTA has no register allocation",
                           cta->gridId(), sm.id(), now);
        }
        if (cta->regAllocHandle != kInvalidId) {
            ++holders;
            expected_used += rf_alloc.allocationSize(cta->regAllocHandle);
        }
    }
    if (rf_alloc.numAllocations() != holders ||
        rf_alloc.usedWarpRegs() != expected_used) {
        std::ostringstream oss;
        oss << rf_alloc.numAllocations() << " allocations / "
            << rf_alloc.usedWarpRegs() << " used warp-regs vs. " << holders
            << " handle-holding CTAs accounting for " << expected_used;
        raiseInvariant("rf-accounting", oss.str(), kInvalidId, sm.id(), now);
    }
}

} // namespace finereg
