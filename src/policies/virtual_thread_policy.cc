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
    states_.clear();
    for (unsigned s = 0; s < gpu().config().numSms; ++s) {
        auto st = std::make_unique<SmState>();
        st->rf = std::make_unique<RegFileAllocator>(
            "vt_rf_sm" + std::to_string(s), gpu().config().sm.regFileBytes);
        states_.push_back(std::move(st));
    }
}

void
VirtualThreadPolicy::fillActiveSlots(Sm &sm, Cycle now)
{
    SmState &st = state(sm);
    const Kernel &kernel = sm.context().kernel();
    const unsigned warp_regs = kernel.warpRegsPerCta();

    unsigned launched = 0;
    while (sm.canActivateCta()) {
        // 1) Ready pending CTAs already own registers; bring them back.
        if (Cta *pending = st.ready.best(now)) {
            st.ready.erase(*pending);
            sm.resumeCta(*pending, now, switchLatency());
            continue;
        }
        // 2) New grid CTAs while the register file and shmem have room.
        if (launched < 2 && dispatcher().hasWork() &&
            sm.shmemFree() >= kernel.shmemPerCta() &&
            st.rf->canAllocate(warp_regs) && sm.hasResidencyHeadroom()) {
            Cta *cta = sm.launchCta(dispatcher().pop(), now);
            cta->regAllocHandle = st.rf->allocate(warp_regs);
            ++launched;
            continue;
        }
        // 3) Nothing ready and nothing launchable: resume the
        //    soonest-ready pending CTA so the SM is never idle-locked.
        //    (Skipped when this tick already launched fresh CTAs — more
        //    launches follow next cycle.)
        if (launched > 0)
            break;
        if (Cta *pending = st.ready.best(kNoCycle - 1)) {
            st.ready.erase(*pending);
            sm.resumeCta(*pending, now, switchLatency());
            continue;
        }
        break;
    }
}

Policy::SwitchPartner
VirtualThreadPolicy::findPartner(Sm &sm, Cycle now) const
{
    const Kernel &kernel = sm.context().kernel();
    // Growing the resident set: a brand-new CTA takes over the slot while
    // the stalled one keeps its registers and waits. Growth is dampened
    // once enough pending CTAs exist to hide stalls.
    SwitchPartner partner;
    partner.canGrow = dispatcher().hasWork() &&
                      state(sm).rf->canAllocate(kernel.warpRegsPerCta()) &&
                      sm.shmemFree() >= kernel.shmemPerCta() &&
                      sm.hasResidencyHeadroom() && !pendingSaturated(sm);
    partner.readyPending = state(sm).ready.best(now);
    return partner;
}

void
VirtualThreadPolicy::switchStalledCtas(Sm &sm, Cycle now)
{
    SmState &st = state(sm);
    const unsigned warp_regs = sm.context().kernel().warpRegsPerCta();
    const auto would_switch = [&](Cta &) {
        return static_cast<bool>(findPartner(sm, now));
    };

    // Partner first: without one no stalled CTA can leave, so skip the
    // scan for them.
    if (!findPartner(sm, now)) {
        checkNoSwitchMissed(sm, now, would_switch);
        return;
    }
    // Candidates: active CTAs that issued nothing this cycle and whose
    // warps are all blocked on global memory.
    for (Cta *cta : collectStalledCtas(sm, now)) {
        // A failed test changes no state, so it fails for every later
        // CTA too.
        const SwitchPartner partner = findPartner(sm, now);
        if (!partner) {
            checkNoSwitchMissed(sm, now, would_switch);
            break;
        }

        st.ready.push(*cta, cta->estimateReadyCycle(now));
        sm.suspendCta(*cta, now);

        if (partner.canGrow) {
            Cta *fresh = sm.launchCta(dispatcher().pop(), now);
            fresh->regAllocHandle = st.rf->allocate(warp_regs);
            for (auto &warp : fresh->warps())
                warp->setEarliestIssue(now + switchLatency());
        } else {
            st.ready.erase(*partner.readyPending);
            sm.resumeCta(*partner.readyPending, now, switchLatency());
        }
    }
}

void
VirtualThreadPolicy::tick(Sm &sm, Cycle now)
{
    fillActiveSlots(sm, now);
    switchStalledCtas(sm, now);
}

void
VirtualThreadPolicy::onCtaFinished(Sm &sm, Cta &cta, Cycle)
{
    SmState &st = state(sm);
    st.rf->free(cta.regAllocHandle);
    st.ready.erase(cta);
}

Cycle
VirtualThreadPolicy::nextEventCycle(const Sm &sm, Cycle now) const
{
    return state(sm).ready.nextEvent(now);
}

void
VirtualThreadPolicy::audit(const Sm &sm, Cycle now) const
{
    auditRegFile(sm, now);
    auditReadyQueues(sm, now, {&state(sm).ready});
}

void
VirtualThreadPolicy::auditRegFile(const Sm &sm, Cycle now) const
{
    const SmState &st = state(sm);
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
            expected_used += st.rf->allocationSize(cta->regAllocHandle);
        }
    }
    if (st.rf->numAllocations() != holders ||
        st.rf->usedWarpRegs() != expected_used) {
        std::ostringstream oss;
        oss << st.rf->numAllocations() << " allocations / "
            << st.rf->usedWarpRegs() << " used warp-regs vs. " << holders
            << " handle-holding CTAs accounting for " << expected_used;
        raiseInvariant("rf-accounting", oss.str(), kInvalidId, sm.id(), now);
    }
}

} // namespace finereg
