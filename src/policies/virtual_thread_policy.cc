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

Cycle
VirtualThreadPolicy::switchLatency() const
{
    return config().policy.zeroSwitchLatency
               ? 0
               : config().policy.switchBaseLatency;
}

Cta *
VirtualThreadPolicy::bestPendingCta(Sm &sm, Cycle at_most) const
{
    SmState &st = state(sm);
    // O(1) fast path for the common per-tick probes: if even the soonest
    // tracked CTA is not ready by at_most, no scan can find a winner.
    if (st.pendingReady.minReady() > at_most)
        return nullptr;
    Cta *best = nullptr;
    Cycle best_ready = kNoCycle;
    for (Cta *cta : sm.pendingCtaList()) {
        // Untracked here: e.g. demoted to the DRAM tier by a derived
        // policy.
        const Cycle ready = st.pendingReady.readyCycle(cta->gridId());
        if (ready <= at_most && ready < best_ready) {
            best = cta;
            best_ready = ready;
        }
    }
    return best;
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
        if (Cta *pending = bestPendingCta(sm, now)) {
            st.pendingReady.erase(pending->gridId());
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
        if (Cta *pending = bestPendingCta(sm, kNoCycle - 1)) {
            st.pendingReady.erase(pending->gridId());
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
    partner.readyPending = bestPendingCta(sm, now);
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

        st.pendingReady.set(cta->gridId(), cta->estimateReadyCycle(now));
        sm.suspendCta(*cta, now);

        if (partner.canGrow) {
            Cta *fresh = sm.launchCta(dispatcher().pop(), now);
            fresh->regAllocHandle = st.rf->allocate(warp_regs);
            for (auto &warp : fresh->warps())
                warp->setEarliestIssue(now + switchLatency());
        } else {
            st.pendingReady.erase(partner.readyPending->gridId());
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
    st.pendingReady.erase(cta.gridId());
}

Cycle
VirtualThreadPolicy::nextEventCycle(const Sm &sm, Cycle now) const
{
    // min over CTAs of max(ready, now+1) == max(minReady, now+1) when the
    // set is non-empty: the clamp is monotone, so it commutes with min.
    const SmState &st = state(sm);
    if (st.pendingReady.empty())
        return kNoCycle;
    return std::max(st.pendingReady.minReady(), now + 1);
}

void
VirtualThreadPolicy::audit(const Sm &sm, Cycle now) const
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
