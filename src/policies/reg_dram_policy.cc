#include "policies/reg_dram_policy.hh"

#include <algorithm>

#include "common/log.hh"
#include "core/gpu_config.hh"
#include "sm/gpu.hh"

namespace finereg
{

void
RegDramPolicy::onBind()
{
    VirtualThreadPolicy::onBind();
    dramStates_.assign(gpu().config().numSms, DramState{});
}

std::uint64_t
RegDramPolicy::contextBytes(const Sm &sm) const
{
    return sm.context().kernel().regBytesPerCta();
}

void
RegDramPolicy::demoteToDram(Sm &sm, Cta &cta, Cycle ready, Cycle now)
{
    SmState &st = state(sm);

    st.rf->free(cta.regAllocHandle);
    cta.regAllocHandle = kInvalidId;

    // Stream the full register context out; the channel time is charged
    // but the SM does not wait on the store.
    sm.mem().offchipTransfer(now, contextBytes(sm),
                             TrafficClass::CtaContext);

    dram(sm).inDram.push(cta, ready);
}

void
RegDramPolicy::promoteFromDram(Sm &sm, Cta &cta, Cycle now)
{
    SmState &st = state(sm);
    DramState &ds = dram(sm);
    const Kernel &kernel = sm.context().kernel();

    cta.regAllocHandle = st.rf->allocate(kernel.warpRegsPerCta());
    ds.inDram.erase(cta);

    const Cycle loaded = sm.mem().offchipTransfer(
        now, contextBytes(sm), TrafficClass::CtaContext);
    sm.resumeCta(cta, now, (loaded - now) + switchLatency());
}

void
RegDramPolicy::fillSlotsWithDramTier(Sm &sm, Cycle now)
{
    SmState &st = state(sm);
    const Kernel &kernel = sm.context().kernel();
    const unsigned warp_regs = kernel.warpRegsPerCta();

    unsigned launched = 0;
    while (sm.canActivateCta()) {
        // On-chip pending CTAs resume cheaply; prefer them.
        if (Cta *pending = st.ready.best(now)) {
            st.ready.erase(*pending);
            sm.resumeCta(*pending, now, switchLatency());
            continue;
        }
        // Ready DRAM-tier CTAs next, if their registers fit again.
        if (st.rf->canAllocate(warp_regs)) {
            if (Cta *dram_cta = dram(sm).inDram.best(now)) {
                promoteFromDram(sm, *dram_cta, now);
                continue;
            }
        }
        // Fresh grid CTAs.
        if (launched < 2 && dispatcher().hasWork() &&
            sm.shmemFree() >= kernel.shmemPerCta() &&
            st.rf->canAllocate(warp_regs) && sm.hasResidencyHeadroom()) {
            Cta *cta = sm.launchCta(dispatcher().pop(), now);
            cta->regAllocHandle = st.rf->allocate(warp_regs);
            ++launched;
            continue;
        }
        // Anti-idle fallback: not-yet-ready *on-chip* pending CTAs only.
        // Unready DRAM-tier CTAs are left alone — promoting them early
        // would ping-pong full contexts across the channel; the policy's
        // nextEventCycle() wakes the device when one becomes ready.
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

Cycle
RegDramPolicy::contextCycles(const Sm &sm) const
{
    return static_cast<Cycle>(contextBytes(sm) /
                              config().mem.dram.bytesPerCycle);
}

RegDramPolicy::DramPartner
RegDramPolicy::findDramPartner(Sm &sm, Cycle now) const
{
    const DramState &ds = dram(sm);
    // The paper tunes the DRAM-pending count per application (Sec. VI-A).
    // For very large contexts the best setting is zero — the transfer
    // cost can never be recovered — which reduces this scheme to VT.
    const unsigned dram_cap =
        contextBytes(sm) > 16 * 1024 ? 0
                                     : config().policy.maxDramPendingCtas;
    DramPartner partner;
    partner.onChip = findPartner(sm, now);
    partner.dramTier = ds.inDram.size() < dram_cap && !pendingSaturated(sm) &&
                       now >= ds.nextDemoteAllowed &&
                       sm.hasResidencyHeadroom() &&
                       (dispatcher().hasWork() ||
                        ds.inDram.best(now) != nullptr);
    return partner;
}

bool
RegDramPolicy::worthDemoting(const Sm &sm, Cycle ready_estimate,
                             Cycle now) const
{
    const Cycle profit_threshold =
        config().mem.dram.accessLatency / 2 + 4 * contextCycles(sm);
    return ready_estimate > now + profit_threshold;
}

void
RegDramPolicy::switchStalledWithDramTier(Sm &sm, Cycle now)
{
    SmState &st = state(sm);
    DramState &ds = dram(sm);
    const Kernel &kernel = sm.context().kernel();
    const unsigned warp_regs = kernel.warpRegsPerCta();
    const auto would_switch = [&](Cta &cta) {
        const DramPartner partner = findDramPartner(sm, now);
        return static_cast<bool>(partner.onChip) ||
               (partner.dramTier &&
                worthDemoting(sm, cta.estimateReadyCycle(now), now));
    };

    // Partner first: without one no stalled CTA can leave, so skip the
    // scan for them.
    if (!findDramPartner(sm, now)) {
        checkNoSwitchMissed(sm, now, would_switch);
        return;
    }
    for (Cta *cta : collectStalledCtas(sm, now)) {
        // A failed test changes no state, so it fails for every later
        // CTA too.
        const DramPartner partner = findDramPartner(sm, now);
        if (!partner) {
            checkNoSwitchMissed(sm, now, would_switch);
            break;
        }
        // (a) VT-style growth inside the register file.
        if (partner.onChip.canGrow) {
            st.ready.push(*cta, cta->estimateReadyCycle(now));
            sm.suspendCta(*cta, now);
            Cta *fresh = sm.launchCta(dispatcher().pop(), now);
            fresh->regAllocHandle = st.rf->allocate(warp_regs);
            for (auto &warp : fresh->warps())
                warp->setEarliestIssue(now + switchLatency());
            continue;
        }
        // (b) Swap with a ready on-chip pending CTA.
        if (Cta *ready = partner.onChip.readyPending) {
            st.ready.push(*cta, cta->estimateReadyCycle(now));
            sm.suspendCta(*cta, now);
            st.ready.erase(*ready);
            sm.resumeCta(*ready, now, switchLatency());
            continue;
        }
        // (c) DRAM tier: demote the stalled CTA and use the freed
        //     registers for a fresh CTA or a ready DRAM-tier CTA. Only
        //     profitable when the stall comfortably outlasts the
        //     round-trip of the full register context through the DRAM
        //     channel — otherwise the context traffic melts the channel
        //     (the effect Fig. 15 charges this scheme for).
        //     The partner test passed on the DRAM tier alone, so only
        //     the stall length is left to check.
        const Cycle ready_estimate = cta->estimateReadyCycle(now);
        if (!worthDemoting(sm, ready_estimate, now))
            continue;
        sm.suspendCta(*cta, now);
        demoteToDram(sm, *cta, ready_estimate, now);
        // Budget context movement to ~8% of channel bandwidth: a
        // demote+promote pair moves 2x the context, across all SMs.
        ds.nextDemoteAllowed =
            now + 2 * contextCycles(sm) * gpu().config().numSms * 12;

        if (Cta *dram_ready = ds.inDram.best(now)) {
            promoteFromDram(sm, *dram_ready, now);
        } else if (dispatcher().hasWork() && st.rf->canAllocate(warp_regs) &&
                   sm.shmemFree() >= kernel.shmemPerCta()) {
            Cta *fresh = sm.launchCta(dispatcher().pop(), now);
            fresh->regAllocHandle = st.rf->allocate(warp_regs);
            for (auto &warp : fresh->warps())
                warp->setEarliestIssue(now + switchLatency());
        }
    }
}

void
RegDramPolicy::tick(Sm &sm, Cycle now)
{
    fillSlotsWithDramTier(sm, now);
    switchStalledWithDramTier(sm, now);
}

void
RegDramPolicy::onCtaFinished(Sm &sm, Cta &cta, Cycle now)
{
    dram(sm).inDram.erase(cta);
    if (cta.regAllocHandle != kInvalidId)
        VirtualThreadPolicy::onCtaFinished(sm, cta, now);
}

Cycle
RegDramPolicy::nextEventCycle(const Sm &sm, Cycle now) const
{
    const DramState &ds = dram(sm);
    Cycle next = std::min(state(sm).ready.nextEvent(now),
                          ds.inDram.nextEvent(now));
    // The demotion budget reopens the DRAM-tier partner at this cycle.
    if (ds.nextDemoteAllowed > now)
        next = std::min(next, ds.nextDemoteAllowed);
    return next;
}

void
RegDramPolicy::audit(const Sm &sm, Cycle now) const
{
    auditRegFile(sm, now);
    auditReadyQueues(sm, now, {&state(sm).ready, &dram(sm).inDram});
}

} // namespace finereg
