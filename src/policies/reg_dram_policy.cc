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
    rf(sm).free(cta.regAllocHandle);
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
    cta.regAllocHandle =
        rf(sm).allocate(sm.context().kernel().warpRegsPerCta());
    dram(sm).inDram.erase(cta);

    const Cycle loaded = sm.mem().offchipTransfer(
        now, contextBytes(sm), TrafficClass::CtaContext);
    sm.resumeCta(cta, now, (loaded - now) + switchLatency());
}

bool
RegDramPolicy::resumeSecondTier(Sm &sm, Cycle now)
{
    // Unready DRAM-tier CTAs are left alone, also by the anti-idle
    // fallback: promoting them early would ping-pong full contexts across
    // the channel; nextEventCycle() wakes the device when one is ready.
    if (!hasLaunchRoom(sm))
        return false;
    Cta *dram_cta = dram(sm).inDram.best(now);
    if (!dram_cta)
        return false;
    promoteFromDram(sm, *dram_cta, now);
    return true;
}

Cycle
RegDramPolicy::contextCycles(const Sm &sm) const
{
    return static_cast<Cycle>(contextBytes(sm) /
                              config().mem.dram.bytesPerCycle);
}

bool
RegDramPolicy::demoteRoom(const Sm &sm, Cycle now) const
{
    const DramState &ds = dram(sm);
    // The paper tunes the DRAM-pending count per application (Sec. VI-A).
    // For very large contexts the best setting is zero — the transfer
    // cost can never be recovered — which reduces this scheme to VT.
    const unsigned dram_cap =
        contextBytes(sm) > 16 * 1024 ? 0
                                     : config().policy.maxDramPendingCtas;
    return ds.inDram.size() < dram_cap && !pendingSaturated(sm) &&
           now >= ds.nextDemoteAllowed && sm.hasResidencyHeadroom() &&
           (dispatcher().hasWork() || ds.inDram.best(now) != nullptr);
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
RegDramPolicy::switchOut(Sm &sm, Cta &cta, const SwitchPartner &partner,
                         Cycle now)
{
    // (a) VT-style growth inside the register file, or (b) a swap with a
    // ready on-chip pending CTA.
    if (partner.canGrow || partner.readyPending) {
        VirtualThreadPolicy::switchOut(sm, cta, partner, now);
        return;
    }
    // (c) DRAM tier: demote the stalled CTA and use the freed registers
    //     for a fresh CTA or a ready DRAM-tier CTA. Only profitable when
    //     the stall comfortably outlasts the round-trip of the full
    //     register context through the DRAM channel — otherwise the
    //     context traffic melts the channel (the effect Fig. 15 charges
    //     this scheme for). The partner test passed on the DRAM tier
    //     alone, so only the stall length is left to check.
    DramState &ds = dram(sm);
    const Cycle ready_estimate = cta.estimateReadyCycle(now);
    if (!worthDemoting(sm, ready_estimate, now))
        return;
    sm.suspendCta(cta, now);
    demoteToDram(sm, cta, ready_estimate, now);
    // Budget context movement to ~8% of channel bandwidth: a
    // demote+promote pair moves 2x the context, across all SMs.
    ds.nextDemoteAllowed =
        now + 2 * contextCycles(sm) * gpu().config().numSms * 12;

    if (Cta *dram_ready = ds.inDram.best(now)) {
        promoteFromDram(sm, *dram_ready, now);
    } else if (canLaunch(*this, sm)) {
        // demoteRoom saw residency headroom; the demotion kept it.
        launchIntoSlot(*this, sm, now);
    }
}

Cycle
RegDramPolicy::nextEventCycle(const Sm &sm, Cycle now) const
{
    const DramState &ds = dram(sm);
    Cycle next = std::min(SwitchingPolicy::nextEventCycle(sm, now),
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
    auditReadyQueues(sm, now, {&readyOf(sm), &dram(sm).inDram});
}

Cycle
RegDramPolicy::readyCycle(const Sm &sm, const Cta &cta) const
{
    return std::min(SwitchingPolicy::readyCycle(sm, cta),
                    dram(sm).inDram.readyCycle(cta));
}

} // namespace finereg
