#include "policies/regmutex_policy.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/gpu_config.hh"
#include "ref/cta_values.hh"
#include "sm/gpu.hh"
#include "verify/sim_error.hh"

namespace finereg
{

void
RegMutexPolicy::onBind()
{
    const double srp_ratio = config().policy.srpRatio;
    if (srp_ratio < 0.0 || srp_ratio >= 1.0) {
        std::ostringstream oss;
        oss << "SRP ratio " << srp_ratio << " outside [0, 1)";
        raiseConfigError(oss.str());
    }

    const std::uint64_t rf_bytes = gpu().config().sm.regFileBytes;
    const auto srp_bytes = static_cast<std::uint64_t>(rf_bytes * srp_ratio);

    states_.clear();
    for (unsigned s = 0; s < gpu().config().numSms; ++s) {
        auto st = std::make_unique<SmState>();
        st->brsPool = std::make_unique<RegFileAllocator>(
            "brs_sm" + std::to_string(s), rf_bytes - srp_bytes);
        st->srpPool = std::make_unique<RegFileAllocator>(
            "srp_sm" + std::to_string(s), srp_bytes);
        states_.push_back(std::move(st));
    }
}

unsigned
RegMutexPolicy::brsRegsPerThread(const Sm &sm) const
{
    const Kernel &kernel = sm.context().kernel();
    const unsigned regs = kernel.regsPerThread();
    const auto brs = static_cast<unsigned>(
        std::ceil(regs * config().policy.brsFraction));
    const unsigned clamped = std::max(1u, std::min(brs, regs));

    // If even one CTA's extended set cannot fit the SRP, no CTA could
    // ever launch; the hardware would fall back to full static
    // allocation (SRP disabled for this kernel).
    const auto srp_capacity = static_cast<unsigned>(
        gpu().config().sm.regFileBytes * config().policy.srpRatio /
        kBytesPerWarpReg);
    const unsigned ext_per_cta =
        (regs - clamped) * kernel.warpsPerCta();
    if (ext_per_cta > srp_capacity)
        return regs;
    return clamped;
}

unsigned
RegMutexPolicy::extendedWarpRegsPerCta(const Sm &sm) const
{
    const Kernel &kernel = sm.context().kernel();
    const unsigned ext =
        kernel.regsPerThread() - brsRegsPerThread(sm);
    return ext * kernel.warpsPerCta();
}

bool
RegMutexPolicy::setSrpHolding(SmState &st, GridCtaId cta, unsigned target)
{
    const unsigned held =
        st.srpHeld.count(cta) ? st.srpHeld[cta] : 0;
    if (target == held)
        return true;

    if (target > held &&
        !st.srpPool->canAllocate(target - held)) {
        return false;
    }

    // Reallocate the holding as one fresh grant.
    if (st.srpHandle.count(cta) && st.srpHandle[cta] != 0)
        st.srpPool->free(st.srpHandle[cta]);
    st.srpHandle[cta] = target > 0 ? st.srpPool->allocate(target) : 0;
    st.srpHeld[cta] = target;
    return true;
}

unsigned
RegMutexPolicy::liveExtendedRegs(const Sm &sm, const Cta &cta) const
{
    const unsigned brs = brsRegsPerThread(sm);
    // Mask of extended (SRP-served) registers: bits >= brs. One AND +
    // popcount per warp instead of a per-bit walk.
    const RegBitVec ext_mask(brs >= 64 ? 0ull : ~0ull << brs);
    unsigned live_ext = 0;
    const auto &table = sm.context().liveTable();
    for (const auto &warp : cta.warps()) {
        if (warp->finished())
            continue;
        RegBitVec live;
        for (const auto &entry : warp->simtStack())
            live |= table.lookup(entry.pc);
        live_ext += (live & ext_mask).count();
    }
    return live_ext;
}

void
RegMutexPolicy::fillActiveSlots(Sm &sm, Cycle now)
{
    SmState &st = state(sm);
    const Kernel &kernel = sm.context().kernel();
    const unsigned brs_warp_regs =
        brsRegsPerThread(sm) * kernel.warpsPerCta();
    const unsigned ext_regs = extendedWarpRegsPerCta(sm);

    unsigned launched = 0;
    while (sm.canActivateCta()) {
        // Resume a ready pending CTA: it must re-acquire its full
        // extended set from the SRP before re-entering the pipeline.
        if (Cta *pending = st.ready.best(now)) {
            if (!setSrpHolding(st, pending->gridId(), ext_regs)) {
                st.srpBlocked = true; // ready work blocked on SRP
                break;
            }
            st.ready.erase(*pending);
            sm.resumeCta(*pending, now, switchLatency());
            continue;
        }
        // Launch a fresh CTA: BRS allocation + SRP grant.
        if (launched < 2 && dispatcher().hasWork() &&
            sm.shmemFree() >= kernel.shmemPerCta() &&
            st.brsPool->canAllocate(brs_warp_regs) &&
            sm.hasResidencyHeadroom()) {
            if (!st.srpPool->canAllocate(ext_regs)) {
                st.srpBlocked = true;
                break;
            }
            Cta *cta = sm.launchCta(dispatcher().pop(), now);
            cta->regAllocHandle = st.brsPool->allocate(brs_warp_regs);
            setSrpHolding(st, cta->gridId(), ext_regs);
            ++launched;
            continue;
        }
        // Anti-idle fallback: resume the soonest pending CTA if its SRP
        // demand fits.
        if (launched > 0)
            break;
        if (Cta *pending = st.ready.best(kNoCycle - 1)) {
            if (!setSrpHolding(st, pending->gridId(), ext_regs))
                break;
            st.ready.erase(*pending);
            sm.resumeCta(*pending, now, switchLatency());
            continue;
        }
        break;
    }
}

Policy::SwitchPartner
RegMutexPolicy::findPartner(Sm &sm, Cycle now) const
{
    const Kernel &kernel = sm.context().kernel();
    const unsigned brs_warp_regs =
        brsRegsPerThread(sm) * kernel.warpsPerCta();
    SwitchPartner partner;
    partner.canGrow = dispatcher().hasWork() &&
                      state(sm).brsPool->canAllocate(brs_warp_regs) &&
                      sm.shmemFree() >= kernel.shmemPerCta() &&
                      sm.hasResidencyHeadroom() && !pendingSaturated(sm);
    partner.readyPending = state(sm).ready.best(now);
    return partner;
}

void
RegMutexPolicy::switchStalledCtas(Sm &sm, Cycle now)
{
    SmState &st = state(sm);
    const Kernel &kernel = sm.context().kernel();
    const unsigned brs_warp_regs =
        brsRegsPerThread(sm) * kernel.warpsPerCta();
    const unsigned ext_regs = extendedWarpRegsPerCta(sm);
    const auto would_switch = [&](Cta &) {
        return static_cast<bool>(findPartner(sm, now));
    };

    // Partner first: without one no stalled CTA can leave, so skip the
    // scan for them.
    if (!findPartner(sm, now)) {
        checkNoSwitchMissed(sm, now, would_switch);
        return;
    }
    for (Cta *cta : collectStalledCtas(sm, now)) {
        // A failed test changes no state, so it fails for every later
        // CTA too.
        const SwitchPartner partner = findPartner(sm, now);
        if (!partner) {
            checkNoSwitchMissed(sm, now, would_switch);
            break;
        }

        // RegMutex does NOT release SRP held by live extended registers
        // when a CTA stalls; only the dead portion returns to the pool.
        const unsigned keep =
            std::min(ext_regs, liveExtendedRegs(sm, *cta));

        // Value tracking: the released (dead) extended registers lose
        // their contents; BRS and live extended registers survive.
        if (CtaValues *values = cta->values()) {
            const unsigned brs = brsRegsPerThread(sm);
            const unsigned regs = kernel.regsPerThread();
            const auto &table = sm.context().liveTable();
            for (const auto &warp : cta->warps()) {
                if (warp->finished())
                    continue;
                RegBitVec keep_mask;
                for (unsigned r = 0; r < brs && r < regs; ++r)
                    keep_mask.set(static_cast<RegIndex>(r));
                for (const auto &entry : warp->simtStack())
                    keep_mask |= table.lookup(entry.pc);
                values->dropDeadRegs(warp->id(), keep_mask);
            }
        }

        st.ready.push(*cta, cta->estimateReadyCycle(now));
        sm.suspendCta(*cta, now);
        setSrpHolding(st, cta->gridId(), keep);

        Cta *ready_pending = partner.readyPending;
        if (partner.canGrow && st.srpPool->canAllocate(ext_regs)) {
            Cta *fresh = sm.launchCta(dispatcher().pop(), now);
            fresh->regAllocHandle = st.brsPool->allocate(brs_warp_regs);
            setSrpHolding(st, fresh->gridId(), ext_regs);
            for (auto &warp : fresh->warps())
                warp->setEarliestIssue(now + switchLatency());
        } else if (ready_pending &&
                   setSrpHolding(st, ready_pending->gridId(), ext_regs)) {
            st.ready.erase(*ready_pending);
            sm.resumeCta(*ready_pending, now, switchLatency());
        } else {
            st.srpBlocked = true; // work existed; SRP said no
        }
    }
}

void
RegMutexPolicy::tick(Sm &sm, Cycle now)
{
    SmState &st = state(sm);
    st.srpBlocked = false;
    fillActiveSlots(sm, now);
    switchStalledCtas(sm, now);
}

void
RegMutexPolicy::onCtaFinished(Sm &sm, Cta &cta, Cycle)
{
    SmState &st = state(sm);
    st.brsPool->free(cta.regAllocHandle);
    setSrpHolding(st, cta.gridId(), 0);
    st.srpHeld.erase(cta.gridId());
    st.srpHandle.erase(cta.gridId());
    st.ready.erase(cta);
}

bool
RegMutexPolicy::rfDepletionBlocked(const Sm &sm, Cycle) const
{
    return state(sm).srpBlocked;
}

Cycle
RegMutexPolicy::nextEventCycle(const Sm &sm, Cycle now) const
{
    return state(sm).ready.nextEvent(now);
}

void
RegMutexPolicy::audit(const Sm &sm, Cycle now) const
{
    const SmState &st = state(sm);
    unsigned expected_brs = 0;
    for (const auto &cta : sm.residentCtas()) {
        if (cta->regAllocHandle == kInvalidId) {
            raiseInvariant("rf-accounting",
                           "resident CTA has no BRS allocation",
                           cta->gridId(), sm.id(), now);
        }
        expected_brs += st.brsPool->allocationSize(cta->regAllocHandle);
    }
    if (st.brsPool->numAllocations() != sm.residentCtas().size() ||
        st.brsPool->usedWarpRegs() != expected_brs) {
        std::ostringstream oss;
        oss << "BRS pool holds " << st.brsPool->numAllocations()
            << " allocations / " << st.brsPool->usedWarpRegs()
            << " warp-regs vs. " << sm.residentCtas().size()
            << " resident CTAs holding " << expected_brs;
        raiseInvariant("rf-accounting", oss.str(), kInvalidId, sm.id(), now);
    }

    // SRP conservation: the pool's usage must equal the sum of per-CTA
    // holdings, and every non-zero holding must have a matching grant.
    unsigned expected_srp = 0;
    for (const auto &[cta, held] : st.srpHeld) {
        expected_srp += held;
        const auto grant = st.srpHandle.find(cta);
        const unsigned granted =
            grant == st.srpHandle.end() || grant->second == 0
                ? 0
                : st.srpPool->allocationSize(grant->second);
        if (granted != held) {
            std::ostringstream oss;
            oss << "SRP holding of " << held
                << " warp-regs backed by a grant of " << granted;
            raiseInvariant("srp-accounting", oss.str(), cta, sm.id(), now);
        }
    }
    if (st.srpPool->usedWarpRegs() != expected_srp) {
        std::ostringstream oss;
        oss << "SRP pool usage " << st.srpPool->usedWarpRegs()
            << " warp-regs vs. " << expected_srp << " held by CTAs";
        raiseInvariant("srp-accounting", oss.str(), kInvalidId, sm.id(),
                       now);
    }
    auditReadyQueues(sm, now, {&st.ready});
}

} // namespace finereg
