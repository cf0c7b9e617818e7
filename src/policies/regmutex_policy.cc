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
    SwitchingPolicy::onBind();
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
    auto it = st.srp.find(cta);
    const unsigned held = it == st.srp.end() ? 0 : it->second.held;
    if (target == held)
        return true;

    if (target > held &&
        !st.srpPool->canAllocate(target - held)) {
        return false;
    }

    // Reallocate the holding as one fresh grant.
    if (it == st.srp.end())
        it = st.srp.emplace(cta, SrpGrant{}).first;
    SrpGrant &grant = it->second;
    if (grant.handle != 0)
        st.srpPool->free(grant.handle);
    grant.handle = target > 0 ? st.srpPool->allocate(target) : 0;
    grant.held = target;
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
RegMutexPolicy::onLaunched(Sm &sm, Cta &cta)
{
    SmState &st = state(sm);
    cta.regAllocHandle = st.brsPool->allocate(brsWarpRegsPerCta(sm));
    setSrpHolding(st, cta.gridId(), extendedWarpRegsPerCta(sm));
}

void
RegMutexPolicy::switchOut(Sm &sm, Cta &cta, const SwitchPartner &partner,
                          Cycle now)
{
    const Kernel &kernel = sm.context().kernel();

    // RegMutex does NOT release SRP held by live extended registers when
    // a CTA stalls; only the dead portion returns to the pool.
    const unsigned keep =
        std::min(extendedWarpRegsPerCta(sm), liveExtendedRegs(sm, cta));

    // Value tracking: the released (dead) extended registers lose their
    // contents; BRS and live extended registers survive.
    if (CtaValues *values = cta.values()) {
        const unsigned brs = brsRegsPerThread(sm);
        const unsigned regs = kernel.regsPerThread();
        const auto &table = sm.context().liveTable();
        for (const auto &warp : cta.warps()) {
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

    mutableReadyOf(sm).push(cta, cta.estimateReadyCycle(now));
    sm.suspendCta(cta, now);
    setSrpHolding(state(sm), cta.gridId(), keep);

    if (partner.canGrow && grantsLaunch(sm)) {
        launchIntoSlot(*this, sm, now);
    } else if (partner.readyPending &&
               reclaimContext(sm, *partner.readyPending)) {
        resume(*this, sm, *partner.readyPending, now, switchLatency());
    } else {
        markDepleted(sm); // work existed; SRP said no
    }
}

void
RegMutexPolicy::onCtaFinished(Sm &sm, Cta &cta, Cycle)
{
    SmState &st = state(sm);
    st.brsPool->free(cta.regAllocHandle);
    setSrpHolding(st, cta.gridId(), 0);
    st.srp.erase(cta.gridId());
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
    for (const auto &[cta, grant] : st.srp) {
        expected_srp += grant.held;
        const unsigned granted =
            grant.handle == 0 ? 0 : st.srpPool->allocationSize(grant.handle);
        if (granted != grant.held) {
            std::ostringstream oss;
            oss << "SRP holding of " << grant.held
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
    auditReadyQueues(sm, now, {&readyOf(sm)});
}

} // namespace finereg
