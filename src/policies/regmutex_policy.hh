/**
 * @file
 * VT+RegMutex comparator (Sec. VI-A). The register file is split into a
 * base-register-set (BRS) pool — each CTA statically allocates only the BRS
 * fraction of its registers — and a shared register pool (SRP) that serves
 * the remaining "extended" registers on demand. More CTAs fit (smaller
 * per-CTA footprint, so VT-style growth goes further), but an activating
 * CTA must win enough SRP for its extended registers, and a stalled CTA
 * keeps the SRP its *live* extended registers occupy — the contention
 * pathology Figs. 13/14 quantify.
 */

#ifndef FINEREG_POLICIES_REGMUTEX_POLICY_HH
#define FINEREG_POLICIES_REGMUTEX_POLICY_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "policies/switching_policy.hh"
#include "regfile/register_file.hh"

namespace finereg
{

class RegMutexPolicy final : public SwitchingPolicy
{
  public:
    const char *name() const override { return "VT+RegMutex"; }

    void tick(Sm &sm, Cycle now) override { switchingTick(*this, sm, now); }
    void onCtaFinished(Sm &sm, Cta &cta, Cycle now) override;

    /** Auditor: BRS allocation accounting, SRP holding conservation and
     * the ready queue. */
    void audit(const Sm &sm, Cycle now) const override;

    /** Per-thread BRS register count for the bound kernel. */
    unsigned brsRegsPerThread(const Sm &sm) const;

    /** Extended (SRP-served) warp-registers one CTA needs when active. */
    unsigned extendedWarpRegsPerCta(const Sm &sm) const;

  protected:
    void onBind() override;

  private:
    friend class SwitchingPolicy;

    /** A CTA's SRP holding: warp-registers held and the allocator grant
     * backing them (handle 0 when holding nothing). */
    struct SrpGrant
    {
        unsigned held = 0;
        unsigned handle = 0;
    };

    struct SmState
    {
        std::unique_ptr<RegFileAllocator> brsPool;
        std::unique_ptr<RegFileAllocator> srpPool;
        std::unordered_map<GridCtaId, SrpGrant> srp;
    };

    SmState &state(const Sm &sm) const { return *states_[sm.id()]; }

    /** Adjust a CTA's SRP holding to @p target warp-registers; returns
     * false (no change) when growth exceeds the free pool. */
    bool setSrpHolding(SmState &st, GridCtaId cta, unsigned target);

    /** Live extended warp-registers of a stalled CTA (what it keeps). */
    unsigned liveExtendedRegs(const Sm &sm, const Cta &cta) const;

    /** BRS warp-registers one CTA allocates statically. */
    unsigned
    brsWarpRegsPerCta(const Sm &sm) const
    {
        return brsRegsPerThread(sm) * sm.context().kernel().warpsPerCta();
    }

    /** Hooks (switching_policy.hh): a fresh CTA needs its BRS allocation,
     * then an SRP grant for its extended set; a resuming CTA re-acquires
     * its full extended set from the SRP. */
    bool
    hasLaunchRoom(const Sm &sm) const
    {
        return state(sm).brsPool->canAllocate(brsWarpRegsPerCta(sm));
    }
    bool
    grantsLaunch(const Sm &sm) const
    {
        return state(sm).srpPool->canAllocate(extendedWarpRegsPerCta(sm));
    }
    void onLaunched(Sm &sm, Cta &cta);
    bool
    reclaimContext(Sm &sm, Cta &cta)
    {
        return setSrpHolding(state(sm), cta.gridId(),
                             extendedWarpRegsPerCta(sm));
    }

    /** Release the dead part of @p cta's extended set, park it, then
     * launch or resume a partner if the SRP grants it. */
    void switchOut(Sm &sm, Cta &cta, const SwitchPartner &partner,
                   Cycle now);

    mutable std::vector<std::unique_ptr<SmState>> states_;
};

} // namespace finereg

#endif // FINEREG_POLICIES_REGMUTEX_POLICY_HH
