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

#include "policies/policy.hh"
#include "policies/ready_queue.hh"
#include "sm/sm.hh"
#include "regfile/register_file.hh"

namespace finereg
{

class RegMutexPolicy : public Policy
{
  public:
    const char *name() const override { return "VT+RegMutex"; }

    void tick(Sm &sm, Cycle now) override;
    void onCtaFinished(Sm &sm, Cta &cta, Cycle now) override;
    bool rfDepletionBlocked(const Sm &sm, Cycle now) const override;
    Cycle nextEventCycle(const Sm &sm, Cycle now) const override;

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
    struct SmState
    {
        std::unique_ptr<RegFileAllocator> brsPool;
        std::unique_ptr<RegFileAllocator> srpPool;

        /** Pending CTAs by estimated ready cycle. */
        ReadyQueue ready;

        /** CTA -> SRP warp-registers currently held. */
        std::unordered_map<GridCtaId, unsigned> srpHeld;

        /** CTA -> SRP allocator handle (0 when holding nothing). */
        std::unordered_map<GridCtaId, unsigned> srpHandle;

        /** Fig. 14 flag: this tick, schedulable work was blocked on SRP. */
        bool srpBlocked = false;
    };

    SmState &state(const Sm &sm) const { return *states_[sm.id()]; }

    /** Adjust a CTA's SRP holding to @p target warp-registers; returns
     * false (no change) when growth exceeds the free pool. */
    bool setSrpHolding(SmState &st, GridCtaId cta, unsigned target);

    /** Live extended warp-registers of a stalled CTA (what it keeps). */
    unsigned liveExtendedRegs(const Sm &sm, const Cta &cta) const;

    /** Partner test: a fresh grid CTA fits the BRS pool, or a pending
     * CTA is ready to resume. */
    SwitchPartner findPartner(Sm &sm, Cycle now) const;
    void fillActiveSlots(Sm &sm, Cycle now);
    void switchStalledCtas(Sm &sm, Cycle now);

    mutable std::vector<std::unique_ptr<SmState>> states_;
};

} // namespace finereg

#endif // FINEREG_POLICIES_REGMUTEX_POLICY_HH
