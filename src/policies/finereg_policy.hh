/**
 * @file
 * FineReg (Secs. IV-V): the register file is split into the ACRF (full
 * allocations of active CTAs) and the PCRF (live registers of pending CTAs
 * as tagged chains). When all warps of an active CTA stall on memory, the
 * RMU gathers the warps' live-register bit vectors (bit-vector cache;
 * misses fetch 12 B from off-chip), the live registers move into the PCRF,
 * the CTA's ACRF allocation is released, and either a fresh CTA launches or
 * a ready pending CTA is restored. When the PCRF is full, only
 * ACRF<->PCRF context switches happen, and only when the stalled CTA's
 * live set fits the space a departing pending CTA frees (Sec. V-E). The
 * CTA status monitor tracks Table IV's context/register location encoding.
 */

#ifndef FINEREG_POLICIES_FINEREG_POLICY_HH
#define FINEREG_POLICIES_FINEREG_POLICY_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "policies/switching_policy.hh"
#include "regfile/cta_status_monitor.hh"
#include "regfile/pcrf.hh"
#include "regfile/register_file.hh"
#include "regfile/rmu.hh"

namespace finereg
{

class FineRegPolicy final : public SwitchingPolicy
{
  public:
    const char *name() const override { return "FineReg"; }

    void tick(Sm &sm, Cycle now) override { switchingTick(*this, sm, now); }
    void onCtaFinished(Sm &sm, Cta &cta, Cycle now) override;

    /** Invariant auditor: PCRF chains, ACRF accounting, Table IV states. */
    void audit(const Sm &sm, Cycle now) const override;

    /** Sec. V-F storage accounting: status monitor + bit-vector cache +
     * PCRF pointer table + PCRF tags + CTA switching logic (2.4 KB). */
    std::uint64_t storageOverheadBits() const override;

    /** Introspection for tests/benches. */
    const Pcrf &pcrfOf(const Sm &sm) const { return *state(sm).pcrf; }
    const CtaStatusMonitor &monitorOf(const Sm &sm) const
    {
        return state(sm).monitor;
    }
    const RegFileAllocator &acrfOf(const Sm &sm) const
    {
        return *state(sm).acrf;
    }

    /** Mutable introspection for corruption/fault-injection tests. */
    Pcrf &mutablePcrfOf(const Sm &sm) { return *state(sm).pcrf; }
    RegFileAllocator &mutableAcrfOf(const Sm &sm) { return *state(sm).acrf; }

  protected:
    void onBind() override;

  private:
    friend class SwitchingPolicy;

    struct SmState
    {
        std::unique_ptr<RegFileAllocator> acrf;
        std::unique_ptr<Pcrf> pcrf;
        std::unique_ptr<Rmu> rmu;
        CtaStatusMonitor monitor;

        /** Scratch for restoreCtaLastPositions (per-warp 1-based chain
         * position of the last restored register); reused every switch
         * so the hot path never allocates. */
        std::vector<unsigned> posScratch;
    };

    SmState &state(const Sm &sm) const { return *states_[sm.id()]; }

    /** Hooks (switching_policy.hh). Every fill branch needs a full ACRF
     * allocation; a restore drains the CTA's PCRF chain (positions into
     * posScratch), allocates the ACRF, and wakes each warp as its
     * registers land, so a fill restore pays no switch latency. */
    bool
    canFill(const Sm &sm) const
    {
        return state(sm).acrf->canAllocate(
            sm.context().kernel().warpRegsPerCta());
    }
    bool reclaimContext(Sm &sm, Cta &cta);
    void onResumed(Sm &sm, Cta &cta, Cycle wake);
    Cycle fillResumeLatency() const { return 0; }
    void onLaunched(Sm &sm, Cta &cta);
    void countStalled(std::size_t n) { stalledFound_->inc(n); }
    void countNoPartner() { noPartner_->inc(); }

    /** Fig. 6: evict @p cta to the PCRF and restore or launch a partner,
     * or swap with a ready CTA whose chain frees enough PCRF entries. */
    void switchOut(Sm &sm, Cta &cta, const SwitchPartner &partner,
                   Cycle now);

    /** Evict a fully stalled CTA's live registers into the PCRF. */
    void evictCta(Sm &sm, Cta &cta, const Rmu::Gather &gather, Cycle now);

    mutable std::vector<std::unique_ptr<SmState>> states_;

    /** Per-tick counters, cached at bind so the hot path skips the
     * name-keyed stats lookup. stalledFound_ counts the stalled CTAs the
     * scan examined; noPartner_ counts SM-ticks whose partner test
     * failed, before or during the scan. */
    Counter *stalledFound_ = nullptr;
    Counter *noPartner_ = nullptr;
};

} // namespace finereg

#endif // FINEREG_POLICIES_FINEREG_POLICY_HH
