/**
 * @file
 * Reg+DRAM: the Zorua-like comparator (Sec. VI-A). Virtual Thread's on-chip
 * switching plus a second tier of pending CTAs whose register contexts are
 * written to off-chip DRAM, freeing their register-file allocation so yet
 * more CTAs can launch. Every demotion/promotion moves the CTA's full
 * register context across the DRAM channel (TrafficClass::CtaContext) —
 * the traffic Fig. 15 charges this scheme for.
 */

#ifndef FINEREG_POLICIES_REG_DRAM_POLICY_HH
#define FINEREG_POLICIES_REG_DRAM_POLICY_HH

#include <vector>

#include "policies/ready_queue.hh"
#include "policies/virtual_thread_policy.hh"

namespace finereg
{

class RegDramPolicy final : public VirtualThreadPolicy
{
  public:
    const char *name() const override { return "Reg+DRAM"; }

    void tick(Sm &sm, Cycle now) override { switchingTick(*this, sm, now); }
    Cycle nextEventCycle(const Sm &sm, Cycle now) const override;

    /** Auditor: RF accounting and both tiers' ready queues. */
    void audit(const Sm &sm, Cycle now) const override;

    /** Either tier's ready estimate. */
    Cycle readyCycle(const Sm &sm, const Cta &cta) const override;

  protected:
    void onBind() override;

  private:
    friend class SwitchingPolicy;

    struct DramState
    {
        /** CTAs whose register context lives in DRAM, by the cycle their
         * operands are expected back (stall resolution). */
        ReadyQueue inDram;

        /** Demotion rate limiter: context movement is budgeted to a
         * small fraction of channel bandwidth (Fig. 15 measures
         * Reg+DRAM at +7-10% traffic, not a channel takeover). */
        Cycle nextDemoteAllowed = 0;
    };

    DramState &dram(const Sm &sm) const { return dramStates_[sm.id()]; }

    /** Full per-CTA register context size in bytes. */
    std::uint64_t contextBytes(const Sm &sm) const;

    /** Demote a suspended CTA, ready at @p ready, to DRAM; frees its RF. */
    void demoteToDram(Sm &sm, Cta &cta, Cycle ready, Cycle now);

    /** Promote a DRAM CTA back: allocate RF, stream context in, resume. */
    void promoteFromDram(Sm &sm, Cta &cta, Cycle now);

    /** Fill: promote a ready DRAM-tier CTA if its registers fit again. */
    bool resumeSecondTier(Sm &sm, Cycle now);

    /** Cycles the DRAM channel needs to move one CTA's full context. */
    Cycle contextCycles(const Sm &sm) const;

    /** The CTA-independent half of switch (c): room to demote a stalled
     * CTA to the DRAM tier for a fresh or ready DRAM-tier CTA. */
    bool demoteRoom(const Sm &sm, Cycle now) const;

    /** The per-CTA half of (c): the stall, ending at @p ready_estimate,
     * outlasts the context round trip. */
    bool worthDemoting(const Sm &sm, Cycle ready_estimate, Cycle now) const;

    /** Virtual Thread's switch with an on-chip partner, else (c). */
    void switchOut(Sm &sm, Cta &cta, const SwitchPartner &partner,
                   Cycle now);

    mutable std::vector<DramState> dramStates_;
};

} // namespace finereg

#endif // FINEREG_POLICIES_REG_DRAM_POLICY_HH
