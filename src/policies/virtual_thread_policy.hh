/**
 * @file
 * Virtual Thread [Yoon+ ISCA'16] comparator. Extra CTAs become resident —
 * with their *full* register allocation kept in the RF — beyond the
 * scheduler limit: when every warp of an active CTA stalls on memory, the
 * CTA's pipeline context parks in shared memory (the CTA turns Pending,
 * its registers stay put) and a new CTA launches or a ready pending CTA
 * resumes in its scheduler slot. Residency is bounded by RF and shared
 * memory capacity, which is why VT gains nothing on Type-R workloads.
 */

#ifndef FINEREG_POLICIES_VIRTUAL_THREAD_POLICY_HH
#define FINEREG_POLICIES_VIRTUAL_THREAD_POLICY_HH

#include <memory>
#include <vector>

#include "policies/pending_ready.hh"
#include "policies/policy.hh"
#include "sm/sm.hh"
#include "regfile/register_file.hh"

namespace finereg
{

class VirtualThreadPolicy : public Policy
{
  public:
    const char *name() const override { return "VirtualThread"; }

    void tick(Sm &sm, Cycle now) override;
    void onCtaFinished(Sm &sm, Cta &cta, Cycle now) override;
    Cycle nextEventCycle(const Sm &sm, Cycle now) const override;

    /** Auditor: RF accounting over handle-holding resident CTAs (also
     * covers Reg+DRAM, whose demoted CTAs hold no handle). */
    void audit(const Sm &sm, Cycle now) const override;

    /** VT CTA-switching logic storage (Sec. V-F cites 2.4 KB). */
    std::uint64_t storageOverheadBits() const override
    {
        return std::uint64_t(2400) * 8;
    }

  protected:
    void onBind() override;

    struct SmState
    {
        std::unique_ptr<RegFileAllocator> rf;
        /** Pending CTA -> estimated ready cycle. */
        PendingReadySet pendingReady;
    };

    SmState &state(const Sm &sm) const
    {
        return *states_[sm.id()];
    }

    /** Resume ready pending CTAs and launch grid CTAs into free slots. */
    void fillActiveSlots(Sm &sm, Cycle now);

    /** Pick the pending CTA with the smallest ready cycle (<= @p at_most);
     * returns nullptr when none qualify. */
    Cta *bestPendingCta(Sm &sm, Cycle at_most) const;

    /** Partner test: a fresh grid CTA fits the register file, or a
     * pending CTA is ready to resume. Reg+DRAM's on-chip half. */
    SwitchPartner findPartner(Sm &sm, Cycle now) const;

    /** Detect fully stalled active CTAs and switch them out. */
    void switchStalledCtas(Sm &sm, Cycle now);

    /** On-chip context switch latency (pipeline drain + shared-memory
     * context parking), adopted from VT's switching logic. */
    Cycle switchLatency() const;

  private:
    mutable std::vector<std::unique_ptr<SmState>> states_;
};

} // namespace finereg

#endif // FINEREG_POLICIES_VIRTUAL_THREAD_POLICY_HH
