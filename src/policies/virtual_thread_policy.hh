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

#include "policies/policy.hh"
#include "policies/ready_queue.hh"
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

    /** Auditor: RF accounting and the ready queue. */
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
        /** Pending CTAs by estimated ready cycle. */
        ReadyQueue ready;
    };

    SmState &state(const Sm &sm) const
    {
        return *states_[sm.id()];
    }

    /** Resume ready pending CTAs and launch grid CTAs into free slots. */
    void fillActiveSlots(Sm &sm, Cycle now);

    /** Partner test: a fresh grid CTA fits the register file, or a
     * pending CTA is ready to resume. Reg+DRAM's on-chip half. */
    SwitchPartner findPartner(Sm &sm, Cycle now) const;

    /** Detect fully stalled active CTAs and switch them out. */
    void switchStalledCtas(Sm &sm, Cycle now);

    /** RF accounting over handle-holding resident CTAs (also covers
     * Reg+DRAM, whose demoted CTAs hold no handle). */
    void auditRegFile(const Sm &sm, Cycle now) const;

  private:
    mutable std::vector<std::unique_ptr<SmState>> states_;
};

} // namespace finereg

#endif // FINEREG_POLICIES_VIRTUAL_THREAD_POLICY_HH
