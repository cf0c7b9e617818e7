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

#include "policies/switching_policy.hh"
#include "regfile/register_file.hh"

namespace finereg
{

class VirtualThreadPolicy : public SwitchingPolicy
{
  public:
    const char *name() const override { return "VirtualThread"; }

    void tick(Sm &sm, Cycle now) override { switchingTick(*this, sm, now); }
    void onCtaFinished(Sm &sm, Cta &cta, Cycle now) override;

    /** Auditor: RF accounting and the ready queue. */
    void audit(const Sm &sm, Cycle now) const override;

    /** VT CTA-switching logic storage (Sec. V-F cites 2.4 KB). */
    std::uint64_t storageOverheadBits() const override
    {
        return std::uint64_t(2400) * 8;
    }

  protected:
    friend class SwitchingPolicy;

    void onBind() override;

    RegFileAllocator &rf(const Sm &sm) const { return *rfs_[sm.id()]; }

    /** Hooks (switching_policy.hh): a fresh CTA takes its full
     * allocation in the register file. */
    bool
    hasLaunchRoom(const Sm &sm) const
    {
        return rf(sm).canAllocate(sm.context().kernel().warpRegsPerCta());
    }
    void
    onLaunched(Sm &sm, Cta &cta)
    {
        cta.regAllocHandle =
            rf(sm).allocate(sm.context().kernel().warpRegsPerCta());
    }

    /** Park @p cta's pipeline context (its registers stay put), then
     * launch a fresh CTA or resume the ready one in its slot. */
    void switchOut(Sm &sm, Cta &cta, const SwitchPartner &partner,
                   Cycle now);

    /** RF accounting over handle-holding resident CTAs (also covers
     * Reg+DRAM, whose demoted CTAs hold no handle). */
    void auditRegFile(const Sm &sm, Cycle now) const;

  private:
    std::vector<std::unique_ptr<RegFileAllocator>> rfs_;
};

} // namespace finereg

#endif // FINEREG_POLICIES_VIRTUAL_THREAD_POLICY_HH
