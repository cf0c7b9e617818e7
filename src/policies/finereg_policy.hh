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
#include "policies/policy.hh"
#include "policies/ready_queue.hh"
#include "sm/sm.hh"
#include "regfile/cta_status_monitor.hh"
#include "regfile/pcrf.hh"
#include "regfile/register_file.hh"
#include "regfile/rmu.hh"

namespace finereg
{

class FineRegPolicy : public Policy
{
  public:
    const char *name() const override { return "FineReg"; }

    void tick(Sm &sm, Cycle now) override;
    void onCtaFinished(Sm &sm, Cta &cta, Cycle now) override;
    bool rfDepletionBlocked(const Sm &sm, Cycle now) const override;
    Cycle nextEventCycle(const Sm &sm, Cycle now) const override;

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

    /** Pending CTAs and their operand-ready estimates. */
    const ReadyQueue &readyOf(const Sm &sm) const { return state(sm).ready; }

    /** Mutable introspection for corruption/fault-injection tests. */
    Pcrf &mutablePcrfOf(const Sm &sm) { return *state(sm).pcrf; }
    RegFileAllocator &mutableAcrfOf(const Sm &sm) { return *state(sm).acrf; }
    ReadyQueue &mutableReadyOf(const Sm &sm) { return state(sm).ready; }

  protected:
    void onBind() override;

  private:
    struct SmState
    {
        std::unique_ptr<RegFileAllocator> acrf;
        std::unique_ptr<Pcrf> pcrf;
        std::unique_ptr<Rmu> rmu;
        CtaStatusMonitor monitor;

        /** Pending CTAs by estimated operand-ready cycle. */
        ReadyQueue ready;

        /** Fig. 14 flag: a switch was blocked by PCRF depletion. */
        bool pcrfBlocked = false;

        /** Scratch for restoreCtaLastPositions (per-warp 1-based chain
         * position of the last restored register); reused every switch
         * so the hot path never allocates. */
        std::vector<unsigned> posScratch;
    };

    SmState &state(const Sm &sm) const { return *states_[sm.id()]; }

    /** Partner test: a fresh grid CTA can grow the resident set, or a
     * pending CTA is ready to resume. */
    SwitchPartner findPartner(Sm &sm, Cycle now) const;

    /** Restore a pending CTA into the ACRF (allocates full set). */
    void restoreCta(Sm &sm, Cta &cta, Cycle now, Cycle extra_latency);

    /**
     * Pipelined chain walk: wake each warp when its registers land.
     * @p last_pos holds, per warp, the 1-based chain position of the
     * warp's final register (0 = none in the chain).
     */
    void wakeWarpsAsRegistersArrive(Sm &sm, Cta &cta,
                                    const std::vector<unsigned> &last_pos,
                                    Cycle start);

    /** Evict a fully stalled CTA's live registers into the PCRF. */
    void evictCta(Sm &sm, Cta &cta, const Rmu::Gather &gather, Cycle now);

    void fillActiveSlots(Sm &sm, Cycle now);
    void switchStalledCtas(Sm &sm, Cycle now);

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
