/**
 * @file
 * Abstract CTA/register management policy. The SM provides mechanisms
 * (launch/suspend/resume, slot accounting); a Policy owns all decisions:
 * when to launch grid CTAs, when to evict a stalled CTA, where its register
 * context lives, and when to reactivate it. One Policy instance serves every
 * SM of the GPU and keeps per-SM state internally.
 */

#ifndef FINEREG_POLICIES_POLICY_HH
#define FINEREG_POLICIES_POLICY_HH

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace finereg
{

class Cta;
class CtaDispatcher;
class Gpu;
class ReadyQueue;
class Sm;
struct GpuConfig;

class Policy
{
  public:
    virtual ~Policy() = default;

    /** Called once by the Gpu before simulation starts. */
    void bind(Gpu &gpu);

    virtual const char *name() const = 0;

    /**
     * Per-cycle decision hook, invoked after the SM's issue stage. Launch
     * CTAs, detect fully stalled CTAs, perform switches.
     */
    virtual void tick(Sm &sm, Cycle now) = 0;

    /** A CTA on @p sm retired; release its register resources. */
    virtual void onCtaFinished(Sm &sm, Cta &cta, Cycle now) = 0;

    /**
     * Fig. 14 predicate: the SM has runnable work that is blocked purely by
     * register-file depletion (no SRP / no PCRF space).
     */
    virtual bool rfDepletionBlocked(const Sm &sm, Cycle now) const;

    /**
     * Earliest future cycle at which this policy wants a tick on @p sm
     * (pending-CTA readiness, switch completions). kNoCycle when none.
     * Every decision input that changes with time alone must be reported
     * here: when no warp issues, Gpu::run jumps straight to this cycle.
     */
    virtual Cycle nextEventCycle(const Sm &sm, Cycle now) const;

    /** Extra SRAM the scheme needs, in bits (Sec. V-F accounting). */
    virtual std::uint64_t storageOverheadBits() const { return 0; }

    /**
     * Invariant-auditor hook: verify the policy's own bookkeeping for
     * @p sm (allocator accounting, PCRF chain integrity, status-monitor
     * legality, ...). Throws an InvariantViolation SimException on the
     * first broken invariant; the default policy has nothing to check.
     */
    virtual void audit(const Sm &sm, Cycle now) const;

  protected:
    /** Policy-specific initialization once the Gpu is known. */
    virtual void onBind() {}

    Gpu &gpu() const { return *gpu_; }
    CtaDispatcher &dispatcher() const { return *dispatcher_; }
    const GpuConfig &config() const;

    /**
     * CTAs per SM a conventional GPU could keep active for this kernel:
     * min(CTA slots, warp slots, thread slots, full-RF fit, shmem fit).
     * Used to scale the pending-growth damper. A pure function of the
     * kernel and the SM config — both fixed for a run — so it is computed
     * once and cached.
     */
    unsigned baselineActiveEstimate(const Sm &sm) const;

    /** Fixed cost of a context switch (pipeline drain + context parking,
     * after VT's switching logic); 0 under the zero-latency ablation. */
    Cycle switchLatency() const;

    /** True once the pending set is large enough to hide stalls; growth
     * beyond this only enlarges the cache working set. */
    bool pendingSaturated(const Sm &sm) const;

    /**
     * Active CTAs whose warps are all blocked on global memory this
     * cycle (Sec. IV-A's switch candidates). Memoizes each CTA's
     * stalled-until horizon so warps are not rescanned every cycle.
     * Returns a reference to an internal scratch vector, valid until the
     * next call.
     */
    const std::vector<Cta *> &collectStalledCtas(Sm &sm, Cycle now) const;

    /** Auditor check of a switching policy's ready queues on @p sm: each
     * Pending CTA sits in exactly one of @p queues, no other CTA sits in
     * any, and each queue is in (ready, launchSeq) order. */
    void auditReadyQueues(
        const Sm &sm, Cycle now,
        std::initializer_list<const ReadyQueue *> queues) const;

    /**
     * What could take a fully stalled CTA's place (Sec. IV-A): a fresh
     * grid CTA, or the soonest-ready pending CTA. Neither depends on
     * which CTA stalled, so switching policies test for a partner before
     * they scan for stalled CTAs (DESIGN.md §14, "Stall switching").
     */
    struct SwitchPartner
    {
        bool canGrow = false;        ///< a fresh grid CTA may launch
        Cta *readyPending = nullptr; ///< soonest ready pending CTA
        explicit operator bool() const { return canGrow || readyPending; }
    };

    /**
     * Debug builds only: the partner test just failed on @p sm, so no
     * stalled CTA may pass the full per-CTA switch test @p would_switch
     * (called as would_switch(Cta &)). Collects the stalled CTAs the
     * gate skipped and panics on the first that would have switched.
     */
    template <typename WouldSwitch>
    void
    checkNoSwitchMissed(Sm &sm, Cycle now, WouldSwitch &&would_switch) const
    {
#ifndef NDEBUG
        for (Cta *cta : collectStalledCtas(sm, now)) {
            if (would_switch(*cta))
                panicMissedSwitch(sm, *cta, now);
        }
#else
        (void)sm;
        (void)now;
        (void)would_switch;
#endif
    }

  private:
    [[noreturn]] void panicMissedSwitch(const Sm &sm, const Cta &cta,
                                        Cycle now) const;

    Gpu *gpu_ = nullptr;

    /** Cached at bind(): the dispatcher is looked up once, not per tick. */
    CtaDispatcher *dispatcher_ = nullptr;

    /** Cache for baselineActiveEstimate (0 = not yet computed; the
     * estimate itself is always >= 1). */
    mutable unsigned baselineEstimate_ = 0;

    mutable std::vector<Cta *> stalledScratch_;
};

/** Instantiate the policy selected by @p config.policy.kind. */
std::unique_ptr<Policy> makePolicy(const GpuConfig &config);

} // namespace finereg

#endif // FINEREG_POLICIES_POLICY_HH
