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
#include <memory>

#include "common/types.hh"

namespace finereg
{

class Cta;
class CtaDispatcher;
class Gpu;
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

  private:
    Gpu *gpu_ = nullptr;

    /** Cached at bind(): the dispatcher is looked up once, not per tick. */
    CtaDispatcher *dispatcher_ = nullptr;
};

/** Instantiate the policy selected by @p config.policy.kind. */
std::unique_ptr<Policy> makePolicy(const GpuConfig &config);

} // namespace finereg

#endif // FINEREG_POLICIES_POLICY_HH
