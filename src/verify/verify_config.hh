/**
 * @file
 * Configuration for the hardened-core verification layer: the invariant
 * auditor and the deadlock/livelock watchdog. Lives in GpuConfig::verify.
 */

#ifndef FINEREG_VERIFY_VERIFY_CONFIG_HH
#define FINEREG_VERIFY_VERIFY_CONFIG_HH

#include <atomic>
#include <memory>

#include "common/types.hh"

namespace finereg
{

/**
 * Cooperative cancellation token shared between a running simulation and
 * the JobGuard deadline monitor. The monitor sets it when the run's
 * wall-clock deadline expires; the Gpu run loop polls it once per
 * iteration and aborts the run with a typed Timeout SimError.
 */
class CancelToken
{
  public:
    /** Flag the deadline as expired. */
    void expire() { expired_.store(true, std::memory_order_release); }

    bool expired() const { return expired_.load(std::memory_order_acquire); }

  private:
    std::atomic<bool> expired_{false};
};

struct VerifyConfig
{
    /**
     * Invariant-auditor period in cycles; 0 disables. With N > 0 the
     * auditor walks the full simulator state at least once every N
     * simulated cycles (at run-loop granularity) and throws a typed
     * SimError on the first violated invariant.
     */
    Cycle auditInterval = 0;

    /**
     * Edge-audit sampling: with auditing enabled, every CTA state
     * transition (launch/suspend/resume/finish) marks its SM for a
     * targeted audit after the policy tick, and every Nth such edge per
     * SM actually runs one. 0 = auto: every edge in Debug builds, every
     * 64th in Release. auditInterval == 1 always audits every edge
     * (full-rate), matching --audit-interval 1 semantics. Transition
     * edges are where the switching invariants can break; the periodic
     * full audit still bounds how long any corruption can hide.
     */
    unsigned auditEdgeEvery = 0;

    /**
     * Deadlock watchdog: fail the run with a structured diagnostic when
     * no instruction issues and no CTA completes for this many cycles.
     * 0 disables. The default fires far below the 20M-cycle safety cap;
     * no legitimate workload idles the whole device this long.
     */
    Cycle watchdogCycles = 2'000'000;

    /**
     * Cooperative cancellation token, polled once per run-loop iteration.
     * Null (the default) disables the check. Installed per job by the
     * JobGuard; runtime-only, excluded from config fingerprints.
     */
    std::shared_ptr<CancelToken> cancel;
};

} // namespace finereg

#endif // FINEREG_VERIFY_VERIFY_CONFIG_HH
