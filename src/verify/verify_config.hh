/**
 * @file
 * Configuration for the hardened-core verification layer: the invariant
 * auditor, the deadlock/livelock watchdog, and the deterministic
 * fault-injection harness. Lives in GpuConfig::verify.
 */

#ifndef FINEREG_VERIFY_VERIFY_CONFIG_HH
#define FINEREG_VERIFY_VERIFY_CONFIG_HH

#include <atomic>
#include <cstdint>
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

/**
 * Deterministic fault injection (seeded from the simulator's Rng). A zero
 * seed disables every injection point; with a nonzero seed each point
 * fires with its configured probability, and the injected schedule is a
 * pure function of the seed and the (deterministic) simulation, so the
 * same seed always produces the same faults.
 */
struct FaultConfig
{
    /** Master switch: 0 disables all injection. */
    std::uint64_t seed = 0;

    /** P(extra delay) per DRAM transfer, and the delay applied. Delaying
     * individual transfers while others proceed also reorders response
     * completion relative to the fault-free schedule. */
    double dramDelayProb = 0.01;
    Cycle dramDelayCycles = 400;

    /** P(the PCRF reports itself full) per canStore query during a CTA
     * switch — forces FineReg onto its PCRF-full fallback paths. */
    double pcrfFullProb = 0.02;

    /** P(a bit-vector cache hit is turned into a miss) per lookup —
     * forces the off-chip 12-byte table fetch. */
    double bitvecMissProb = 0.05;

    bool enabled() const { return seed != 0; }
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

    FaultConfig fault;

    /**
     * Cooperative cancellation token, polled once per run-loop iteration.
     * Null (the default) disables the check. Installed per job by the
     * JobGuard; runtime-only, excluded from config fingerprints.
     */
    std::shared_ptr<CancelToken> cancel;
};

} // namespace finereg

#endif // FINEREG_VERIFY_VERIFY_CONFIG_HH
