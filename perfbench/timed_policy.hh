/**
 * @file
 * TimedPolicy: a Policy that wraps the one makePolicy(config) builds,
 * forwards every public hook to it, and times the hooks Gpu::run calls,
 * from outside the library. It only observes: each hook passes the same
 * arguments and returns the wrapped policy's answer unchanged, so simulated
 * results are identical with and without the wrapper (run.py checks this on
 * every traced cell).
 *
 * One known limit: the watchdog's stall dump looks for FineReg detail with
 * dynamic_cast<const FineRegPolicy *>(&gpu.policy()), which cannot see
 * through the wrapper, so a traced run's stall dump omits that detail.
 */

#ifndef FINEREG_PERFBENCH_TIMED_POLICY_HH
#define FINEREG_PERFBENCH_TIMED_POLICY_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "policies/policy.hh"

namespace perfbench
{

/**
 * Hook timer. On x86 it reads the time-stamp counter: about 22 ns a read
 * against about 38 ns for steady_clock on a 4-core x86_64 VM, and a pair
 * brackets every hook call. Elsewhere it falls back to steady_clock.
 * Totals are converted to ns with a rate calibrated against steady_clock
 * over each Gpu::run, so either source gives ns.
 */
inline std::uint64_t
cpuTicks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return std::chrono::steady_clock::now().time_since_epoch().count();
#endif
}

/** Accumulated time and call count of one hook. */
struct HookTime
{
    std::uint64_t ticks = 0;
    std::uint64_t calls = 0;
};

class TimedPolicy final : public finereg::Policy
{
  public:
    enum Hook
    {
        Tick,
        NextEvent,
        DepletionCheck,
        CtaFinished,
        Audit,
        kNumHooks
    };

    explicit TimedPolicy(std::unique_ptr<finereg::Policy> inner)
        : inner_(std::move(inner))
    {}

    const char *name() const override { return inner_->name(); }

    void
    tick(finereg::Sm &sm, finereg::Cycle now) override
    {
        Scope scope(hooks_[Tick]);
        inner_->tick(sm, now);
    }

    void
    onCtaFinished(finereg::Sm &sm, finereg::Cta &cta,
                  finereg::Cycle now) override
    {
        Scope scope(hooks_[CtaFinished]);
        inner_->onCtaFinished(sm, cta, now);
    }

    bool
    rfDepletionBlocked(const finereg::Sm &sm,
                       finereg::Cycle now) const override
    {
        Scope scope(hooks_[DepletionCheck]);
        return inner_->rfDepletionBlocked(sm, now);
    }

    finereg::Cycle
    nextEventCycle(const finereg::Sm &sm, finereg::Cycle now) const override
    {
        Scope scope(hooks_[NextEvent]);
        return inner_->nextEventCycle(sm, now);
    }

    std::uint64_t
    storageOverheadBits() const override
    {
        return inner_->storageOverheadBits();
    }

    void
    audit(const finereg::Sm &sm, finereg::Cycle now) const override
    {
        Scope scope(hooks_[Audit]);
        inner_->audit(sm, now);
    }

    const HookTime &hook(Hook h) const { return hooks_[h]; }

  protected:
    void onBind() override { inner_->bind(gpu()); }

  private:
    /** Adds the ticks of one hook call to its total, on every exit path. */
    class Scope
    {
      public:
        explicit Scope(HookTime &time) : time_(time), start_(cpuTicks()) {}
        ~Scope()
        {
            time_.ticks += cpuTicks() - start_;
            ++time_.calls;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        HookTime &time_;
        std::uint64_t start_;
    };

    std::unique_ptr<finereg::Policy> inner_;
    mutable std::array<HookTime, kNumHooks> hooks_{};
};

} // namespace perfbench

#endif // FINEREG_PERFBENCH_TIMED_POLICY_HH
