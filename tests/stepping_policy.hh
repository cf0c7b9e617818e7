/**
 * @file
 * Test-only policy wrappers. ForwardingPolicy forwards every hook to a
 * wrapped policy so subclasses can observe or adjust single hooks.
 * SteppingPolicy is the reference for idle skipping: its nextEventCycle()
 * always answers now+1, so Gpu::run visits every cycle instead of jumping
 * to the next wake. A skipping run must match its stepping twin in
 * cycles, instructions, DRAM traffic and end state; a wake source missing
 * from Sm::nextWakeCycle or a policy's nextEventCycle shows up as a
 * mismatch. (Energy may differ: refused FineReg swaps are charged once
 * per tick, DESIGN.md §14.)
 */

#ifndef FINEREG_TESTS_STEPPING_POLICY_HH
#define FINEREG_TESTS_STEPPING_POLICY_HH

#include <memory>

#include "core/simulator.hh"
#include "policies/policy.hh"

namespace finereg
{

/** Forwards every hook to a wrapped policy; subclasses observe ticks. */
class ForwardingPolicy : public Policy
{
  public:
    explicit ForwardingPolicy(std::unique_ptr<Policy> inner)
        : inner_(std::move(inner))
    {}

    const char *name() const override { return inner_->name(); }

    void tick(Sm &sm, Cycle now) override { inner_->tick(sm, now); }

    void
    onCtaFinished(Sm &sm, Cta &cta, Cycle now) override
    {
        inner_->onCtaFinished(sm, cta, now);
    }

    bool
    rfDepletionBlocked(const Sm &sm, Cycle now) const override
    {
        return inner_->rfDepletionBlocked(sm, now);
    }

    Cycle
    nextEventCycle(const Sm &sm, Cycle now) const override
    {
        return inner_->nextEventCycle(sm, now);
    }

    std::uint64_t
    storageOverheadBits() const override
    {
        return inner_->storageOverheadBits();
    }

    void
    audit(const Sm &sm, Cycle now) const override
    {
        inner_->audit(sm, now);
    }

  protected:
    void onBind() override { inner_->bind(gpu()); }

  private:
    std::unique_ptr<Policy> inner_;
};

/** Wraps a policy so that Gpu::run ticks every cycle. */
class SteppingPolicy : public ForwardingPolicy
{
  public:
    using ForwardingPolicy::ForwardingPolicy;

    Cycle
    nextEventCycle(const Sm &, Cycle now) const override
    {
        return now + 1;
    }
};

/** Simulator::run with config's policy stepped through every cycle. */
inline SimResult
runStepping(const GpuConfig &config, const Kernel &kernel)
{
    return Simulator::run(config, kernel,
                          std::make_unique<SteppingPolicy>(
                              makePolicy(config)));
}

} // namespace finereg

#endif // FINEREG_TESTS_STEPPING_POLICY_HH
