/**
 * @file
 * Gpu: the full device — SMs, shared memory hierarchy, CTA dispatcher, and
 * the management policy. Runs the kernel to completion with event-driven
 * cycle skipping (idle stretches where every warp waits on memory are
 * fast-forwarded to the next wake-up, with occupancy stats accumulated
 * across the gap).
 */

#ifndef FINEREG_SM_GPU_HH
#define FINEREG_SM_GPU_HH

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/gpu_config.hh"
#include "mem/mem_hierarchy.hh"
#include "policies/policy.hh"
#include "ref/arch_state.hh"
#include "sm/cta_dispatcher.hh"
#include "sm/kernel_context.hh"
#include "sm/sm.hh"
#include "verify/fault_injection.hh"

namespace finereg
{

struct GpuRunResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    unsigned completedCtas = 0;
    bool hitCycleLimit = false;

    /** Watchdog-style stall summary, filled when the cycle cap is hit. */
    std::string stallDiagnostic;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles : 0.0;
    }
};

class Gpu
{
  public:
    /**
     * Build a device for @p kernel under @p config with the given policy
     * (pass nullptr to use makePolicy(config)).
     */
    Gpu(const GpuConfig &config, const Kernel &kernel,
        std::unique_ptr<Policy> policy = nullptr);
    ~Gpu();

    /** Execute the grid to completion (or the cycle cap). */
    GpuRunResult run();

    const GpuConfig &config() const { return config_; }
    const KernelContext &context() const { return *context_; }
    CtaDispatcher &dispatcher() { return dispatcher_; }
    MemHierarchy &mem() { return *mem_; }
    StatGroup &stats() { return stats_; }
    Policy &policy() { return *policy_; }

    std::vector<std::unique_ptr<Sm>> &sms() { return sms_; }

    Cycle nowCycle() const { return now_; }

    /** Active fault injector, or nullptr when fault injection is off. */
    FaultInjector *faultInjector() { return fault_.get(); }

    /**
     * The architectural end state accumulated from retired CTAs (null
     * unless config.trackValues). CTAs that never retired — cycle cap,
     * aborted run — stay !completed() in the returned state.
     */
    std::shared_ptr<const ArchState> takeArchState()
    {
        return std::move(archState_);
    }

  private:
    GpuConfig config_;
    StatGroup stats_;
    std::unique_ptr<KernelContext> context_;
    std::unique_ptr<MemHierarchy> mem_;
    std::vector<std::unique_ptr<Sm>> sms_;
    CtaDispatcher dispatcher_;
    std::unique_ptr<FaultInjector> fault_;
    std::unique_ptr<Policy> policy_;
    std::shared_ptr<ArchState> archState_;
    Cycle now_ = 0;

    Counter *cyclesCtr_;
    Counter *depletionStallCycles_;
    Counter *loopIterations_;
    Counter *skippedCycles_;
    Counter *fullAudits_;
    Counter *edgeAudits_;
};

} // namespace finereg

#endif // FINEREG_SM_GPU_HH
