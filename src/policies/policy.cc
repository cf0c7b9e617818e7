#include "policies/policy.hh"

#include <algorithm>

#include "sm/cta.hh"

#include "common/log.hh"
#include "core/gpu_config.hh"
#include "policies/baseline_policy.hh"
#include "policies/finereg_policy.hh"
#include "policies/ready_queue.hh"
#include "policies/reg_dram_policy.hh"
#include "policies/regmutex_policy.hh"
#include "policies/virtual_thread_policy.hh"
#include "sm/gpu.hh"
#include "verify/sim_error.hh"

namespace finereg
{

void
Policy::bind(Gpu &gpu)
{
    gpu_ = &gpu;
    dispatcher_ = &gpu.dispatcher();
    onBind();
}

const GpuConfig &
Policy::config() const
{
    return gpu_->config();
}

unsigned
Policy::baselineActiveEstimate(const Sm &sm) const
{
    if (baselineEstimate_ != 0)
        return baselineEstimate_;
    const Kernel &kernel = sm.context().kernel();
    const SmConfig &smc = config().sm;
    unsigned estimate = std::min(
        {smc.maxCtas, smc.maxWarps / kernel.warpsPerCta(),
         smc.maxThreads / kernel.threadsPerCta()});
    const std::uint64_t cta_reg_bytes = kernel.regBytesPerCta();
    if (cta_reg_bytes > 0) {
        estimate = std::min<std::uint64_t>(
            estimate, smc.regFileBytes / cta_reg_bytes);
    }
    if (kernel.shmemPerCta() > 0) {
        estimate = std::min<std::uint64_t>(
            estimate, smc.shmemBytes / kernel.shmemPerCta());
    }
    baselineEstimate_ = std::max(1u, estimate);
    return baselineEstimate_;
}

Cycle
Policy::switchLatency() const
{
    return config().policy.zeroSwitchLatency
               ? 0
               : config().policy.switchBaseLatency;
}

bool
Policy::pendingSaturated(const Sm &sm) const
{
    return sm.pendingCtaCount() >=
           config().policy.pendingGrowthFactor *
               baselineActiveEstimate(sm);
}

const std::vector<Cta *> &
Policy::collectStalledCtas(Sm &sm, Cycle now) const
{
    std::vector<Cta *> &stalled = stalledScratch_;
    stalled.clear();
    // activeCtaList() is the Active subset of residentCtas() in the same
    // (launch-sequence) order, so the collected order is unchanged.
    for (Cta *cta : sm.activeCtaList()) {
        if (cta->lastIssueCycle() == now)
            continue;
        if (cta->stalledOnMemoryCached(now))
            stalled.push_back(cta);
    }
    return stalled;
}

void
Policy::auditReadyQueues(
    const Sm &sm, Cycle now,
    std::initializer_list<const ReadyQueue *> queues) const
{
    const auto fail = [&](const char *what, GridCtaId cta) {
        raiseInvariant("monitor-state", what, cta, sm.id(), now);
    };
    std::size_t queued = 0;
    for (const ReadyQueue *queue : queues) {
        queued += queue->size();
        if (!std::is_sorted(queue->begin(), queue->end()))
            fail("ready queue out of (ready, launchSeq) order", kInvalidId);
    }
    for (const auto &cta : sm.residentCtas()) {
        const auto holds = [&](const ReadyQueue *q) {
            return q->contains(*cta);
        };
        if (cta->state() == CtaState::Pending &&
            std::none_of(queues.begin(), queues.end(), holds))
            fail("pending CTA has no operand-ready estimate", cta->gridId());
    }
    // Every pending CTA is queued, so any entry beyond one per pending
    // CTA is a second copy or a CTA that is not pending.
    if (queued != sm.pendingCtaCount())
        fail("a ready queue holds a CTA twice or a non-pending CTA",
             kInvalidId);
}

void
Policy::panicMissedSwitch(const Sm &sm, const Cta &cta, Cycle now) const
{
    FINEREG_PANIC(name(), ": no partner on SM ", sm.id(), " at cycle ", now,
                  ", yet stalled CTA ", cta.gridId(), " would switch");
}

bool
Policy::rfDepletionBlocked(const Sm &, Cycle) const
{
    return false;
}

void
Policy::audit(const Sm &, Cycle) const
{
}

Cycle
Policy::nextEventCycle(const Sm &, Cycle) const
{
    return kNoCycle;
}

std::unique_ptr<Policy>
makePolicy(const GpuConfig &config)
{
    switch (config.policy.kind) {
      case PolicyKind::Baseline:
        return std::make_unique<BaselinePolicy>();
      case PolicyKind::VirtualThread:
        return std::make_unique<VirtualThreadPolicy>();
      case PolicyKind::RegDram:
        return std::make_unique<RegDramPolicy>();
      case PolicyKind::RegMutex:
        return std::make_unique<RegMutexPolicy>();
      case PolicyKind::FineReg:
        return std::make_unique<FineRegPolicy>();
    }
    FINEREG_PANIC("unknown policy kind");
}

} // namespace finereg
