#include "policies/switching_policy.hh"

#include <algorithm>

#include "common/log.hh"
#include "core/gpu_config.hh"
#include "sm/gpu.hh"
#include "verify/sim_error.hh"

namespace finereg
{

void
SwitchingPolicy::onBind()
{
    perSm_.assign(gpu().config().numSms, PerSm{});
}

bool
SwitchingPolicy::rfDepletionBlocked(const Sm &sm, Cycle) const
{
    return perSm_[sm.id()].depleted;
}

Cycle
SwitchingPolicy::nextEventCycle(const Sm &sm, Cycle now) const
{
    return readyOf(sm).nextEvent(now);
}

Cycle
SwitchingPolicy::readyCycle(const Sm &sm, const Cta &cta) const
{
    return readyOf(sm).readyCycle(cta);
}

Cycle
SwitchingPolicy::switchLatency() const
{
    return config().policy.zeroSwitchLatency
               ? 0
               : config().policy.switchBaseLatency;
}

bool
SwitchingPolicy::pendingSaturated(const Sm &sm) const
{
    if (saturationPoint_ == 0) {
        // CTAs per SM a conventional GPU keeps active for this kernel:
        // min(CTA slots, warp slots, thread slots, full-RF fit, shmem fit).
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
        saturationPoint_ =
            config().policy.pendingGrowthFactor * std::max(1u, estimate);
    }
    return sm.pendingCtaCount() >= saturationPoint_;
}

const std::vector<Cta *> &
SwitchingPolicy::collectStalledCtas(Sm &sm, Cycle now) const
{
    std::vector<Cta *> &stalled = stalledScratch_;
    stalled.clear();
    for (Cta *cta : sm.activeCtaList()) {
        if (cta->lastIssueCycle() == now)
            continue;
        if (cta->stalledOnMemoryCached(now))
            stalled.push_back(cta);
    }
    return stalled;
}

void
SwitchingPolicy::auditReadyQueues(
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
SwitchingPolicy::panicMissedSwitch(const Sm &sm, const Cta &cta,
                                   Cycle now) const
{
    FINEREG_PANIC(name(), ": no partner on SM ", sm.id(), " at cycle ", now,
                  ", yet stalled CTA ", cta.gridId(), " would switch");
}

} // namespace finereg
