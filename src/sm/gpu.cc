#include "sm/gpu.hh"

#include <algorithm>
#include <string>

#include "common/log.hh"
#include "ref/cta_values.hh"
#include "verify/invariant_auditor.hh"
#include "verify/sim_error.hh"
#include "verify/watchdog.hh"

namespace finereg
{

Gpu::Gpu(const GpuConfig &config, const Kernel &kernel,
         std::unique_ptr<Policy> policy)
    : config_(config), stats_("gpu"),
      context_(std::make_unique<KernelContext>(kernel)),
      mem_(std::make_unique<MemHierarchy>(config.mem, config.numSms,
                                          stats_)),
      dispatcher_(kernel.gridCtas()),
      policy_(policy ? std::move(policy) : makePolicy(config)),
      cyclesCtr_(&stats_.counter("gpu.cycles")),
      depletionStallCycles_(&stats_.counter("gpu.depletion_stall_cycles")),
      loopIterations_(&stats_.counter("gpu.loop_iterations")),
      skippedCycles_(&stats_.counter("gpu.skipped_cycles")),
      fullAudits_(&stats_.counter("verify.full_audits")),
      edgeAudits_(&stats_.counter("verify.edge_audits"))
{
    sms_.reserve(config_.numSms);
    for (unsigned s = 0; s < config_.numSms; ++s) {
        sms_.push_back(std::make_unique<Sm>(
            SmId(s), config_.sm, *context_, *mem_, stats_,
            config_.seed + 0x1000ull * (s + 1)));
        // The CTA seed base must not depend on the SM index: a CTA's
        // execution path stays identical no matter where it lands.
        sms_.back()->setCtaSeedBase(config_.seed);
        sms_.back()->enableUsageTracking(config_.usageTracking);
        sms_.back()->enableStallProbe(config_.stallProbe);
        sms_.back()->enableValueTracking(config_.trackValues);
    }
    if (config_.trackValues) {
        archState_ = std::make_shared<ArchState>();
        archState_->kernelName = kernel.name();
        archState_->regsPerThread = kernel.regsPerThread();
        archState_->threadsPerCta = kernel.threadsPerCta();
        archState_->ctas.resize(kernel.gridCtas());
    }
    policy_->bind(*this);
}

Gpu::~Gpu() = default;

GpuRunResult
Gpu::run()
{
    GpuRunResult result;
    now_ = 0;
    Cycle idle_streak = 0;

    DeadlockWatchdog watchdog(config_.verify.watchdogCycles);
    InvariantAuditor auditor(config_.verify.auditInterval);
    Cycle next_audit = auditor.enabled() ? auditor.interval() : kNoCycle;
    const unsigned edge_period =
        auditor.edgeSamplePeriod(config_.verify.auditEdgeEvery);
    std::uint64_t edges_seen = 0;

    const std::shared_ptr<CancelToken> &cancel = config_.verify.cancel;

    while (!dispatcher_.allComplete()) {
        if (cancel && cancel->expired()) {
            raiseTimeout("wall-clock deadline expired: kernel " +
                             context_->kernel().name() + " stopped at cycle " +
                             std::to_string(now_) + " with " +
                             std::to_string(dispatcher_.completed()) + "/" +
                             std::to_string(dispatcher_.gridCtas()) +
                             " CTAs done",
                         now_,
                         buildStallDiagnostic(*this, now_,
                                              watchdog.lastProgress()));
        }
        if (now_ >= config_.maxCycles) {
            FINEREG_WARN("kernel ", context_->kernel().name(),
                         " hit the cycle cap at ", now_, " with ",
                         dispatcher_.completed(), "/",
                         dispatcher_.gridCtas(), " CTAs done");
            result.hitCycleLimit = true;
            result.stallDiagnostic =
                buildStallDiagnostic(*this, now_, watchdog.lastProgress());
            break;
        }

        unsigned issued = 0;
        for (auto &sm : sms_)
            issued += sm->tick(now_);

        // Retire CTAs that finished this cycle.
        bool retired = false;
        for (auto &sm : sms_) {
            for (Cta *cta : sm->takeFinished()) {
                policy_->onCtaFinished(*sm, *cta, now_);
                dispatcher_.noteCompleted();
                // Absorb the architectural end state before the CTA (and
                // its value tracker) is destroyed.
                if (archState_ && cta->values()) {
                    cta->values()->mergeGlobalInto(archState_->globalStores);
                    archState_->ctas[cta->gridId()] =
                        cta->values()->takeEndState();
                }
                sm->destroyCta(*cta);
                retired = true;
            }
        }

        // Policy decisions: launches, stall detection, switches.
        for (auto &sm : sms_)
            policy_->tick(*sm, now_);

        // Progress = an instruction issued or a CTA retired this tick.
        if (issued > 0 || retired)
            watchdog.noteProgress(now_);
        else
            watchdog.check(*this, now_);

        if (now_ >= next_audit) {
            auditor.audit(*this, now_);
            fullAudits_->inc();
            next_audit = now_ + auditor.interval();
        }

        // Sampled edge auditing: CTA state transitions (launch, suspend,
        // resume, finish) are where switching invariants break, so each
        // marks its SM and every edge_period-th mark triggers a targeted
        // audit here — after the policy tick, at a consistent state point.
        if (auditor.enabled()) {
            for (auto &sm : sms_) {
                if (sm->takeStateEdge() && ++edges_seen % edge_period == 0) {
                    auditor.auditSm(*this, *sm, now_);
                    edgeAudits_->inc();
                }
            }
        }

        // Decide how far to advance.
        Cycle next = now_ + 1;
        if (issued == 0) {
            // Nothing issued: jump to the earliest cycle at which a warp
            // or the policy can act again (DESIGN.md §14, "Idle skip").
            Cycle wake = kNoCycle;
            for (auto &sm : sms_) {
                wake = std::min(wake, sm->nextWakeCycle(now_));
                wake = std::min(wake, policy_->nextEventCycle(*sm, now_));
            }
            if (wake == kNoCycle) {
                // No scheduled event: advance conservatively; the policy
                // may unblock on a later tick (e.g., via new grid work).
                next = now_ + 1000;
                ++idle_streak;
                if (idle_streak > 10000) {
                    raiseDeadlock(
                        "no forward progress on kernel " +
                            context_->kernel().name() + " at cycle " +
                            std::to_string(now_),
                        now_,
                        buildStallDiagnostic(*this, now_,
                                             watchdog.lastProgress()));
                }
            } else {
                next = std::max(now_ + 1, wake);
                idle_streak = 0;
            }
        } else {
            idle_streak = 0;
        }

        const Cycle delta = next - now_;
        for (auto &sm : sms_) {
            sm->accumulateOccupancy(delta);
            // Fig. 14: cycles where the SM sits idle purely because the
            // register scheme ran out of space.
            if (sm->issuedLastTick() == 0 &&
                policy_->rfDepletionBlocked(*sm, now_)) {
                depletionStallCycles_->inc(delta);
            }
        }
        cyclesCtr_->inc(delta);
        loopIterations_->inc();
        skippedCycles_->inc(delta - 1);
        now_ = next;
    }

    result.cycles = now_;
    result.completedCtas = dispatcher_.completed();
    for (auto &sm : sms_)
        result.instructions += sm->issuedInstrs();
    return result;
}

} // namespace finereg
