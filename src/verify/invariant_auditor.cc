#include "verify/invariant_auditor.hh"

#include <sstream>
#include <vector>

#include "policies/policy.hh"
#include "sm/gpu.hh"
#include "verify/sim_error.hh"

namespace finereg
{

namespace
{

[[noreturn]] void
fail(const char *invariant, const std::string &message, GridCtaId cta,
     std::uint32_t sm, Cycle now)
{
    raiseInvariant(invariant, message, cta, sm, now);
}

} // namespace

void
InvariantAuditor::audit(Gpu &gpu, Cycle now) const
{
    for (auto &sm : gpu.sms())
        auditSm(gpu, *sm, now);
    auditDispatcher(gpu, now);
}

void
InvariantAuditor::auditSm(Gpu &gpu, Sm &sm, Cycle now) const
{
    const Kernel &kernel = sm.context().kernel();
    const SmConfig &cfg = sm.config();
    const std::uint32_t sm_id = sm.id();

    unsigned active = 0;
    std::uint64_t shmem_expected = 0;
    for (const auto &cta : sm.residentCtas()) {
        if (cta->state() == CtaState::Done) {
            fail("cta-state",
                 "Done CTA still resident after the retire stage",
                 cta->gridId(), sm_id, now);
        }
        if (cta->state() == CtaState::Active)
            ++active;
        shmem_expected += kernel.shmemPerCta();

        unsigned finished = 0;
        for (const auto &warp : cta->warps())
            finished += warp->finished() ? 1 : 0;
        if (finished != cta->finishedWarps()) {
            std::ostringstream oss;
            oss << "finished-warp counter reads " << cta->finishedWarps()
                << " but " << finished << " warps are finished";
            fail("warp-accounting", oss.str(), cta->gridId(), sm_id, now);
        }

        for (const auto &warp : cta->warps()) {
            const Scoreboard &sb = warp->scoreboard();
            bool bad_reg = false;
            bool mem_not_pending = false;
            sb.pendingMask().forEach([&](RegIndex r) {
                if (r >= kernel.regsPerThread())
                    bad_reg = true;
            });
            sb.memPendingMask().forEach([&](RegIndex r) {
                if (!sb.pendingMask().test(r))
                    mem_not_pending = true;
            });
            if (bad_reg) {
                std::ostringstream oss;
                oss << "warp " << warp->id()
                    << " scoreboard tracks a register >= regsPerThread ("
                    << kernel.regsPerThread() << ")";
                fail("scoreboard-range", oss.str(), cta->gridId(), sm_id,
                     now);
            }
            if (mem_not_pending) {
                std::ostringstream oss;
                oss << "warp " << warp->id()
                    << " scoreboard marks a memory write that is not "
                       "pending";
                fail("scoreboard-mem", oss.str(), cta->gridId(), sm_id, now);
            }
        }
    }

    if (active != sm.activeCtaCount()) {
        std::ostringstream oss;
        oss << "active-CTA counter reads " << sm.activeCtaCount() << " but "
            << active << " resident CTAs are Active";
        fail("cta-accounting", oss.str(), kInvalidId, sm_id, now);
    }
    if (sm.activeWarpSlotsUsed() != active * kernel.warpsPerCta()) {
        std::ostringstream oss;
        oss << "warp-slot counter reads " << sm.activeWarpSlotsUsed()
            << " but " << active << " active CTAs need "
            << active * kernel.warpsPerCta();
        fail("slot-accounting", oss.str(), kInvalidId, sm_id, now);
    }
    if (sm.activeThreadSlotsUsed() != active * kernel.threadsPerCta()) {
        std::ostringstream oss;
        oss << "thread-slot counter reads " << sm.activeThreadSlotsUsed()
            << " but " << active << " active CTAs need "
            << active * kernel.threadsPerCta();
        fail("slot-accounting", oss.str(), kInvalidId, sm_id, now);
    }
    if (sm.shmemUsed() != shmem_expected) {
        std::ostringstream oss;
        oss << "shared-memory counter reads " << sm.shmemUsed()
            << " B but resident CTAs account for " << shmem_expected << " B";
        fail("shmem-accounting", oss.str(), kInvalidId, sm_id, now);
    }
    if (active > cfg.maxCtas ||
        sm.activeWarpSlotsUsed() > cfg.maxWarps ||
        sm.activeThreadSlotsUsed() > cfg.maxThreads) {
        fail("slot-limits", "active CTA/warp/thread slots exceed Table I "
                            "scheduler limits",
             kInvalidId, sm_id, now);
    }
    if (sm.residentCtas().size() > cfg.maxResidentCtas ||
        sm.residentWarpCount() > cfg.maxResidentWarps) {
        fail("residency-limits",
             "resident CTAs/warps exceed the residency caps", kInvalidId,
             sm_id, now);
    }

    // The hot path trusts incrementally maintained counters; re-derive
    // each from a full scan so drift is caught at the next audit.
    if (sm.pendingCtaCount() != sm.scanPendingCtaCount()) {
        std::ostringstream oss;
        oss << "pending-CTA counter reads " << sm.pendingCtaCount()
            << " but " << sm.scanPendingCtaCount()
            << " resident CTAs are Pending";
        fail("cta-accounting", oss.str(), kInvalidId, sm_id, now);
    }
    if (sm.residentWarpCount() != sm.scanResidentWarpCount()) {
        std::ostringstream oss;
        oss << "resident-warp counter reads " << sm.residentWarpCount()
            << " but resident CTAs hold " << sm.scanResidentWarpCount()
            << " warps";
        fail("warp-accounting", oss.str(), kInvalidId, sm_id, now);
    }
    if (sm.activeLiveWarps() != sm.scanActiveLiveWarps()) {
        std::ostringstream oss;
        oss << "active-live-warp counter reads " << sm.activeLiveWarps()
            << " but active CTAs hold " << sm.scanActiveLiveWarps()
            << " unfinished warps";
        fail("warp-accounting", oss.str(), kInvalidId, sm_id, now);
    }

    // The policies' per-tick stall scans iterate the compact active list;
    // it must be residentCtas() filtered to Active, in the same order.
    std::vector<Cta *> active_list;
    for (const auto &cta : sm.residentCtas()) {
        if (cta->state() == CtaState::Active)
            active_list.push_back(cta.get());
    }
    if (active_list != sm.activeCtaList()) {
        fail("cta-accounting", "active CTA list diverges from resident set",
             kInvalidId, sm_id, now);
    }

    // Policy-specific invariants: PCRF chains, ACRF accounting, monitor
    // legality, SRP holdings — whatever the bound scheme maintains.
    gpu.policy().audit(sm, now);
}

void
InvariantAuditor::auditDispatcher(Gpu &gpu, Cycle now) const
{
    const CtaDispatcher &disp = gpu.dispatcher();
    const unsigned popped = disp.gridCtas() - disp.remaining();
    unsigned resident = 0;
    for (auto &sm : gpu.sms())
        resident += sm->residentCtas().size();
    if (disp.completed() > disp.gridCtas() ||
        popped != disp.completed() + resident) {
        std::ostringstream oss;
        oss << "grid accounting broken: " << popped << " CTAs dispatched, "
            << disp.completed() << " completed, " << resident
            << " resident";
        fail("dispatch-conservation", oss.str(), kInvalidId, kInvalidId,
             now);
    }
}

} // namespace finereg
