#include "sm/sm.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/log.hh"
#include "ref/cta_values.hh"
#include "sm/warp_exec.hh"

namespace finereg
{

Sm::Sm(SmId id, const SmConfig &config, const KernelContext &context,
       MemHierarchy &mem, StatGroup &stats, std::uint64_t seed)
    : id_(id), config_(config), context_(&context), mem_(&mem),
      stats_(&stats), rng_(seed),
      issuedCtr_(&stats.counter("sm.issued")),
      rfReads_(&stats.counter("sm.rf_reads")),
      rfWrites_(&stats.counter("sm.rf_writes")),
      sharedAccesses_(&stats.counter("sm.shared_accesses")),
      divergences_(&stats.counter("sm.divergences")),
      barriersHit_(&stats.counter("sm.barriers")),
      residentCtaCycles_(&stats.counter("sm.resident_cta_cycles")),
      activeCtaCycles_(&stats.counter("sm.active_cta_cycles")),
      activeThreadCycles_(&stats.counter("sm.active_thread_cycles")),
      occupancyCycles_(&stats.counter("sm.occupancy_cycles")),
      usageWindow_(&stats.distribution("sm.rf_usage_window")),
      stallEpisode_(&stats.distribution("sm.stall_episode_cycles"))
{
    schedulers_.reserve(config_.numSchedulers);
    for (unsigned s = 0; s < config_.numSchedulers; ++s)
        schedulers_.emplace_back(config_.sched, s);
}

bool
Sm::canActivateCta() const
{
    const Kernel &kernel = context_->kernel();
    return activeCtas_ + 1 <= config_.maxCtas &&
           activeWarpSlots_ + kernel.warpsPerCta() <= config_.maxWarps &&
           activeThreadSlots_ + kernel.threadsPerCta() <= config_.maxThreads;
}

bool
Sm::hasResidencyHeadroom() const
{
    const Kernel &kernel = context_->kernel();
    return ctas_.size() + 1 <= config_.maxResidentCtas &&
           residentWarps_ + kernel.warpsPerCta() <= config_.maxResidentWarps;
}

unsigned
Sm::scanPendingCtaCount() const
{
    unsigned n = 0;
    for (const auto &cta : ctas_)
        n += cta->state() == CtaState::Pending ? 1 : 0;
    return n;
}

unsigned
Sm::scanResidentWarpCount() const
{
    unsigned n = 0;
    for (const auto &cta : ctas_)
        n += cta->numWarps();
    return n;
}

unsigned
Sm::scanActiveLiveWarps() const
{
    unsigned n = 0;
    for (const auto &cta : ctas_) {
        if (cta->state() == CtaState::Active)
            n += cta->numWarps() - cta->finishedWarps();
    }
    return n;
}

void
Sm::listInsert(std::vector<Cta *> &list, Cta *cta)
{
    const auto it = std::lower_bound(
        list.begin(), list.end(), cta, [](const Cta *a, const Cta *b) {
            return a->launchSeq() < b->launchSeq();
        });
    list.insert(it, cta);
}

void
Sm::listRemove(std::vector<Cta *> &list, Cta *cta)
{
    const auto it = std::lower_bound(
        list.begin(), list.end(), cta, [](const Cta *a, const Cta *b) {
            return a->launchSeq() < b->launchSeq();
        });
    if (it == list.end() || *it != cta)
        FINEREG_PANIC("CTA ", cta->gridId(), " missing from state list");
    list.erase(it);
}

Cta *
Sm::launchCta(GridCtaId grid_id, Cycle now)
{
    const Kernel &kernel = context_->kernel();
    if (!canActivateCta())
        FINEREG_PANIC("launchCta without active slots on SM ", id_);
    if (shmemFree() < kernel.shmemPerCta())
        FINEREG_PANIC("launchCta without shared memory on SM ", id_);

    // Seed the CTA's warp RNG streams from the grid CTA id alone so that
    // the executed path is invariant to placement and launch timing.
    const std::uint64_t cta_seed =
        ctaSeedBase_ + 0x9e3779b97f4a7c15ull * (std::uint64_t(grid_id) + 1);
    auto cta =
        std::make_unique<Cta>(grid_id, launchSeq_++, *context_, cta_seed);
    Cta *raw = cta.get();
    if (trackValues_)
        raw->enableValueTracking();
    ctas_.push_back(std::move(cta));
    activeList_.push_back(raw); // launchSeq grows monotonically: stays sorted

    shmemUsed_ += kernel.shmemPerCta();
    ++activeCtas_;
    activeWarpSlots_ += kernel.warpsPerCta();
    activeThreadSlots_ += kernel.threadsPerCta();
    residentWarps_ += kernel.warpsPerCta();
    activeLiveWarps_ += kernel.warpsPerCta();
    stateEdge_ = true;

    for (auto &warp : raw->warps())
        warp->setEarliestIssue(now + 1);
    addWarpToSchedulers(*raw);
    raw->startExecutionEpisode(now);
    return raw;
}

void
Sm::suspendCta(Cta &cta, Cycle now)
{
    if (cta.state() != CtaState::Active)
        FINEREG_PANIC("suspend of non-active CTA ", cta.gridId());
    const Kernel &kernel = context_->kernel();
    removeWarpFromSchedulers(cta);
    cta.setState(CtaState::Pending);
    listRemove(activeList_, &cta);
    --activeCtas_;
    ++pendingCtas_;
    activeWarpSlots_ -= kernel.warpsPerCta();
    activeThreadSlots_ -= kernel.threadsPerCta();
    activeLiveWarps_ -= cta.numWarps() - cta.finishedWarps();
    stateEdge_ = true;

    if (stallProbe_) {
        const Cycle episode = cta.closeExecutionEpisode(now);
        if (episode > 0)
            stallEpisode_->sample(static_cast<double>(episode));
    } else {
        cta.closeExecutionEpisode(now);
    }
}

void
Sm::resumeCta(Cta &cta, Cycle now, Cycle wake_latency)
{
    if (cta.state() != CtaState::Pending)
        FINEREG_PANIC("resume of non-pending CTA ", cta.gridId());
    if (!canActivateCta())
        FINEREG_PANIC("resume without active slots on SM ", id_);
    const Kernel &kernel = context_->kernel();
    cta.setState(CtaState::Active);
    listInsert(activeList_, &cta);
    ++activeCtas_;
    --pendingCtas_;
    activeWarpSlots_ += kernel.warpsPerCta();
    activeThreadSlots_ += kernel.threadsPerCta();
    activeLiveWarps_ += cta.numWarps() - cta.finishedWarps();
    stateEdge_ = true;
    for (auto &warp : cta.warps()) {
        if (!warp->finished())
            warp->setEarliestIssue(now + wake_latency);
    }
    addWarpToSchedulers(cta);
    cta.startExecutionEpisode(now + wake_latency);
}

std::vector<Cta *>
Sm::takeFinished()
{
    std::vector<Cta *> out;
    out.swap(finished_);
    return out;
}

void
Sm::destroyCta(Cta &cta)
{
    if (cta.state() != CtaState::Done)
        FINEREG_PANIC("destroying CTA ", cta.gridId(), " that is not Done");
    const auto it = std::find_if(
        ctas_.begin(), ctas_.end(),
        [&](const std::unique_ptr<Cta> &p) { return p.get() == &cta; });
    if (it == ctas_.end())
        FINEREG_PANIC("destroyCta: CTA not resident on SM ", id_);
    residentWarps_ -= cta.numWarps();
    ctas_.erase(it);
}

Cycle
Sm::ctaLastIssue(const Cta &cta) const
{
    return cta.lastIssueCycle();
}

void
Sm::addWarpToSchedulers(Cta &cta)
{
    for (auto &warp : cta.warps()) {
        if (!warp->finished())
            schedulerOf(*warp).addWarp(warp.get());
    }
}

void
Sm::removeWarpFromSchedulers(Cta &cta)
{
    for (auto &warp : cta.warps())
        schedulerOf(*warp).removeWarp(warp.get());
}

/**
 * The cycle until which @p warp cannot issue for a reason that lasts —
 * issue shadow, scoreboard, barrier or finished (kNoCycle for the last
 * two) — or 0 when none applies. Only setEarliestIssue(), which every
 * issue and every wake calls, can end such a block early, and it clears
 * the warp's wake hint.
 */
Cycle
Sm::blockedUntil(Warp &warp, Cycle now)
{
    if (warp.finished() || warp.atBarrier())
        return kNoCycle;
    if (warp.earliestIssue() > now)
        return warp.earliestIssue();
    if (warp.pastEnd())
        return 0; // will be retired at issue
    const Cycle ready =
        warp.scoreboard().readyCycle(warp.currentInstr(), now);
    return ready > now ? ready : 0;
}

bool
Sm::warpIssuable(Warp *warp, Cycle now)
{
    if (warp->wakeHint() > now) {
#ifndef NDEBUG
        if (blockedUntil(*warp, now) <= now) {
            FINEREG_PANIC("wake hint ", warp->wakeHint(), " hides issuable "
                          "warp ", warp->id(), " of CTA ",
                          warp->cta()->gridId(), " at cycle ", now);
        }
#endif
        return false;
    }
    const Cycle until = blockedUntil(*warp, now);
    if (until > now) {
        warp->setWakeHint(until);
        return false;
    }
    // A busy memory port frees up next cycle: never cached in the hint.
    if (!warp->pastEnd()) {
        const Instruction &instr = warp->currentInstr();
        if (isGlobalMemory(instr.op) &&
            memIssuedThisCycle_ >= config_.memPortsPerCycle)
            return false;
    }
    return true;
}

unsigned
Sm::tick(Cycle now)
{
    memIssuedThisCycle_ = 0;
    issuedLastTick_ = 0;

    for (auto &sched : schedulers_) {
        Warp *warp =
            sched.pick([&](Warp *w) { return warpIssuable(w, now); });
        if (!warp)
            continue;
        if (warp->pastEnd()) {
            finishWarp(*warp, now);
            continue;
        }
        issueInstr(*warp, now);
        ++issuedLastTick_;
    }

    issuedTotal_ += issuedLastTick_;
    issuedCtr_->inc(issuedLastTick_);

    if (stallProbe_)
        checkStallEpisodes(now);

    return issuedLastTick_;
}

void
Sm::checkStallEpisodes(Cycle now)
{
    for (auto &cta : ctas_) {
        if (cta->state() != CtaState::Active)
            continue;
        if (ctaLastIssue(*cta) == now)
            continue; // issued this cycle; not stalled
        if (cta->fullyStalledOnMemory(now)) {
            const Cycle episode = cta->closeExecutionEpisode(now);
            if (episode > 0)
                stallEpisode_->sample(static_cast<double>(episode));
        }
    }
}

void
Sm::issueInstr(Warp &warp, Cycle now)
{
    const Instruction &instr = warp.currentInstr();

    // Capture before the switch: control ops rewrite the SIMT stack.
    const std::uint32_t active_mask = warp.activeMask();
    CtaValues *values = warp.cta()->values();
    if (values)
        values->noteRetire(warp.id(), active_mask);

    // If a stall episode was closed by the probe, the first issue after the
    // stall opens a new one.
    warp.cta()->startExecutionEpisodeIfClosed(now);

    warp.bumpIssuedInstrs();
    warp.setLastIssueCycle(now);
    warp.cta()->noteIssue(now);
    warp.setEarliestIssue(now + 1);

    // Register file activity for the energy model.
    unsigned reads = 0;
    for (int src : instr.srcs)
        reads += src >= 0 ? 1 : 0;
    rfReads_->inc(reads);
    if (instr.dst >= 0)
        rfWrites_->inc();

    if (usageTracking_)
        trackUsage(warp, instr);

    switch (funcUnitOf(instr.op)) {
      case FuncUnit::ALU:
        if (values)
            values->execAlu(warp.id(), active_mask, instr);
        if (instr.dst >= 0) {
            warp.scoreboard().recordWrite(
                static_cast<RegIndex>(instr.dst), now + config_.aluLatency,
                false);
        }
        warp.setPc(warp.pc() + kInstrBytes);
        break;
      case FuncUnit::SFU:
        if (values)
            values->execAlu(warp.id(), active_mask, instr);
        if (instr.dst >= 0) {
            warp.scoreboard().recordWrite(
                static_cast<RegIndex>(instr.dst), now + config_.sfuLatency,
                false);
        }
        warp.setPc(warp.pc() + kInstrBytes);
        break;
      case FuncUnit::MEM:
        execMemory(warp, instr, now);
        warp.setPc(warp.pc() + kInstrBytes);
        break;
      case FuncUnit::CTRL:
        switch (instr.op) {
          case Opcode::BRA:
            execBranch(warp, instr, now);
            break;
          case Opcode::JMP:
            warp.setPc(context_->kernel().blockStartPc(instr.targetBlock));
            warp.setEarliestIssue(now + config_.branchLatency);
            break;
          case Opcode::BAR: {
            barriersHit_->inc();
            warp.setAtBarrier(true);
            warp.setPc(warp.pc() + kInstrBytes);
            if (warp.cta()->arriveAtBarrier()) {
                for (auto &w : warp.cta()->warps()) {
                    if (!w->finished()) {
                        w->setAtBarrier(false);
                        w->setEarliestIssue(now + 1);
                    }
                }
                warp.cta()->releaseBarrier();
            }
            break;
          }
          case Opcode::EXIT:
            execExit(warp, now);
            break;
          default:
            FINEREG_PANIC("unhandled control op");
        }
        break;
    }

    if (!warp.finished())
        warp.reconvergeIfNeeded();
}

void
Sm::execBranch(Warp &warp, const Instruction &instr, Cycle now)
{
    warp.setEarliestIssue(now + config_.branchLatency);
    // The architectural outcome (PC, SIMT stack, loop counters, RNG draws)
    // is shared with the reference executor via warp_exec.
    if (warpExecBranch(warp, instr).diverged)
        divergences_->inc();
}

void
Sm::execMemory(Warp &warp, const Instruction &instr, Cycle now)
{
    CtaValues *values = warp.cta()->values();
    if (!isGlobalMemory(instr.op)) {
        sharedAccesses_->inc();
        if (values)
            values->execShared(warp.id(), warp.activeMask(), instr);
        if (isLoad(instr.op) && instr.dst >= 0) {
            warp.scoreboard().recordWrite(
                static_cast<RegIndex>(instr.dst),
                now + config_.sharedLatency, false);
        }
        return;
    }

    ++memIssuedThisCycle_;
    const Addr addr = warpGenerateAddress(warp, instr);
    if (values)
        values->execGlobal(warp.id(), warp.activeMask(), instr, addr);

    // Scale the transaction count by the active-lane fraction.
    const unsigned lanes = warp.activeLanes();
    unsigned txns = std::max(
        1u, static_cast<unsigned>(std::ceil(
                instr.mem.transactions * (lanes / double(kWarpSize)))));

    const bool is_write = isStore(instr.op);
    const MemAccessResult result =
        mem_->warpAccess(id_, addr, txns, is_write, now);

    if (isLoad(instr.op) && instr.dst >= 0) {
        warp.scoreboard().recordWrite(static_cast<RegIndex>(instr.dst),
                                      result.completeCycle, true);
    }
}

void
Sm::execExit(Warp &warp, Cycle now)
{
    warp.exitCurrentPath();
    if (warp.finished())
        finishWarp(warp, now);
}

void
Sm::finishWarp(Warp &warp, Cycle now)
{
    Cta *cta = warp.cta();
    schedulerOf(warp).removeWarp(&warp);

    if (!warp.finished()) {
        // Retired via pastEnd(): mark done.
        warp.exitCurrentPath();
    }
    cta->noteWarpFinished();
    --activeLiveWarps_; // finishing warps are always on an Active CTA

    // A warp leaving can release a barrier the rest of the CTA waits on.
    if (!cta->allWarpsFinished()) {
        unsigned waiting = 0;
        unsigned live = 0;
        for (auto &w : cta->warps()) {
            if (w->finished())
                continue;
            ++live;
            waiting += w->atBarrier() ? 1 : 0;
        }
        if (live > 0 && waiting == live) {
            for (auto &w : cta->warps()) {
                if (!w->finished()) {
                    w->setAtBarrier(false);
                    w->setEarliestIssue(now + 1);
                }
            }
            cta->releaseBarrier();
        }
        return;
    }

    // Whole CTA done.
    const Kernel &kernel = context_->kernel();
    if (cta->state() == CtaState::Active) {
        --activeCtas_;
        activeWarpSlots_ -= kernel.warpsPerCta();
        activeThreadSlots_ -= kernel.threadsPerCta();
        listRemove(activeList_, cta);
    }
    removeWarpFromSchedulers(*cta);
    cta->setState(CtaState::Done);
    shmemUsed_ -= kernel.shmemPerCta();
    stateEdge_ = true;
    finished_.push_back(cta);
}

Cycle
Sm::nextWakeCycle(Cycle now) const
{
    Cycle wake = kNoCycle;
    for (const Cta *cta : activeList_) {
        for (const auto &warp : cta->warps()) {
            if (warp->finished() || warp->atBarrier())
                continue;
            Cycle candidate = warp->earliestIssue();
            if (candidate <= now && !warp->pastEnd()) {
                // Blocked on the scoreboard; wake when operands land.
                Scoreboard &sb = const_cast<Scoreboard &>(warp->scoreboard());
                candidate = sb.readyCycle(warp->currentInstr(), now);
                if (candidate <= now)
                    return now + 1; // issuable immediately
            }
            wake = std::min(wake, candidate);
        }
    }
    return wake;
}

void
Sm::accumulateOccupancy(Cycle delta)
{
    const std::uint64_t resident = ctas_.size();
    const std::uint64_t active_threads =
        std::uint64_t(activeLiveWarps_) * kWarpSize;
    residentCtaCycles_->inc(resident * delta);
    activeCtaCycles_->inc(std::uint64_t(activeCtas_) * delta);
    activeThreadCycles_->inc(active_threads * delta);
    occupancyCycles_->inc(delta);
}

void
Sm::trackUsage(const Warp &warp, const Instruction &instr)
{
    // Key: (cta launch seq, warp id, reg) -> one warp-register.
    auto touch = [&](int reg) {
        if (reg < 0)
            return;
        const std::uint64_t key =
            (std::uint64_t(warp.cta()->launchSeq()) << 24) |
            (std::uint64_t(warp.id()) << 8) | std::uint64_t(reg);
        touchedRegs_.insert(key);
    };
    touch(instr.dst);
    for (int src : instr.srcs)
        touch(src);

    if (++windowIssued_ >= 1000) {
        // Allocated warp-registers across resident CTAs.
        std::uint64_t allocated = 0;
        for (const auto &cta : ctas_) {
            if (cta->state() == CtaState::Done)
                continue;
            allocated += context_->kernel().warpRegsPerCta();
        }
        if (allocated > 0) {
            // CTAs that retired mid-window leave touches without a
            // matching allocation at window close; clamp to 100%.
            usageWindow_->sample(std::min(
                1.0, static_cast<double>(touchedRegs_.size()) /
                         static_cast<double>(allocated)));
        }
        touchedRegs_.clear();
        windowIssued_ = 0;
    }
}

} // namespace finereg
