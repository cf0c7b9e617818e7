#include "policies/finereg_policy.hh"

#include <algorithm>
#include <sstream>

#include "core/gpu_config.hh"
#include "ref/cta_values.hh"
#include "sm/gpu.hh"
#include "verify/sim_error.hh"

namespace finereg
{

void
FineRegPolicy::onBind()
{
    SwitchingPolicy::onBind();
    const PolicyConfig &pc = config().policy;
    // Under UM the PCRF lives in the pooled store instead of the RF, so
    // the split-equals-RF invariant only applies to the plain design.
    if (!pc.unifiedMemory &&
        pc.acrfBytes + pc.pcrfBytes != gpu().config().sm.regFileBytes) {
        std::ostringstream oss;
        oss << "ACRF (" << pc.acrfBytes << ") + PCRF (" << pc.pcrfBytes
            << ") must equal the baseline register file ("
            << gpu().config().sm.regFileBytes << ")";
        raiseConfigError(oss.str());
    }

    RmuConfig rmu_config;
    rmu_config.bitvecCacheEntries = pc.bitvecCacheEntries;
    rmu_config.pcrfAccessLatency = pc.pcrfAccessLatency;
    rmu_config.fullContextBackup = pc.fullContextBackup;
    rmu_config.dropLiveReg = pc.dropLiveReg;

    states_.clear();
    for (unsigned s = 0; s < gpu().config().numSms; ++s) {
        auto st = std::make_unique<SmState>();
        st->acrf = std::make_unique<RegFileAllocator>(
            "acrf_sm" + std::to_string(s), pc.acrfBytes);
        st->pcrf = std::make_unique<Pcrf>(pc.pcrfBytes, gpu().stats());
        st->rmu = std::make_unique<Rmu>(rmu_config, gpu().context(),
                                        gpu().mem(), gpu().stats());
        states_.push_back(std::move(st));
    }
    stalledFound_ = &gpu().stats().counter("finereg.stalled_found");
    noPartner_ = &gpu().stats().counter("finereg.no_partner");
}

bool
FineRegPolicy::reclaimContext(Sm &sm, Cta &cta)
{
    SmState &st = state(sm);
    st.posScratch.resize(cta.numWarps());
    st.pcrf->restoreCtaLastPositions(cta.gridId(), st.posScratch);
    return true;
}

void
FineRegPolicy::onResumed(Sm &sm, Cta &cta, Cycle wake)
{
    SmState &st = state(sm);
    cta.regAllocHandle =
        st.acrf->allocate(sm.context().kernel().warpRegsPerCta());
    st.monitor.setContext(cta.gridId(), ContextLocation::Pipeline);
    st.monitor.setRegisters(cta.gridId(), RegisterLocation::Acrf);
    if (config().policy.zeroSwitchLatency)
        return;
    // The PCRF chain walk restores one entry per cycle after the fixed
    // tag+register access (Sec. V-E); each warp may issue as soon as its
    // own registers have landed, so earlier chain positions wake sooner.
    // posScratch holds, per warp, the 1-based chain position of its last
    // register (0 = none in the chain).
    for (auto &warp : cta.warps()) {
        if (warp->finished())
            continue;
        warp->setEarliestIssue(
            wake + st.rmu->transferLatency(st.posScratch[warp->id()]));
    }
}

void
FineRegPolicy::onLaunched(Sm &sm, Cta &cta)
{
    SmState &st = state(sm);
    cta.regAllocHandle =
        st.acrf->allocate(sm.context().kernel().warpRegsPerCta());
    st.monitor.onLaunch(cta.gridId());
}

void
FineRegPolicy::evictCta(Sm &sm, Cta &cta, const Rmu::Gather &gather,
                        Cycle now)
{
    SmState &st = state(sm);
    // The CTA can be reactivated once its operands are back AND its live
    // registers have finished draining into the PCRF (bit-vector fetch +
    // pipelined chain write run in the background; Sec. V-E).
    const Cycle drain_done =
        config().policy.zeroSwitchLatency
            ? now
            : std::max(gather.bitvecReadyCycle, now) +
                  st.rmu->transferLatency(gather.totalRegs);
    const Cycle pending_ready =
        std::max(cta.estimateReadyCycle(now), drain_done);
    mutableReadyOf(sm).push(cta, pending_ready);

    // Architecturally, only the gathered (live) registers survive the
    // swap: everything else is dropped and its value becomes undefined.
    // Scramble the dropped values in the tracker so a liveness bug that
    // drops a live register propagates visible garbage. The gather's
    // per-warp masks are exactly the keep sets.
    if (CtaValues *values = cta.values()) {
        for (const auto &warp : cta.warps()) {
            if (!warp->finished())
                values->dropDeadRegs(warp->id(),
                                     gather.warpLive[warp->id()]);
        }
    }

    sm.suspendCta(cta, now);
    st.pcrf->storeCta(cta.gridId(), gather.warpLive, gather.totalRegs);
    st.acrf->free(cta.regAllocHandle);
    cta.regAllocHandle = kInvalidId;
    st.monitor.setContext(cta.gridId(), ContextLocation::SharedMemory);
    st.monitor.setRegisters(cta.gridId(), RegisterLocation::Pcrf);
}

void
FineRegPolicy::switchOut(Sm &sm, Cta &cta, const SwitchPartner &partner,
                         Cycle now)
{
    SmState &st = state(sm);
    Cta *ready_pending = partner.readyPending;

    const Rmu::Gather &gather = st.rmu->gatherLiveRegs(cta, now);
    const unsigned n_live = gather.totalRegs;
    // The outgoing drain is pipelined through the RMU's staging buffer
    // (Sec. V-E), so the incoming CTA pays only the fixed switch
    // initiation cost (plus its own restore chain when resuming).
    const Cycle base_latency = switchLatency();

    if (st.pcrf->canStore(n_live)) {
        // Fig. 6(a): free PCRF slots — evict and introduce a CTA.
        evictCta(sm, cta, gather, now);
        if (ready_pending) {
            reclaimContext(sm, *ready_pending);
            resume(*this, sm, *ready_pending, now, base_latency);
        } else {
            launchIntoSlot(*this, sm, now);
        }
        return;
    }

    // Fig. 6(b): PCRF full — context switch only, and only when the
    // stalled CTA's live set fits the free slots plus those the departing
    // pending CTA releases (Sec. V-E). If the soonest-ready pending CTA's
    // chain is too short to make room, take the earliest-launched ready
    // CTA whose chain frees enough entries.
    if (ready_pending &&
        n_live > st.pcrf->freeEntries() +
                     st.pcrf->liveCountOf(ready_pending->gridId())) {
        Cta *fitting = nullptr;
        for (const ReadyQueue::Entry &entry : readyOf(sm)) {
            if (entry.ready > now)
                break;
            if (n_live <= st.pcrf->freeEntries() +
                              st.pcrf->liveCountOf(entry.cta->gridId()) &&
                (!fitting || entry.launchSeq < fitting->launchSeq()))
                fitting = entry.cta;
        }
        if (fitting)
            ready_pending = fitting;
    }
    if (ready_pending &&
        n_live <= st.pcrf->freeEntries() +
                      st.pcrf->liveCountOf(ready_pending->gridId())) {
        // Stage the pending CTA's registers through the RMU's 128-byte
        // buffer: drain its PCRF chain first so the stalled CTA's live
        // set fits, then swap slots.
        reclaimContext(sm, *ready_pending);
        evictCta(sm, cta, gather, now);
        resume(*this, sm, *ready_pending, now, base_latency);
        return;
    }

    // Sec. V-B "rare situations": the stalled CTA must stay in the ACRF
    // until the PCRF drains. This is a register-file-depletion stall
    // when there is otherwise runnable work.
    if (ready_pending || dispatcher().hasWork())
        markDepleted(sm);
}

void
FineRegPolicy::onCtaFinished(Sm &sm, Cta &cta, Cycle)
{
    SmState &st = state(sm);
    if (cta.regAllocHandle == kInvalidId) {
        raiseInvariant("acrf-accounting", "finished CTA has no ACRF handle",
                       cta.gridId(), sm.id());
    }
    st.acrf->free(cta.regAllocHandle);
    st.monitor.onRetire(cta.gridId());
}

void
FineRegPolicy::audit(const Sm &sm, Cycle now) const
{
    const SmState &st = state(sm);
    const std::uint32_t sm_id = sm.id();
    const Kernel &kernel = sm.context().kernel();

    // PCRF chain integrity: walk every chain, cross-check the occupancy
    // monitor (Sec. V-C free-space flags vs. Sec. V-D pointer table).
    const PcrfIntegrityError chain = st.pcrf->auditIntegrity();
    if (!chain.intact())
        raiseInvariant(chain.invariant, chain.message, chain.cta, sm_id, now);

    unsigned active = 0;
    unsigned pending = 0;
    unsigned expected_used = 0;
    for (const auto &cta : sm.residentCtas()) {
        const GridCtaId id = cta->gridId();
        const ContextLocation ctx = st.monitor.contextOf(id);
        const RegisterLocation regs = st.monitor.registersOf(id);

        if (cta->state() == CtaState::Active) {
            ++active;
            if (cta->regAllocHandle == kInvalidId) {
                raiseInvariant("acrf-accounting",
                               "active CTA has no ACRF allocation", id,
                               sm_id, now);
            }
            expected_used += st.acrf->allocationSize(cta->regAllocHandle);
            if (ctx != ContextLocation::Pipeline ||
                regs != RegisterLocation::Acrf) {
                raiseInvariant("monitor-state",
                               "active CTA not encoded context=Pipeline, "
                               "regs=ACRF (Table IV)",
                               id, sm_id, now);
            }
            if (st.pcrf->holds(id)) {
                raiseInvariant("pcrf-chain",
                               "active CTA still has a PCRF chain", id,
                               sm_id, now);
            }
        } else if (cta->state() == CtaState::Pending) {
            ++pending;
            if (cta->regAllocHandle != kInvalidId) {
                raiseInvariant("acrf-accounting",
                               "pending CTA still holds an ACRF allocation",
                               id, sm_id, now);
            }
            if (ctx != ContextLocation::SharedMemory ||
                regs != RegisterLocation::Pcrf) {
                raiseInvariant("monitor-state",
                               "pending CTA not encoded context=SharedMemory, "
                               "regs=PCRF (Table IV)",
                               id, sm_id, now);
            }
            if (!st.pcrf->holds(id)) {
                raiseInvariant("pcrf-chain",
                               "pending CTA has no PCRF chain", id, sm_id,
                               now);
            }
            if (st.pcrf->liveCountOf(id) > kernel.warpRegsPerCta()) {
                raiseInvariant("pcrf-chain",
                               "PCRF chain longer than the CTA's static "
                               "register allocation",
                               id, sm_id, now);
            }
        }
    }

    if (st.acrf->numAllocations() != active) {
        std::ostringstream oss;
        oss << st.acrf->numAllocations()
            << " outstanding ACRF allocations for " << active
            << " active CTAs (allocation leaked after CTA completion)";
        raiseInvariant("acrf-accounting", oss.str(), kInvalidId, sm_id, now);
    }
    if (st.acrf->usedWarpRegs() != expected_used) {
        std::ostringstream oss;
        oss << "ACRF usage counter reads " << st.acrf->usedWarpRegs()
            << " warp-regs but active CTAs account for " << expected_used;
        raiseInvariant("acrf-accounting", oss.str(), kInvalidId, sm_id, now);
    }
    if (st.acrf->usedWarpRegs() > st.acrf->capacityWarpRegs()) {
        raiseInvariant("acrf-capacity",
                       "sum of active-CTA allocations exceeds ACRF capacity",
                       kInvalidId, sm_id, now);
    }
    if (st.pcrf->numPendingCtas() != pending) {
        std::ostringstream oss;
        oss << st.pcrf->numPendingCtas() << " PCRF chains for " << pending
            << " pending CTAs";
        raiseInvariant("pcrf-chain", oss.str(), kInvalidId, sm_id, now);
    }
    if (st.monitor.numTracked() != active + pending) {
        std::ostringstream oss;
        oss << "status monitor tracks " << st.monitor.numTracked()
            << " CTAs but " << active + pending << " are resident";
        raiseInvariant("monitor-state", oss.str(), kInvalidId, sm_id, now);
    }
    auditReadyQueues(sm, now, {&readyOf(sm)});
}

std::uint64_t
FineRegPolicy::storageOverheadBits() const
{
    if (states_.empty())
        return 0;
    const SmState &st = *states_.front();
    const std::uint64_t monitor_bits = st.monitor.storageBits();
    const std::uint64_t cache_bits = st.rmu->storageBits();
    const std::uint64_t pointer_bits = st.pcrf->pointerTableBits();
    const std::uint64_t tag_bits = st.pcrf->tagOverheadBits();
    const std::uint64_t switch_logic_bits = std::uint64_t(2400) * 8;
    return monitor_bits + cache_bits + pointer_bits + tag_bits +
           switch_logic_bits;
}

} // namespace finereg
