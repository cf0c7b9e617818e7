/**
 * @file
 * Microbenchmarks for the simulator's host-side hot paths (DESIGN.md §14):
 * PCRF chain store/restore through the arena-style free-space monitor,
 * 64-bit RegBitVec word operations, the warp scheduler's issue pick, and a
 * FineReg tick with no switch partner.
 * Unlike the per-figure bench binaries these are direct google-benchmark
 * loops over the data structures, not full simulator runs — they track
 * constant-factor regressions in the structures the run loop leans on.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.hh"
#include "common/stats.hh"
#include "isa/kernel_builder.hh"
#include "regfile/pcrf.hh"
#include "sm/cta.hh"
#include "sm/gpu.hh"
#include "sm/warp_scheduler.hh"

using namespace finereg;

namespace
{

/** Per-warp live masks for a mid-sized CTA: 8 warps, 24 live regs each. */
std::vector<RegBitVec>
makeWarpLive(unsigned warps = 8, unsigned regs = 24)
{
    std::vector<RegBitVec> live(warps);
    for (auto &mask : live)
        for (RegIndex r = 0; r < regs; ++r)
            mask.set(r);
    return live;
}

void
BM_PcrfStoreRestoreChain(benchmark::State &state)
{
    StatGroup stats;
    Pcrf pcrf(192 * 1024, stats); // the full UM-carved PCRF: 1536 entries
    const auto warp_live = makeWarpLive();
    const unsigned total = 8 * 24;
    std::vector<unsigned> last_pos(warp_live.size());

    for (auto _ : state) {
        pcrf.storeCta(7, warp_live, total);
        pcrf.restoreCtaLastPositions(7, last_pos);
        benchmark::DoNotOptimize(last_pos.data());
    }
    state.SetItemsProcessed(state.iterations() * total);
}
BENCHMARK(BM_PcrfStoreRestoreChain);

/**
 * Freelist churn: several resident chains stored and restored out of
 * order, so allocation walks a fragmented occupancy bitmap instead of a
 * clean prefix — the steady-state shape once CTAs swap at different
 * rates.
 */
void
BM_PcrfFragmentedChurn(benchmark::State &state)
{
    StatGroup stats;
    Pcrf pcrf(64 * 1024, stats); // 512 entries
    const auto warp_live = makeWarpLive(4, 16);
    const unsigned total = 4 * 16;
    std::vector<unsigned> last_pos(warp_live.size());

    // Seed interleaved chains, then punch holes at every other CTA.
    for (GridCtaId cta = 0; cta < 6; ++cta)
        pcrf.storeCta(cta, warp_live, total);
    for (GridCtaId cta = 0; cta < 6; cta += 2)
        pcrf.restoreCtaLastPositions(cta, last_pos);

    for (auto _ : state) {
        pcrf.storeCta(100, warp_live, total);
        pcrf.storeCta(101, warp_live, total);
        pcrf.restoreCtaLastPositions(100, last_pos);
        pcrf.restoreCtaLastPositions(101, last_pos);
        benchmark::DoNotOptimize(last_pos.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * total);
}
BENCHMARK(BM_PcrfFragmentedChurn);

/** The RMU gather inner loop: OR per-PC masks into a warp's live set. */
void
BM_BitvecGatherOr(benchmark::State &state)
{
    std::vector<RegBitVec> table(256);
    for (unsigned i = 0; i < table.size(); ++i)
        table[i] = RegBitVec(0x0000ffffffffull << (i % 16));

    for (auto _ : state) {
        RegBitVec live;
        for (const RegBitVec &mask : table)
            live |= mask;
        unsigned count = live.count();
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(state.iterations() * table.size());
}
BENCHMARK(BM_BitvecGatherOr);

/** Free-space monitor ops: firstClear scan + set/reset on a DynBitSet. */
void
BM_DynBitSetFreelist(benchmark::State &state)
{
    DynBitSet bits(1536);
    // Half-full with a fragmented prefix, like a loaded PCRF monitor.
    for (std::size_t i = 0; i < 1536; i += 2)
        bits.set(i);

    std::size_t last = 0;
    for (auto _ : state) {
        const std::size_t slot = bits.firstClear();
        bits.set(slot);
        bits.reset(last);
        last = slot;
        benchmark::DoNotOptimize(last);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DynBitSetFreelist);

/**
 * GTO pick over 16 warps (two 8-warp CTAs), range(0) of them awake. The
 * sleeping warps are the oldest and carry a far wake hint, so every pick
 * skips them the way Sm::warpIssuable does; a picked warp enters a
 * two-cycle issue shadow, pushing the next pick past the greedy warp.
 */
void
BM_WarpSchedulerPick(benchmark::State &state)
{
    KernelBuilder b("pick");
    b.regsPerThread(8).threadsPerCta(256);
    b.newBlock();
    b.exit();
    const auto kernel = b.finalize();
    const KernelContext ctx(*kernel);
    Cta old_cta(0, 0, ctx);
    Cta young_cta(1, 1, ctx);

    WarpScheduler sched(SchedKind::GTO, 0);
    std::vector<Warp *> warps;
    for (Cta *cta : {&old_cta, &young_cta}) {
        for (auto &warp : cta->warps()) {
            sched.addWarp(warp.get());
            warps.push_back(warp.get());
        }
    }
    const auto awake = static_cast<std::size_t>(state.range(0));
    for (std::size_t i = 0; i + awake < warps.size(); ++i)
        warps[i]->setWakeHint(kNoCycle);

    Cycle now = 0;
    for (auto _ : state) {
        Warp *pick =
            sched.pick([&](Warp *w) { return w->wakeHint() <= now; });
        if (pick)
            pick->setWakeHint(now + 2);
        benchmark::DoNotOptimize(pick);
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WarpSchedulerPick)->Arg(2)->Arg(14);

/**
 * FineReg policy tick on one SM whose eight active CTAs are all stalled
 * on a global load, with no grid work left and no pending CTA: the
 * partner test fails, so the tick skips the scan for stalled CTAs.
 */
void
BM_SwitchGateNoPartner(benchmark::State &state)
{
    KernelBuilder b("gate");
    b.regsPerThread(8).threadsPerCta(64).gridCtas(8);
    MemPattern stream;
    stream.footprint = 64ull << 20;
    b.newBlock();
    b.load(Opcode::LD_GLOBAL, 2, 0, stream);
    b.alu(Opcode::FADD, 3, 2, 0); // stalls on the load
    b.exit();
    const auto kernel = b.finalize();
    GpuConfig config = GpuConfig::gtx980();
    config.numSms = 1;
    config.policy.kind = PolicyKind::FineReg;
    Gpu gpu(config, *kernel);
    Sm &sm = *gpu.sms().front();
    Policy &policy = gpu.policy();

    // Each tick launches up to two grid CTAs; launch all before any runs.
    while (gpu.dispatcher().hasWork())
        policy.tick(sm, 0);
    const auto all_stalled = [&](Cycle now) {
        for (Cta *cta : sm.activeCtaList()) {
            if (!cta->fullyStalledOnMemory(now))
                return false;
        }
        return true;
    };
    Cycle now = 0;
    while (!all_stalled(now))
        sm.tick(now++);
    if (sm.activeCtaList().size() != 8)
        state.SkipWithError("expected eight stalled active CTAs");

    for (auto _ : state)
        policy.tick(sm, now);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchGateNoPartner);

} // namespace

BENCHMARK_MAIN();
