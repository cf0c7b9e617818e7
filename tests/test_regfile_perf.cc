/**
 * @file
 * Hot-path regression suite (DESIGN.md §14): the perf machinery — idle
 * skipping, arena-style PCRF chains, sampled auditing — must be invisible
 * in simulated results. Idle skipping is pinned bit-identical to the
 * test-only stepping reference (stepping_policy.hh) across all five
 * policies, both warp schedulers and every suite app (serially and
 * through a ParallelRunner pool), the PCRF arena is stressed through
 * fragmentation churn, and the
 * host_perf counters are sanity-checked so the wall-time telemetry stays
 * trustworthy.
 */

#include <gtest/gtest.h>

#include "core/parallel_runner.hh"
#include "core/simulator.hh"
#include "ref/arch_state.hh"
#include "ref/kernel_gen.hh"
#include "regfile/pcrf.hh"
#include "stepping_policy.hh"
#include "workloads/suite.hh"

namespace finereg
{
namespace
{

constexpr PolicyKind kAllPolicies[] = {
    PolicyKind::Baseline, PolicyKind::VirtualThread, PolicyKind::RegDram,
    PolicyKind::RegMutex, PolicyKind::FineReg};

GpuConfig
perfConfig(PolicyKind kind)
{
    GpuConfig config = GpuConfig::gtx980();
    config.numSms = 2;
    config.policy.kind = kind;
    config.trackValues = true;
    return config;
}

/** Everything that must not move between skipping and stepping. */
void
expectSimEqual(const SimResult &a, const SimResult &b,
               const std::string &what)
{
    ASSERT_FALSE(a.failed) << what << ": " << a.failureReason;
    ASSERT_FALSE(b.failed) << what << ": " << b.failureReason;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.completedCtas, b.completedCtas) << what;
    EXPECT_EQ(a.dramBytesData, b.dramBytesData) << what;
    EXPECT_EQ(a.dramBytesCtaContext, b.dramBytesCtaContext) << what;
    EXPECT_EQ(a.dramBytesBitvec, b.dramBytesBitvec) << what;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << what;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << what;
    ASSERT_NE(a.archState, nullptr) << what;
    ASSERT_NE(b.archState, nullptr) << what;
    EXPECT_EQ(a.archState->fingerprint(), b.archState->fingerprint())
        << what;
}

TEST(SteppingReference, ScanMatchesSteppingUnderEveryPolicy)
{
    const auto kernel = generateKernelSpec(0x5eed).build();
    for (const PolicyKind kind : kAllPolicies) {
        const GpuConfig config = perfConfig(kind);
        expectSimEqual(runStepping(config, *kernel),
                       Simulator::run(config, *kernel),
                       policyKindName(kind));
    }
}

TEST(SteppingReference, ScanMatchesSteppingOnRealWorkload)
{
    // Barriers, shared memory and divergence hit wake paths the generated
    // kernel does not; FineReg adds CTA switching on top.
    const auto kernel = Suite::makeKernel(Suite::byName("BF"), 0.05);
    for (const PolicyKind kind :
         {PolicyKind::Baseline, PolicyKind::FineReg}) {
        const GpuConfig config = perfConfig(kind);
        expectSimEqual(runStepping(config, *kernel),
                       Simulator::run(config, *kernel),
                       policyKindName(kind));
    }
}

TEST(SteppingReference, GoldenTimingMatrixMatchesStepping)
{
    // The GoldenTiming cells (every app, both schedulers, all five
    // policies at scale 0.02 on 2 SMs): each policy-specific wake source,
    // such as Reg+DRAM's demotion budget, is exercised by some cell.
    for (const SuiteEntry &entry : Suite::all()) {
        const auto kernel = Suite::makeKernel(entry, 0.02);
        for (const SchedKind sched : {SchedKind::GTO, SchedKind::LRR}) {
            for (const PolicyKind kind : kAllPolicies) {
                GpuConfig config = perfConfig(kind);
                config.sm.sched = sched;
                expectSimEqual(
                    runStepping(config, *kernel),
                    Simulator::run(config, *kernel),
                    entry.abbrev +
                        (sched == SchedKind::GTO ? " GTO " : " LRR ") +
                        policyKindName(kind));
            }
        }
    }
}

TEST(SteppingReference, SerialAndParallelRunsAreIdentical)
{
    const auto kernel = generateKernelSpec(0x5eed).build();

    auto make_jobs = [&] {
        std::vector<ParallelRunner::Job> jobs;
        for (const PolicyKind kind : kAllPolicies) {
            jobs.push_back([kernel = kernel.get(), kind] {
                return Simulator::run(perfConfig(kind), *kernel);
            });
        }
        return jobs;
    };

    ParallelRunner serial({.jobs = 1, .failFast = false, .stop = {}});
    ParallelRunner pooled({.jobs = 4, .failFast = false, .stop = {}});
    const std::vector<SimResult> a = serial.run(make_jobs());
    const std::vector<SimResult> b = pooled.run(make_jobs());

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectSimEqual(a[i], b[i], "job " + std::to_string(i));
}

TEST(SteppingReference, DepletionRowsMatchStepping)
{
    // The GoldenTiming rows outside the matrix above: RegMutex with the
    // Fig. 14 SRP ratio, whose SRP refusals set the depletion flag, and
    // FineReg at scale 0.1 on AT, CF and LB, where a full PCRF refuses
    // Fig. 6(b) swaps. Depletion stalls must replay identically whether
    // the clock skips idle cycles or steps through them.
    for (const SchedKind sched : {SchedKind::GTO, SchedKind::LRR}) {
        const std::string sched_name =
            sched == SchedKind::GTO ? " GTO " : " LRR ";
        for (const SuiteEntry &entry : Suite::all()) {
            const auto kernel = Suite::makeKernel(entry, 0.02);
            GpuConfig config = perfConfig(PolicyKind::RegMutex);
            config.sm.sched = sched;
            config.policy.srpRatio = 0.125;
            expectSimEqual(runStepping(config, *kernel),
                           Simulator::run(config, *kernel),
                           entry.abbrev + sched_name + "srp=0.125");
        }
        for (const char *app : {"AT", "CF", "LB"}) {
            const auto kernel = Suite::makeKernel(Suite::byName(app), 0.1);
            GpuConfig config = perfConfig(PolicyKind::FineReg);
            config.sm.sched = sched;
            expectSimEqual(runStepping(config, *kernel),
                           Simulator::run(config, *kernel),
                           app + sched_name + "FineReg/scale=0.1");
        }
    }
}

TEST(HostPerf, ScanSkipsCyclesAndSteppingDoesNot)
{
    const auto kernel = Suite::makeKernel(Suite::byName("MC"), 0.05);
    const GpuConfig config = perfConfig(PolicyKind::FineReg);
    const SimResult scan = Simulator::run(config, *kernel);
    const SimResult step = runStepping(config, *kernel);
    ASSERT_FALSE(scan.failed) << scan.failureReason;

    // Skipping must actually happen, and every skipped cycle is a loop
    // iteration the stepper had to burn.
    EXPECT_GT(scan.hostPerf.skippedCycles, 0u);
    EXPECT_EQ(step.hostPerf.skippedCycles, 0u);
    EXPECT_EQ(scan.hostPerf.loopIterations + scan.hostPerf.skippedCycles,
              step.hostPerf.loopIterations);

    // FineReg swaps CTAs, so chain writes flow through the arena.
    EXPECT_GT(scan.hostPerf.arenaAllocs, 0u);
    EXPECT_EQ(scan.hostPerf.arenaBytes(), scan.hostPerf.arenaAllocs * 16);
    EXPECT_GT(scan.hostPerf.bitvecWordOps, 0u);
}

TEST(HostPerf, AuditCountersTrackSampling)
{
    const auto kernel = generateKernelSpec(0x5eed).build();
    GpuConfig audited = perfConfig(PolicyKind::FineReg);
    audited.verify.auditInterval = 256;
    audited.verify.auditEdgeEvery = 4;
    const GpuConfig unaudited = perfConfig(PolicyKind::FineReg);

    const SimResult a = Simulator::run(audited, *kernel);
    const SimResult b = Simulator::run(unaudited, *kernel);
    ASSERT_FALSE(a.failed) << a.failureReason;
    EXPECT_GT(a.hostPerf.fullAudits, 0u);
    EXPECT_GT(a.hostPerf.edgeAudits, 0u);
    EXPECT_EQ(b.hostPerf.fullAudits, 0u);
    EXPECT_EQ(b.hostPerf.edgeAudits, 0u);

    // Auditing is observation only.
    expectSimEqual(a, b, "audited-vs-not");
}

// --- PCRF arena stress ---------------------------------------------------

std::vector<RegBitVec>
warpMasks(unsigned warps, unsigned regs)
{
    std::vector<RegBitVec> live(warps);
    for (auto &mask : live)
        for (RegIndex r = 0; r < regs; ++r)
            mask.set(r);
    return live;
}

TEST(PcrfArenaStress, FragmentationChurnKeepsChainsIntact)
{
    StatGroup stats;
    Pcrf pcrf(8 * 1024, stats); // 64 entries
    const auto masks = warpMasks(2, 4);
    std::vector<unsigned> last_pos(2);

    // Fill with interleaved chains, free every other one, then re-fill
    // the holes repeatedly. Every step must keep the occupancy monitor,
    // pointer table and chain walks mutually consistent.
    for (GridCtaId cta = 0; cta < 8; ++cta)
        pcrf.storeCta(cta, masks, 8);
    EXPECT_EQ(pcrf.numPendingCtas(), 8u);
    EXPECT_EQ(pcrf.freeEntries(), 0u);

    for (int round = 0; round < 16; ++round) {
        const GridCtaId base = 100 + 8 * round;
        for (GridCtaId cta = round % 2; cta < 8; cta += 2) {
            const GridCtaId victim =
                round == 0 ? cta : base - 8 + (cta ^ 1);
            if (pcrf.holds(victim))
                pcrf.restoreCtaLastPositions(victim, last_pos);
        }
        for (GridCtaId cta = 0; cta < 8; cta += 2) {
            if (pcrf.canStore(8))
                pcrf.storeCta(base + cta, masks, 8);
        }
        const PcrfIntegrityError err = pcrf.auditIntegrity();
        EXPECT_TRUE(err.intact())
            << "round " << round << ": " << err.invariant << ": "
            << err.message;
    }
}

TEST(PcrfArenaStress, FreedSlotsAreReusedLowestFirst)
{
    StatGroup stats;
    Pcrf pcrf(2 * 1024, stats); // 16 entries
    const auto masks = warpMasks(1, 4);
    std::vector<unsigned> last_pos(1);

    pcrf.storeCta(1, masks, 4); // slots 0..3
    pcrf.storeCta(2, masks, 4); // slots 4..7
    const std::vector<unsigned> first_chain = pcrf.chainOf(1);
    pcrf.restoreCtaLastPositions(1, last_pos);

    // The freed low slots are recycled before the untouched tail.
    pcrf.storeCta(3, masks, 4);
    EXPECT_EQ(pcrf.chainOf(3), first_chain);
    EXPECT_EQ(pcrf.freeEntries(), 8u);
    EXPECT_TRUE(pcrf.auditIntegrity().intact());
}

TEST(PcrfArenaStress, BatchStoreMatchesVectorStore)
{
    // The mask-driven hot-path store and the LiveReg-vector store must
    // produce bit-identical chains (slot assignment and walk order).
    StatGroup stats_a, stats_b;
    Pcrf a(4 * 1024, stats_a);
    Pcrf b(4 * 1024, stats_b);

    std::vector<RegBitVec> masks(3);
    masks[0].set(0);
    masks[0].set(5);
    masks[2].set(1);
    masks[2].set(2);
    masks[2].set(63);
    std::vector<LiveReg> regs;
    for (WarpId w = 0; w < masks.size(); ++w)
        masks[w].forEach([&](RegIndex r) { regs.push_back({w, r}); });

    // Pre-fragment both identically so allocation starts mid-bitmap.
    const auto filler = warpMasks(1, 5);
    a.storeCta(90, filler, 5);
    b.storeCta(90, filler, 5);

    a.storeCta(7, masks, static_cast<unsigned>(regs.size()));
    b.storeCta(7, regs);
    EXPECT_EQ(a.chainOf(7), b.chainOf(7));

    const std::vector<LiveReg> restored = b.restoreCta(7);
    ASSERT_EQ(restored.size(), regs.size());
    for (std::size_t i = 0; i < regs.size(); ++i) {
        EXPECT_EQ(restored[i].warp, regs[i].warp) << i;
        EXPECT_EQ(restored[i].reg, regs[i].reg) << i;
    }
}

} // namespace
} // namespace finereg
