/**
 * @file
 * SM integration tests on a single streaming multiprocessor: CTA launch /
 * suspend / resume mechanics, slot accounting, barrier execution, issue
 * behaviour, and occupancy accumulation.
 */

#include <gtest/gtest.h>

#include "isa/kernel_builder.hh"
#include "mem/mem_hierarchy.hh"
#include "sm/sm.hh"

namespace finereg
{
namespace
{

struct SmFixture : public ::testing::Test
{
    SmFixture() = default;

    void
    build(std::unique_ptr<Kernel> k)
    {
        kernel = std::move(k);
        context = std::make_unique<KernelContext>(*kernel);
        stats = std::make_unique<StatGroup>("t");
        mem = std::make_unique<MemHierarchy>(MemHierarchyConfig{}, 1,
                                             *stats);
        sm = std::make_unique<Sm>(SmId(0), config, *context, *mem, *stats,
                                  42);
    }

    /** Tick until @p pred or the cycle cap. */
    template <typename Pred>
    Cycle
    runUntil(Pred &&pred, Cycle cap = 100000)
    {
        Cycle now = 0;
        while (now < cap) {
            sm->tick(now);
            if (pred(now))
                return now;
            ++now;
        }
        return cap;
    }

    SmConfig config;
    std::unique_ptr<Kernel> kernel;
    std::unique_ptr<KernelContext> context;
    std::unique_ptr<StatGroup> stats;
    std::unique_ptr<MemHierarchy> mem;
    std::unique_ptr<Sm> sm;
};

std::unique_ptr<Kernel>
computeKernel(unsigned threads = 64)
{
    KernelBuilder b("compute");
    b.regsPerThread(8).threadsPerCta(threads).gridCtas(8);
    b.newBlock();
    for (int i = 0; i < 6; ++i)
        b.alu(Opcode::IADD, 1 + (i % 3), 0, 1);
    b.exit();
    return b.finalize();
}

std::unique_ptr<Kernel>
memoryKernel()
{
    KernelBuilder b("memory");
    b.regsPerThread(8).threadsPerCta(64).gridCtas(8);
    MemPattern stream;
    stream.footprint = 64ull << 20;
    b.newBlock();
    b.load(Opcode::LD_GLOBAL, 2, 0, stream);
    b.alu(Opcode::FADD, 3, 2, 0); // stall-on-use consumer
    b.exit();
    return b.finalize();
}

std::unique_ptr<Kernel>
barrierKernel()
{
    KernelBuilder b("barrier");
    b.regsPerThread(8).threadsPerCta(64).gridCtas(8);
    b.newBlock();
    b.alu(Opcode::IADD, 1, 0);
    b.barrier();
    b.alu(Opcode::IADD, 2, 1);
    b.exit();
    return b.finalize();
}

TEST_F(SmFixture, LaunchConsumesSlots)
{
    build(computeKernel());
    EXPECT_TRUE(sm->canActivateCta());
    sm->launchCta(0, 0);
    EXPECT_EQ(sm->activeCtaCount(), 1u);
    EXPECT_EQ(sm->residentWarpCount(), 2u);
}

TEST_F(SmFixture, SlotLimitsEnforced)
{
    config.maxCtas = 2;
    build(computeKernel());
    sm->launchCta(0, 0);
    sm->launchCta(1, 0);
    EXPECT_FALSE(sm->canActivateCta());
}

TEST_F(SmFixture, ThreadLimitEnforced)
{
    config.maxThreads = 128;
    build(computeKernel(128));
    sm->launchCta(0, 0);
    EXPECT_FALSE(sm->canActivateCta());
}

TEST_F(SmFixture, ShmemAccounting)
{
    KernelBuilder b("shmem");
    b.regsPerThread(8).threadsPerCta(64).shmemPerCta(40 * 1024).gridCtas(4);
    b.newBlock();
    b.exit();
    build(b.finalize());
    EXPECT_EQ(sm->shmemFree(), 96u * 1024);
    sm->launchCta(0, 0);
    EXPECT_EQ(sm->shmemFree(), 56u * 1024);
    sm->launchCta(1, 0);
    EXPECT_LT(sm->shmemFree(), 40u * 1024); // third CTA cannot fit
}

TEST_F(SmFixture, ComputeKernelRunsToCompletion)
{
    build(computeKernel());
    Cta *cta = sm->launchCta(0, 0);
    const Cycle end = runUntil(
        [&](Cycle) { return cta->state() == CtaState::Done; });
    EXPECT_LT(end, 1000u);
    EXPECT_EQ(sm->takeFinished().size(), 1u);
    EXPECT_GT(sm->issuedInstrs(), 0u);
}

TEST_F(SmFixture, TakeFinishedDrains)
{
    build(computeKernel());
    Cta *cta = sm->launchCta(0, 0);
    runUntil([&](Cycle) { return cta->state() == CtaState::Done; });
    EXPECT_EQ(sm->takeFinished().size(), 1u);
    EXPECT_TRUE(sm->takeFinished().empty());
    sm->destroyCta(*cta);
    EXPECT_TRUE(sm->residentCtas().empty());
}

TEST_F(SmFixture, MemoryKernelStallsOnUse)
{
    build(memoryKernel());
    Cta *cta = sm->launchCta(0, 0);
    // After both warps issue their loads, the CTA must become fully
    // stalled on memory (the FADD consumers block).
    bool saw_stall = false;
    runUntil([&](Cycle now) {
        saw_stall = saw_stall || cta->fullyStalledOnMemory(now);
        return cta->state() == CtaState::Done;
    });
    EXPECT_TRUE(saw_stall);
}

TEST_F(SmFixture, SuspendRemovesFromSchedulers)
{
    build(memoryKernel());
    Cta *cta = sm->launchCta(0, 0);
    sm->tick(1);
    sm->suspendCta(*cta, 2);
    EXPECT_EQ(cta->state(), CtaState::Pending);
    EXPECT_EQ(sm->activeCtaCount(), 0u);
    EXPECT_EQ(sm->pendingCtaCount(), 1u);
    const std::uint64_t issued_before = sm->issuedInstrs();
    for (Cycle c = 3; c < 50; ++c)
        sm->tick(c);
    EXPECT_EQ(sm->issuedInstrs(), issued_before); // nothing schedulable
}

TEST_F(SmFixture, ResumeRestoresExecution)
{
    build(memoryKernel());
    Cta *cta = sm->launchCta(0, 0);
    sm->tick(1);
    sm->suspendCta(*cta, 2);
    sm->resumeCta(*cta, 10, 5);
    EXPECT_EQ(cta->state(), CtaState::Active);
    const Cycle end = runUntil(
        [&](Cycle) { return cta->state() == CtaState::Done; });
    EXPECT_LT(end, 10000u);
}

TEST_F(SmFixture, BarrierSynchronizesWarps)
{
    build(barrierKernel());
    Cta *cta = sm->launchCta(0, 0);
    const Cycle end = runUntil(
        [&](Cycle) { return cta->state() == CtaState::Done; });
    EXPECT_LT(end, 1000u);
    EXPECT_EQ(stats->counterValue("sm.barriers"), 2u); // one per warp
}

TEST_F(SmFixture, OccupancyAccumulation)
{
    build(computeKernel());
    sm->launchCta(0, 0);
    sm->accumulateOccupancy(10);
    EXPECT_EQ(stats->counterValue("sm.resident_cta_cycles"), 10u);
    EXPECT_EQ(stats->counterValue("sm.active_cta_cycles"), 10u);
    EXPECT_EQ(stats->counterValue("sm.active_thread_cycles"), 640u);
}

TEST_F(SmFixture, NextWakeCycleReflectsScoreboard)
{
    build(memoryKernel());
    sm->launchCta(0, 0);
    Cycle now = 0;
    // Run until nothing issues.
    while (sm->tick(now) > 0)
        ++now;
    const Cycle wake = sm->nextWakeCycle(now);
    EXPECT_GT(wake, now);
    EXPECT_NE(wake, kNoCycle);
}

TEST_F(SmFixture, IssueCountsMatchKernelWork)
{
    build(computeKernel());
    Cta *cta = sm->launchCta(0, 0);
    runUntil([&](Cycle) { return cta->state() == CtaState::Done; });
    // 2 warps x 7 instructions (6 ALU + EXIT).
    EXPECT_EQ(sm->issuedInstrs(), 14u);
}

TEST_F(SmFixture, RfAccessCountersTrackOperands)
{
    build(computeKernel());
    Cta *cta = sm->launchCta(0, 0);
    runUntil([&](Cycle) { return cta->state() == CtaState::Done; });
    // Each ALU op: 2 reads + 1 write; 6 ops x 2 warps.
    EXPECT_EQ(stats->counterValue("sm.rf_reads"), 24u);
    EXPECT_EQ(stats->counterValue("sm.rf_writes"), 12u);
}

// ---- Issue-path wake hint -----------------------------------------------

TEST_F(SmFixture, ScoreboardBlockIsCachedInTheWakeHint)
{
    build(computeKernel());
    Cta *cta = sm->launchCta(0, 0);
    Warp &warp = *cta->warps()[0];
    sm->tick(1); // IADD r1 issues; ALU latency 4
    EXPECT_EQ(warp.wakeHint(), 0u);
    sm->tick(2); // the next IADD reads r1: blocked until cycle 5
    EXPECT_EQ(warp.wakeHint(), 1 + config.aluLatency);
    for (Cycle c = 3; c < 5; ++c)
        EXPECT_EQ(sm->tick(c), 0u);
    EXPECT_EQ(sm->tick(5), 2u);
    EXPECT_EQ(warp.lastIssueCycle(), 5u);
}

TEST_F(SmFixture, BarrierReleaseByLastArrivalClearsTheWakeHint)
{
    build(barrierKernel());
    Cta *cta = sm->launchCta(0, 0);
    Warp &early = *cta->warps()[0];
    Warp &late = *cta->warps()[1];
    late.setEarliestIssue(50);
    for (Cycle c = 1; c < 50; ++c)
        sm->tick(c);
    ASSERT_TRUE(early.atBarrier());
    EXPECT_EQ(early.wakeHint(), kNoCycle);
    EXPECT_EQ(late.wakeHint(), 50u);

    sm->tick(50); // late: IADD
    sm->tick(51); // late: BAR, the last arrival releases the barrier
    EXPECT_FALSE(early.atBarrier());
    EXPECT_EQ(early.wakeHint(), 0u);
    sm->tick(52);
    EXPECT_EQ(early.lastIssueCycle(), 52u);
}

TEST_F(SmFixture, BarrierReleaseByAFinishingWarpClearsTheWakeHint)
{
    build(barrierKernel());
    Cta *cta = sm->launchCta(0, 0);
    Warp &early = *cta->warps()[0];
    Warp &late = *cta->warps()[1];
    late.setEarliestIssue(50);
    late.setPc(context->endPc()); // retires without reaching the barrier
    for (Cycle c = 1; c < 50; ++c)
        sm->tick(c);
    ASSERT_TRUE(early.atBarrier());
    ASSERT_EQ(early.wakeHint(), kNoCycle);

    sm->tick(50); // late retires; early is the only live warp left
    EXPECT_TRUE(late.finished());
    EXPECT_FALSE(early.atBarrier());
    EXPECT_EQ(early.wakeHint(), 0u);
    sm->tick(51);
    EXPECT_EQ(early.lastIssueCycle(), 51u);
}

TEST_F(SmFixture, ResumeWithWakeLatencyClearsTheWakeHint)
{
    build(computeKernel());
    Cta *cta = sm->launchCta(0, 0);
    sm->tick(1);
    sm->tick(2);
    ASSERT_EQ(cta->warps()[0]->wakeHint(), 5u);
    sm->suspendCta(*cta, 3);
    sm->resumeCta(*cta, 3, 10);
    for (const auto &warp : cta->warps())
        EXPECT_EQ(warp->wakeHint(), 0u);
    for (Cycle c = 3; c < 13; ++c)
        EXPECT_EQ(sm->tick(c), 0u);
    EXPECT_EQ(sm->tick(13), 2u); // both warps wake after the latency
}

TEST_F(SmFixture, MemoryPortRefusalIsNotCached)
{
    config.memPortsPerCycle = 1;
    build(memoryKernel());
    Cta *cta = sm->launchCta(0, 0);
    Warp &winner = *cta->warps()[0];
    Warp &loser = *cta->warps()[1];
    // Both warps are ready with a global load at cycle 1, on different
    // schedulers; the single memory port takes the first.
    EXPECT_EQ(sm->tick(1), 1u);
    EXPECT_EQ(winner.lastIssueCycle(), 1u);
    EXPECT_EQ(loser.issuedInstrs(), 0u);
    EXPECT_EQ(loser.wakeHint(), 0u);
    EXPECT_EQ(sm->tick(2), 1u);
    EXPECT_EQ(loser.lastIssueCycle(), 2u);
}

} // namespace
} // namespace finereg
