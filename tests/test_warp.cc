/**
 * @file
 * Warp and CTA tests: SIMT-stack divergence/reconvergence, exit handling,
 * barriers, stall detection, and the warp scheduler policies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "isa/kernel_builder.hh"
#include "sm/cta.hh"
#include "sm/kernel_context.hh"
#include "sm/warp.hh"
#include "sm/warp_scheduler.hh"

namespace finereg
{
namespace
{

std::unique_ptr<Kernel>
makeSimpleKernel(unsigned threads = 64)
{
    KernelBuilder b("warp_test");
    b.regsPerThread(8).threadsPerCta(threads);
    b.newBlock();
    b.alu(Opcode::IADD, 0, 1);
    b.alu(Opcode::IADD, 1, 0);
    b.exit();
    return b.finalize();
}

TEST(Warp, StartsAtPcZeroFullMask)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    Warp &warp = *cta.warps()[0];
    EXPECT_EQ(warp.pc(), 0u);
    EXPECT_EQ(warp.activeMask(), 0xffffffffu);
    EXPECT_EQ(warp.activeLanes(), 32u);
    EXPECT_FALSE(warp.finished());
}

TEST(Warp, DivergePushesTakenPathFirst)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    Warp &warp = *cta.warps()[0];

    warp.diverge(/*taken_pc=*/16, /*taken_mask=*/0x0000ffff,
                 /*fall_pc=*/8, /*reconv_pc=*/24);
    EXPECT_EQ(warp.simtStack().size(), 3u);
    EXPECT_EQ(warp.pc(), 16u); // taken path executes first
    EXPECT_EQ(warp.activeLanes(), 16u);
}

TEST(Warp, ReconvergeMergesPaths)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    Warp &warp = *cta.warps()[0];
    warp.diverge(16, 0x0000ffff, 8, 24);

    // Taken path reaches the reconvergence PC: pop to the fall path.
    warp.setPc(24);
    warp.reconvergeIfNeeded();
    EXPECT_EQ(warp.simtStack().size(), 2u);
    EXPECT_EQ(warp.pc(), 8u);
    EXPECT_EQ(warp.activeLanes(), 16u);

    // Fall path reaches it too: pop to the merged base entry.
    warp.setPc(24);
    warp.reconvergeIfNeeded();
    EXPECT_EQ(warp.simtStack().size(), 1u);
    EXPECT_EQ(warp.pc(), 24u);
    EXPECT_EQ(warp.activeLanes(), 32u);
}

TEST(Warp, ExitOnDivergedPathPopsOnly)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    Warp &warp = *cta.warps()[0];
    warp.diverge(16, 0x1, 8, 24);
    // Stack: [base(reconv), fall, taken]. Exits pop one level at a time;
    // only exiting the base entry finishes the warp.
    warp.exitCurrentPath(); // taken path exits
    EXPECT_FALSE(warp.finished());
    warp.exitCurrentPath(); // fall path exits
    EXPECT_FALSE(warp.finished());
    EXPECT_EQ(warp.simtStack().size(), 1u);
    warp.exitCurrentPath(); // base entry exits
    EXPECT_TRUE(warp.finished());
}

TEST(WarpDeath, DivergeNeedsRealSplit)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    EXPECT_DEATH(cta.warps()[0]->diverge(16, 0, 8, 24), "lane split");
}

TEST(Cta, CreatesWarpsPerKernelShape)
{
    const auto k = makeSimpleKernel(); // 64 threads = 2 warps
    KernelContext ctx(*k);
    Cta cta(3, 1, ctx);
    EXPECT_EQ(cta.numWarps(), 2u);
    EXPECT_EQ(cta.gridId(), 3u);
    EXPECT_EQ(cta.launchSeq(), 1u);
    EXPECT_EQ(cta.state(), CtaState::Active);
}

TEST(Cta, BarrierReleasesWhenAllArrive)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    EXPECT_FALSE(cta.arriveAtBarrier());
    EXPECT_TRUE(cta.arriveAtBarrier()); // both warps arrived
}

TEST(Cta, BarrierIgnoresFinishedWarps)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    cta.noteWarpFinished();
    EXPECT_TRUE(cta.arriveAtBarrier()); // only one live warp
}

TEST(Cta, FullyStalledOnlyWhenAllWarpsMemBlocked)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    EXPECT_FALSE(cta.fullyStalledOnMemory(10));

    // Warp 0 blocked on a global load feeding its current instruction
    // (instr 0 reads R1).
    cta.warps()[0]->scoreboard().recordWrite(1, 1000, true);
    EXPECT_FALSE(cta.fullyStalledOnMemory(10)); // warp 1 still runnable

    cta.warps()[1]->scoreboard().recordWrite(1, 800, true);
    EXPECT_TRUE(cta.fullyStalledOnMemory(10));

    // After one load returns the CTA is no longer fully stalled.
    EXPECT_FALSE(cta.fullyStalledOnMemory(900));
}

TEST(Cta, EstimateReadyCycleIsMedianWake)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    cta.warps()[0]->scoreboard().recordWrite(1, 400, true);
    cta.warps()[1]->scoreboard().recordWrite(1, 1000, true);
    // With two warps, ready at the first (index (2-1)/2 = 0) wake.
    EXPECT_EQ(cta.estimateReadyCycle(10), 400u);
}

TEST(Cta, EstimateReadyCycleIsLowerMedianForOddAndEvenCounts)
{
    // Wakes are recorded out of order, so the median needs selecting.
    const auto odd_kernel = makeSimpleKernel(5 * kWarpSize);
    KernelContext odd_ctx(*odd_kernel);
    Cta odd(0, 0, odd_ctx);
    const Cycle odd_wakes[] = {700, 300, 900, 100, 500};
    for (unsigned w = 0; w < 5; ++w)
        odd.warps()[w]->scoreboard().recordWrite(1, odd_wakes[w], true);
    EXPECT_EQ(odd.estimateReadyCycle(10), 500u); // index (5-1)/2 = 2

    const auto even_kernel = makeSimpleKernel(4 * kWarpSize);
    KernelContext even_ctx(*even_kernel);
    Cta even(1, 1, even_ctx);
    const Cycle even_wakes[] = {900, 200, 600, 400};
    for (unsigned w = 0; w < 4; ++w)
        even.warps()[w]->scoreboard().recordWrite(1, even_wakes[w], true);
    EXPECT_EQ(even.estimateReadyCycle(10), 400u); // index (4-1)/2 = 1

    // A warp with nothing outstanding counts as ready now. Repeat calls
    // see no values left over from earlier ones.
    even.warps()[3]->scoreboard().clear();
    EXPECT_EQ(even.estimateReadyCycle(10), 200u); // {10, 200, 600, 900}
    EXPECT_EQ(odd.estimateReadyCycle(10), 500u);
    EXPECT_EQ(odd.estimateReadyCycle(650), 650u); // {650 x3, 700, 900}

    // More warps than the stack buffer holds: wakes 1000, 1010, ..., 1640
    // in reverse order; the lower median is the 33rd smallest.
    const auto wide_kernel = makeSimpleKernel(65 * kWarpSize);
    KernelContext wide_ctx(*wide_kernel);
    Cta wide(2, 2, wide_ctx);
    for (unsigned w = 0; w < 65; ++w)
        wide.warps()[w]->scoreboard().recordWrite(1, 1640 - 10 * w, true);
    EXPECT_EQ(wide.estimateReadyCycle(10), 1320u);
}

TEST(Cta, ExecutionEpisodeLifecycle)
{
    const auto k = makeSimpleKernel();
    KernelContext ctx(*k);
    Cta cta(0, 0, ctx);
    EXPECT_EQ(cta.closeExecutionEpisode(100), 0u); // none open
    cta.startExecutionEpisode(100);
    EXPECT_EQ(cta.closeExecutionEpisode(350), 250u);
    EXPECT_EQ(cta.closeExecutionEpisode(400), 0u); // already closed
    cta.startExecutionEpisodeIfClosed(500);
    EXPECT_EQ(cta.closeExecutionEpisode(600), 100u);
}

// ---- WarpScheduler ----------------------------------------------------------

struct SchedulerFixture : public ::testing::Test
{
    SchedulerFixture()
        : kernel(makeSimpleKernel()), ctx(*kernel), old_cta(0, 0, ctx),
          new_cta(1, 1, ctx)
    {
    }

    std::unique_ptr<Kernel> kernel;
    KernelContext ctx;
    Cta old_cta;
    Cta new_cta;
};

TEST_F(SchedulerFixture, GtoSticksWithGreedyWarp)
{
    WarpScheduler sched(SchedKind::GTO, 0);
    Warp *a = old_cta.warps()[0].get();
    Warp *b = old_cta.warps()[1].get();
    sched.addWarp(a);
    sched.addWarp(b);

    Warp *first = sched.pick([](Warp *) { return true; });
    ASSERT_NE(first, nullptr);
    // Greedy: the same warp is picked while it remains issuable.
    EXPECT_EQ(sched.pick([](Warp *) { return true; }), first);
    // When the greedy warp stalls, the scheduler moves on.
    Warp *other = sched.pick([&](Warp *w) { return w != first; });
    EXPECT_NE(other, first);
}

TEST_F(SchedulerFixture, GtoPrefersOldestCta)
{
    WarpScheduler sched(SchedKind::GTO, 0);
    sched.addWarp(new_cta.warps()[0].get());
    sched.addWarp(old_cta.warps()[0].get());
    Warp *pick = sched.pick([](Warp *) { return true; });
    ASSERT_NE(pick, nullptr);
    EXPECT_EQ(pick->cta(), &old_cta); // launchSeq 0 beats 1
}

TEST_F(SchedulerFixture, LrrRotates)
{
    WarpScheduler sched(SchedKind::LRR, 0);
    Warp *a = old_cta.warps()[0].get();
    Warp *b = old_cta.warps()[1].get();
    sched.addWarp(a);
    sched.addWarp(b);
    Warp *first = sched.pick([](Warp *) { return true; });
    Warp *second = sched.pick([](Warp *) { return true; });
    EXPECT_NE(first, second);
    EXPECT_EQ(sched.pick([](Warp *) { return true; }), first);
}

TEST_F(SchedulerFixture, RemoveWarpForgetsGreedy)
{
    WarpScheduler sched(SchedKind::GTO, 0);
    Warp *a = old_cta.warps()[0].get();
    sched.addWarp(a);
    EXPECT_EQ(sched.pick([](Warp *) { return true; }), a);
    sched.removeWarp(a);
    EXPECT_EQ(sched.pick([](Warp *) { return true; }), nullptr);
}

TEST_F(SchedulerFixture, EmptySchedulerReturnsNull)
{
    WarpScheduler sched(SchedKind::GTO, 0);
    EXPECT_EQ(sched.pick([](Warp *) { return true; }), nullptr);
}

TEST_F(SchedulerFixture, NoIssuableWarpReturnsNull)
{
    WarpScheduler sched(SchedKind::LRR, 0);
    sched.addWarp(old_cta.warps()[0].get());
    EXPECT_EQ(sched.pick([](Warp *) { return false; }), nullptr);
}

TEST_F(SchedulerFixture, GtoKeepsAgeOrderWhenAnOldCtaResumes)
{
    // A CTA resumed after younger ones were (re)scheduled must still
    // rank by its launch sequence, not by when it rejoined.
    Cta mid_cta(2, 2, ctx);
    Cta young_cta(3, 3, ctx);
    WarpScheduler sched(SchedKind::GTO, 0);
    sched.addWarp(young_cta.warps()[1].get());
    sched.addWarp(new_cta.warps()[0].get());
    sched.addWarp(young_cta.warps()[0].get());
    sched.addWarp(mid_cta.warps()[0].get()); // resumes between younger
    sched.addWarp(old_cta.warps()[1].get()); // the oldest resumes last
    sched.addWarp(old_cta.warps()[0].get());

    const std::vector<Warp *> expected = {
        old_cta.warps()[0].get(), old_cta.warps()[1].get(),
        new_cta.warps()[0].get(), mid_cta.warps()[0].get(),
        young_cta.warps()[0].get(), young_cta.warps()[1].get()};
    EXPECT_EQ(sched.warps(), expected);

    // With the old CTA blocked, the next-oldest issuable warp wins.
    EXPECT_EQ(sched.pick([&](Warp *w) { return w->cta() != &old_cta; }),
              new_cta.warps()[0].get());
}

TEST_F(SchedulerFixture, RemovingAWarpTwiceIsANoOp)
{
    for (const SchedKind kind : {SchedKind::GTO, SchedKind::LRR}) {
        WarpScheduler sched(kind, 0);
        Warp *a = old_cta.warps()[0].get();
        Warp *b = old_cta.warps()[1].get();
        sched.addWarp(a);
        sched.addWarp(b);
        sched.removeWarp(a);
        sched.removeWarp(a);
        EXPECT_EQ(sched.warps(), std::vector<Warp *>{b});
        EXPECT_EQ(sched.pick([](Warp *) { return true; }), b);
        sched.removeWarp(new_cta.warps()[0].get()); // never added
        EXPECT_EQ(sched.warps(), std::vector<Warp *>{b});
    }
}

/**
 * Test-only reference: the full-scan scheduler the age-ordered one
 * replaced. GTO evaluates every warp and keeps the oldest issuable one;
 * LRR is unchanged.
 */
class ScanScheduler
{
  public:
    explicit ScanScheduler(SchedKind kind) : kind_(kind) {}

    void addWarp(Warp *warp) { warps_.push_back(warp); }

    void
    removeWarp(Warp *warp)
    {
        warps_.erase(std::remove(warps_.begin(), warps_.end(), warp),
                     warps_.end());
        if (greedy_ == warp)
            greedy_ = nullptr;
        if (rrIndex_ >= warps_.size())
            rrIndex_ = 0;
    }

    template <typename Pred>
    Warp *
    pick(Pred &&issuable)
    {
        if (warps_.empty())
            return nullptr;
        if (kind_ == SchedKind::GTO) {
            if (greedy_ && issuable(greedy_))
                return greedy_;
            Warp *best = nullptr;
            for (Warp *w : warps_) {
                if (!issuable(w))
                    continue;
                if (!best || olderThan(w, best))
                    best = w;
            }
            greedy_ = best ? best : greedy_;
            return best;
        }
        const std::size_t n = warps_.size();
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = (rrIndex_ + 1 + k) % n;
            if (issuable(warps_[i])) {
                rrIndex_ = i;
                return warps_[i];
            }
        }
        return nullptr;
    }

  private:
    static bool
    olderThan(const Warp *a, const Warp *b)
    {
        const unsigned sa = a->cta()->launchSeq();
        const unsigned sb = b->cta()->launchSeq();
        if (sa != sb)
            return sa < sb;
        return a->id() < b->id();
    }

    SchedKind kind_;
    std::vector<Warp *> warps_;
    Warp *greedy_ = nullptr;
    std::size_t rrIndex_ = 0;
};

TEST(WarpSchedulerProperty, PicksMatchTheFullScanReference)
{
    KernelBuilder b("sched_property");
    b.regsPerThread(8).threadsPerCta(256); // 8 warps per CTA
    b.newBlock();
    b.exit();
    const auto kernel = b.finalize();
    KernelContext ctx(*kernel);
    std::vector<std::unique_ptr<Cta>> ctas;
    std::vector<Warp *> pool;
    for (unsigned c = 0; c < 6; ++c) {
        // Launch sequences out of grid order, like resumed CTAs.
        ctas.push_back(std::make_unique<Cta>(c, (c * 5) % 6, ctx));
        for (auto &warp : ctas.back()->warps())
            pool.push_back(warp.get());
    }

    for (const SchedKind kind : {SchedKind::GTO, SchedKind::LRR}) {
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            Rng rng(seed);
            WarpScheduler sched(kind, 0);
            ScanScheduler ref(kind);
            std::vector<bool> in(pool.size(), false);
            for (unsigned step = 0; step < 400; ++step) {
                const std::size_t w = rng.below(pool.size());
                const unsigned op = static_cast<unsigned>(rng.below(10));
                if (op < 2) {
                    if (!in[w]) {
                        sched.addWarp(pool[w]);
                        ref.addWarp(pool[w]);
                        in[w] = true;
                    }
                } else if (op < 3) {
                    // Also removes warps that are not scheduled.
                    sched.removeWarp(pool[w]);
                    ref.removeWarp(pool[w]);
                    in[w] = false;
                } else {
                    const double p = rng.uniform();
                    std::vector<bool> ready(pool.size());
                    for (std::size_t i = 0; i < pool.size(); ++i)
                        ready[i] = rng.chance(p);
                    auto issuable = [&](Warp *warp) {
                        const auto it =
                            std::find(pool.begin(), pool.end(), warp);
                        return bool(ready[it - pool.begin()]);
                    };
                    ASSERT_EQ(sched.pick(issuable), ref.pick(issuable))
                        << (kind == SchedKind::GTO ? "GTO" : "LRR")
                        << " seed " << seed << " step " << step;
                }
            }
        }
    }
}

} // namespace
} // namespace finereg
