/**
 * @file
 * ReadyQueue tests: the (ready, launchSeq) order, best()/nextEvent()
 * edges, and a seeded randomized check against the linear argmin scan
 * the switching policies used to run over the pending CTAs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "isa/kernel_builder.hh"
#include "policies/ready_queue.hh"
#include "sm/cta.hh"
#include "sm/kernel_context.hh"

namespace finereg
{
namespace
{

std::unique_ptr<Kernel>
tinyKernel()
{
    KernelBuilder b("ready_queue_test");
    b.regsPerThread(4).threadsPerCta(32);
    b.newBlock();
    b.alu(Opcode::IADD, 0, 1);
    b.exit();
    return b.finalize();
}

/** CTAs with launch sequence numbers 0..n-1, handed out in a scrambled
 * grid-id order so list order and id order differ. */
class ReadyQueueTest : public ::testing::Test
{
  protected:
    ReadyQueueTest() : kernel_(tinyKernel()), ctx_(*kernel_) {}

    void
    makeCtas(unsigned n)
    {
        for (unsigned seq = 0; seq < n; ++seq)
            ctas_.push_back(
                std::make_unique<Cta>((seq * 7 + 3) % n, seq, ctx_));
    }

    Cta &cta(unsigned seq) { return *ctas_[seq]; }

    std::unique_ptr<Kernel> kernel_;
    KernelContext ctx_;
    std::vector<std::unique_ptr<Cta>> ctas_; ///< index == launchSeq
};

/**
 * The partner lookup the policies ran before the queue: walk the pending
 * CTAs in launch order and keep the first with the smallest ready cycle
 * <= @p at_most. CTAs without an entry in @p ready are skipped.
 */
Cta *
linearArgmin(const std::vector<Cta *> &launch_order,
             const std::map<const Cta *, Cycle> &ready, Cycle at_most)
{
    Cta *best = nullptr;
    Cycle best_ready = kNoCycle;
    for (Cta *cta : launch_order) {
        const auto it = ready.find(cta);
        const Cycle r = it == ready.end() ? kNoCycle : it->second;
        if (r <= at_most && r < best_ready) {
            best = cta;
            best_ready = r;
        }
    }
    return best;
}

TEST_F(ReadyQueueTest, TiesOnReadyGoToTheLowerLaunchSeq)
{
    makeCtas(4);
    ReadyQueue q;
    q.push(cta(3), 50);
    q.push(cta(2), 40);
    q.push(cta(1), 40);
    EXPECT_EQ(q.best(100), &cta(1));
    q.erase(cta(1));
    EXPECT_EQ(q.best(100), &cta(2));
    q.push(cta(0), 40);
    EXPECT_EQ(q.best(100), &cta(0));

    std::vector<unsigned> order;
    for (const ReadyQueue::Entry &e : q)
        order.push_back(e.launchSeq);
    EXPECT_EQ(order, (std::vector<unsigned>{0, 2, 3}));
}

TEST_F(ReadyQueueTest, BestIncludesReadyEqualToAtMost)
{
    makeCtas(1);
    ReadyQueue q;
    EXPECT_EQ(q.best(kNoCycle - 1), nullptr);
    q.push(cta(0), 20);
    EXPECT_EQ(q.best(19), nullptr);
    EXPECT_EQ(q.best(20), &cta(0));
    EXPECT_EQ(q.best(kNoCycle - 1), &cta(0));
}

TEST_F(ReadyQueueTest, ErasingAnUnqueuedCtaIsANoOp)
{
    makeCtas(2);
    ReadyQueue q;
    q.erase(cta(0)); // empty queue
    EXPECT_TRUE(q.empty());
    q.push(cta(1), 5);
    q.erase(cta(0));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.readyCycle(cta(1)), 5u);
    EXPECT_EQ(q.readyCycle(cta(0), 7), 7u);
    EXPECT_FALSE(q.contains(cta(0)));
}

TEST_F(ReadyQueueTest, NextEventClampsToNowPlusOne)
{
    makeCtas(2);
    ReadyQueue q;
    EXPECT_EQ(q.nextEvent(10), kNoCycle);
    q.push(cta(0), 30);
    q.push(cta(1), 25);
    EXPECT_EQ(q.nextEvent(10), 25u);
    EXPECT_EQ(q.nextEvent(24), 25u);
    EXPECT_EQ(q.nextEvent(25), 26u); // already ready: next cycle
    EXPECT_EQ(q.nextEvent(40), 41u);
}

TEST_F(ReadyQueueTest, RandomizedSequenceMatchesLinearScan)
{
    constexpr unsigned kCtas = 24;
    makeCtas(kCtas);
    std::vector<Cta *> launch_order;
    launch_order.reserve(kCtas);
    for (auto &c : ctas_)
        launch_order.push_back(c.get());

    Rng rng(16);
    ReadyQueue q;
    std::map<const Cta *, Cycle> ref;
    for (unsigned step = 0; step < 5000; ++step) {
        Cta &c = cta(static_cast<unsigned>(rng.below(kCtas)));
        if (!ref.count(&c) && rng.below(3) != 0) {
            // A narrow range of ready cycles forces frequent ties.
            const Cycle ready = 100 + rng.below(16);
            q.push(c, ready);
            ref[&c] = ready;
        } else {
            q.erase(c); // sometimes of an unqueued CTA
            ref.erase(&c);
        }

        ASSERT_EQ(q.size(), ref.size()) << "step " << step;
        for (Cycle at_most : {Cycle(99), Cycle(100), Cycle(107), Cycle(115),
                              kNoCycle - 1}) {
            ASSERT_EQ(q.best(at_most), linearArgmin(launch_order, ref, at_most))
                << "step " << step << ", at_most " << at_most;
        }
        const Cycle now = 95 + rng.below(25);
        Cycle expected_event = kNoCycle;
        for (const auto &[cta_ptr, ready] : ref)
            expected_event = std::min(expected_event, std::max(ready, now + 1));
        ASSERT_EQ(q.nextEvent(now), expected_event) << "step " << step;
        for (Cta *other : launch_order) {
            const auto it = ref.find(other);
            ASSERT_EQ(q.readyCycle(*other),
                      it == ref.end() ? kNoCycle : it->second);
        }
        ASSERT_TRUE(std::is_sorted(q.begin(), q.end()));
    }
}

} // namespace
} // namespace finereg
