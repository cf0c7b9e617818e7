/**
 * @file
 * JobGuard unit tests: the deadline monitor must turn an overrun into a
 * typed Timeout error, both for a cooperative body and for a real suite
 * simulation, and a guarded body runs exactly once with escaping
 * exceptions captured like on the pool.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/experiment.hh"
#include "core/job_guard.hh"
#include "core/simulator.hh"
#include "workloads/suite.hh"

namespace finereg
{
namespace
{

/** A body that blocks until its cancel token fires (or a safety deadline
 * passes) and reports whether it was timed out. */
SimResult
cooperativeHang(const std::shared_ptr<CancelToken> &cancel)
{
    const auto safety =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!cancel->expired() &&
           std::chrono::steady_clock::now() < safety) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    SimResult out;
    out.failed = true;
    out.error.kind = cancel->expired() ? SimErrorKind::Timeout
                                       : SimErrorKind::WorkerException;
    out.failureReason = "stopped cooperatively";
    return out;
}

TEST(JobGuard, DeadlineTripsTypedTimeout)
{
    JobGuard guard(/*job_timeout_ms=*/25.0);

    const SimResult r = guard.wrap(cooperativeHang)();

    EXPECT_TRUE(r.failed);
    EXPECT_EQ(r.error.kind, SimErrorKind::Timeout);
    EXPECT_EQ(guard.timeouts(), 1u);
}

TEST(JobGuard, DeadlineStopsARealSuiteRun)
{
    // FineReg on BF at full scale runs far longer than 20 ms, so the
    // monitor trips the token mid-run and Gpu::run must stop at its next
    // loop iteration with a typed Timeout and a stall diagnostic.
    std::shared_ptr<const Kernel> kernel =
        Suite::makeKernel(Suite::byName("BF"), 1.0);
    const GpuConfig config = Experiment::configFor(PolicyKind::FineReg);
    JobGuard guard(/*job_timeout_ms=*/20.0);

    const auto start = std::chrono::steady_clock::now();
    const SimResult r =
        guard.wrap([&](std::shared_ptr<CancelToken> cancel) {
            GpuConfig cfg = config;
            cfg.verify.cancel = std::move(cancel);
            return Simulator::run(cfg, *kernel);
        })();
    const auto elapsed = std::chrono::steady_clock::now() - start;

    ASSERT_TRUE(r.failed);
    EXPECT_EQ(r.error.kind, SimErrorKind::Timeout) << r.failureReason;
    EXPECT_FALSE(r.error.diagnostic.empty());
    EXPECT_EQ(guard.timeouts(), 1u);
    EXPECT_LT(elapsed, std::chrono::seconds(30));
}

TEST(JobGuard, BodyRunsOnceAndExceptionsBecomeFailedResults)
{
    // No deadline: the token is installed but never trips.
    JobGuard guard;
    unsigned calls = 0;
    const SimResult r =
        guard.wrap([&](std::shared_ptr<CancelToken> cancel) -> SimResult {
            ++calls;
            EXPECT_NE(cancel, nullptr);
            throw std::runtime_error("body failed");
        })();

    EXPECT_EQ(calls, 1u);
    EXPECT_TRUE(r.failed);
    EXPECT_EQ(r.error.kind, SimErrorKind::WorkerException);
    EXPECT_EQ(guard.timeouts(), 0u);
}

} // namespace
} // namespace finereg
