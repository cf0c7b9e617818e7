/**
 * @file
 * JobGuard: the per-job wall-clock deadline around ParallelRunner jobs.
 * One shared monitor thread sleeps until the earliest registered deadline
 * and trips that job's CancelToken when it passes; the Gpu run loop polls
 * the token and aborts with a typed Timeout error (the same cooperative
 * hook the watchdog and cycle cap use).
 *
 * A guarded job runs exactly once. The simulator is deterministic, so a
 * failed run would fail the same way on every repeat; there is nothing
 * to retry.
 */

#ifndef FINEREG_CORE_JOB_GUARD_HH
#define FINEREG_CORE_JOB_GUARD_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "core/parallel_runner.hh"
#include "verify/verify_config.hh"

namespace finereg
{

class JobGuard
{
  public:
    /**
     * One guarded unit of work. The guard calls it once with the
     * CancelToken the deadline monitor will trip; the body must install
     * the token into its GpuConfig (config.verify.cancel) for the
     * deadline to be enforceable.
     */
    using Body = std::function<SimResult(std::shared_ptr<CancelToken> cancel)>;

    /** @param job_timeout_ms per-job wall-clock deadline; 0 disables. */
    explicit JobGuard(double job_timeout_ms = 0.0);
    ~JobGuard();

    JobGuard(const JobGuard &) = delete;
    JobGuard &operator=(const JobGuard &) = delete;

    /**
     * Wrap @p body into a ParallelRunner::Job that installs a fresh
     * token, registers it with the deadline monitor, runs the body once
     * (exceptions become failed results, as on the pool) and releases
     * the token.
     */
    ParallelRunner::Job wrap(Body body);

    /** Deadlines tripped so far, across every wrapped job. */
    std::uint64_t timeouts() const;

  private:
    /** Register @p token to be timed out at now + jobTimeoutMs; returns a
     * lease id for release(), or 0 when no deadline is set. Starts the
     * monitor thread on first use. */
    std::uint64_t watch(std::shared_ptr<CancelToken> token);
    void release(std::uint64_t lease);

    void monitorLoop();

    struct Deadline
    {
        std::chrono::steady_clock::time_point expires;
        std::shared_ptr<CancelToken> token;
    };

    const double jobTimeoutMs_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<std::uint64_t, Deadline> inflight_;
    std::uint64_t nextLease_ = 1;
    bool shutdown_ = false;
    std::uint64_t timeouts_ = 0;
    std::thread monitor_; ///< Declared last: it uses every member above.
};

} // namespace finereg

#endif // FINEREG_CORE_JOB_GUARD_HH
