#include "core/job_guard.hh"

#include <algorithm>

namespace finereg
{

using Clock = std::chrono::steady_clock;

JobGuard::JobGuard(double job_timeout_ms) : jobTimeoutMs_(job_timeout_ms)
{
}

JobGuard::~JobGuard()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    cv_.notify_all();
    if (monitor_.joinable())
        monitor_.join();
}

std::uint64_t
JobGuard::watch(std::shared_ptr<CancelToken> token)
{
    if (jobTimeoutMs_ <= 0.0)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t lease = nextLease_++;
    Deadline deadline;
    deadline.expires =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               jobTimeoutMs_));
    deadline.token = std::move(token);
    inflight_.emplace(lease, std::move(deadline));
    if (!monitor_.joinable())
        monitor_ = std::thread([this] { monitorLoop(); });
    cv_.notify_all();
    return lease;
}

void
JobGuard::release(std::uint64_t lease)
{
    if (lease == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(lease);
}

void
JobGuard::monitorLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!shutdown_) {
        // Sleep until the earliest registered deadline (or forever when
        // idle); registrations and shutdown notify the cv.
        auto earliest = Clock::time_point::max();
        for (const auto &[lease, deadline] : inflight_)
            earliest = std::min(earliest, deadline.expires);
        if (earliest == Clock::time_point::max()) {
            cv_.wait(lock);
            continue;
        }
        cv_.wait_until(lock, earliest);
        const auto now = Clock::now();
        for (auto it = inflight_.begin(); it != inflight_.end();) {
            if (it->second.expires <= now) {
                it->second.token->expire();
                ++timeouts_;
                it = inflight_.erase(it);
            } else {
                ++it;
            }
        }
    }
}

std::uint64_t
JobGuard::timeouts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return timeouts_;
}

ParallelRunner::Job
JobGuard::wrap(Body body)
{
    return [this, body = std::move(body)]() -> SimResult {
        auto token = std::make_shared<CancelToken>();
        const std::uint64_t lease = watch(token);
        SimResult result =
            ParallelRunner::runCaptured([&] { return body(token); });
        release(lease);
        return result;
    };
}

} // namespace finereg
