/**
 * @file
 * ParallelRunner: a work-stealing thread pool that fans independent
 * simulation jobs across hardware threads. Each job is a self-contained
 * closure returning a SimResult; results are keyed by submission index, so
 * the output vector is bit-identical regardless of worker count or
 * completion order. Exceptions escaping a job are captured into
 * SimResult::failed (typed SimError), and an optional fail-fast mode
 * cancels not-yet-started jobs after the first fatal failure.
 */

#ifndef FINEREG_CORE_PARALLEL_RUNNER_HH
#define FINEREG_CORE_PARALLEL_RUNNER_HH

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "core/simulator.hh"

namespace finereg
{

/** Knobs for one ParallelRunner::runAll invocation. */
struct ParallelOptions
{
    /**
     * Worker count. 0 resolves via ParallelRunner::resolveJobs (the
     * FINEREG_JOBS environment variable, then hardware concurrency);
     * 1 runs every job inline on the calling thread.
     */
    unsigned jobs = 0;

    /**
     * When true, the first job that produces a failed SimResult (or
     * throws) cancels every job that has not started yet; cancelled jobs
     * report SimErrorKind::Cancelled. Running jobs finish normally.
     */
    bool failFast = false;

    /**
     * External kill switch: when non-null and set, jobs that have not
     * started yet are skipped with SimErrorKind::Cancelled (like
     * fail-fast, but triggered from outside the batch). Running jobs
     * finish normally; only their JobGuard deadline can stop them early.
     */
    std::shared_ptr<const std::atomic<bool>> stop;
};

class ParallelRunner
{
  public:
    using Job = std::function<SimResult()>;

    /** Everything runAll learns about one batch. */
    struct Outcome
    {
        /** One entry per job, in submission order. */
        std::vector<SimResult> results;

        /** Per-job wall-clock milliseconds (0 for cancelled jobs). */
        std::vector<double> wallMs;

        /** Worker count actually used. */
        unsigned jobsUsed = 0;

        /** True when fail-fast tripped and pending jobs were cancelled. */
        bool cancelled = false;

        /** Wall-clock milliseconds for the whole batch. */
        double totalWallMs = 0.0;
    };

    explicit ParallelRunner(ParallelOptions options = {});

    /**
     * Execute @p jobs and return per-job results plus timing. The results
     * vector is ordered by job index, never by completion order.
     */
    Outcome runAll(std::vector<Job> jobs);

    /** Convenience wrapper returning only the ordered results. */
    std::vector<SimResult> run(std::vector<Job> jobs);

    /**
     * Resolve a worker count: @p requested when positive, else the
     * FINEREG_JOBS environment variable when set to a positive integer,
     * else std::thread::hardware_concurrency() (at least 1).
     */
    static unsigned resolveJobs(unsigned requested = 0);

    /**
     * Run @p job, converting any escaping exception into a failed
     * SimResult (SimException keeps its typed error; anything else
     * becomes WorkerException). This is the exact per-job wrapper runAll
     * applies; JobGuard reuses it so a guarded job reports the same
     * failure taxonomy whether or not it runs on the pool.
     */
    static SimResult runCaptured(const Job &job);

    const ParallelOptions &options() const { return options_; }

  private:
    ParallelOptions options_;
};

} // namespace finereg

#endif // FINEREG_CORE_PARALLEL_RUNNER_HH
