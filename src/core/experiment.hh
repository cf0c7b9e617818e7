/**
 * @file
 * Experiment helpers shared by the bench harnesses: run an application (or
 * the whole suite) under a configuration, normalize against a baseline,
 * and compute the aggregate means the paper reports.
 */

#ifndef FINEREG_CORE_EXPERIMENT_HH
#define FINEREG_CORE_EXPERIMENT_HH

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/job_guard.hh"
#include "core/simulator.hh"
#include "core/sweep_journal.hh"
#include "workloads/suite.hh"

namespace finereg
{

/** Knobs for Experiment::runGuardedSweep. */
struct GuardedSweepOptions
{
    double gridScale = 1.0;

    /** Worker count (ParallelRunner semantics: 0 = auto, 1 = serial). */
    unsigned jobs = 0;

    /** Per-job wall-clock deadline in milliseconds; 0 disables. */
    double jobTimeoutMs = 0.0;

    /**
     * Optional journal. Jobs whose key has an "ok" entry are replayed from
     * it (bit-identical, SimResult::fromJournal set) instead of being
     * re-simulated; every job that does run is appended as it completes.
     * Missing, failed, and cancelled entries all re-run.
     */
    SweepJournal *journal = nullptr;

    /** External kill switch forwarded to ParallelOptions::stop: pending
     * jobs are skipped as Cancelled once set. */
    std::shared_ptr<const std::atomic<bool>> stop;

    /**
     * Per-job config hook, called once after the cancel token is
     * installed and before the Gpu is built (never for replayed cells);
     * the last argument is always 0. The hook must only touch knobs
     * excluded from configFingerprint or resumed sweeps lose their key
     * identity.
     */
    std::function<void(GpuConfig &config, const std::string &key,
                       unsigned attempt)>
        perAttempt;
};

/** Everything a guarded sweep learns, beyond the result matrix. */
struct GuardedSweepOutcome
{
    /** results[c][a] = app a under configs[c], suite order (same contract
     * as Experiment::runSweep, including failed/cancelled annotations). */
    std::vector<std::vector<SimResult>> results;

    /** keys[c][a] = journal key of that cell (repro + resume identity). */
    std::vector<std::vector<std::string>> keys;

    unsigned replayed = 0;  ///< Cells served from the journal.
    unsigned executed = 0;  ///< Cells that ran and succeeded.
    unsigned failed = 0;    ///< Cells with a terminal failure (any kind).
    unsigned cancelled = 0; ///< Failed cells skipped by the stop switch.

    bool allOk() const { return failed == 0; }
};

class Experiment
{
  public:
    /** Run one suite application under @p config. */
    static SimResult runApp(const std::string &abbrev,
                            const GpuConfig &config,
                            double grid_scale = 1.0);

    /**
     * Run every suite application under @p config, fanning the
     * independent runs across a ParallelRunner pool.
     *
     * @param grid_scale shrinks the grids for sweep-heavy experiments.
     * @param jobs worker count (0 = FINEREG_JOBS env, then hardware
     *             concurrency; 1 = serial). Results are bit-identical
     *             for every worker count.
     * @return results keyed by abbreviation, in suite order.
     */
    static std::vector<SimResult> runSuite(const GpuConfig &config,
                                           double grid_scale = 1.0,
                                           unsigned jobs = 0);

    /**
     * Run every suite application under every config in @p configs as one
     * flat job matrix on a single worker pool (so a 5-policy sweep keeps
     * all workers busy across config boundaries).
     *
     * @return out[c][a] = result of app a under configs[c], suite order.
     */
    static std::vector<std::vector<SimResult>>
    runSweep(const std::vector<GpuConfig> &configs, double grid_scale = 1.0,
             unsigned jobs = 0);

    /**
     * runSweep with a per-job wall-clock deadline and an optional journal
     * to resume from. The sweep always completes: a failing cell is
     * annotated in place, never fatal to its siblings.
     */
    static GuardedSweepOutcome
    runGuardedSweep(const std::vector<GpuConfig> &configs,
                    const GuardedSweepOptions &options);

    /**
     * Build one guarded, journaled pool job for (kernel, config): replays
     * from @p journal when an "ok" entry exists for @p key, otherwise
     * runs Simulator::run once under @p guard and appends the outcome to
     * the journal as the job completes. This is the building block under
     * runGuardedSweep, shared by the CLI drivers (which fan custom app x
     * policy matrices rather than the full suite).
     */
    static ParallelRunner::Job makeGuardedJob(
        std::shared_ptr<const Kernel> kernel, const GpuConfig &config,
        std::string app, std::string key, JobGuard &guard,
        SweepJournal *journal,
        std::function<void(GpuConfig &, const std::string &, unsigned)>
            per_attempt = {});

    /** Per-app IPC of @p results divided by @p baseline (paired by
     * kernel name). */
    static std::map<std::string, double>
    normalizedIpc(const std::vector<SimResult> &results,
                  const std::vector<SimResult> &baseline);

    /** Ratio helper for a single app pair. */
    static double speedup(const SimResult &result,
                          const SimResult &baseline)
    {
        return baseline.ipc > 0 ? result.ipc / baseline.ipc : 0.0;
    }

    /** Arithmetic mean of per-app normalized values (the paper's
     * "average" bars). */
    static double meanOverApps(const std::map<std::string, double> &values);

    /** Mean restricted to a subset of app names. */
    static double meanOverApps(const std::map<std::string, double> &values,
                               const std::vector<std::string> &apps);

    /** A GTX-980 config preset with the policy set. */
    static GpuConfig configFor(PolicyKind kind);
};

} // namespace finereg

#endif // FINEREG_CORE_EXPERIMENT_HH
