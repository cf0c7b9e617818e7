#include "core/experiment.hh"

#include <chrono>
#include <iterator>

#include "common/log.hh"
#include "core/parallel_runner.hh"

namespace finereg
{

SimResult
Experiment::runApp(const std::string &abbrev, const GpuConfig &config,
                   double grid_scale)
{
    const SuiteEntry &app = Suite::byName(abbrev);
    const auto kernel = Suite::makeKernel(app, grid_scale);
    return Simulator::run(config, *kernel);
}

std::vector<SimResult>
Experiment::runSuite(const GpuConfig &config, double grid_scale,
                     unsigned jobs)
{
    auto sweep = runSweep({config}, grid_scale, jobs);
    return std::move(sweep.front());
}

std::vector<std::vector<SimResult>>
Experiment::runSweep(const std::vector<GpuConfig> &configs,
                     double grid_scale, unsigned jobs)
{
    const auto &apps = Suite::all();
    std::vector<ParallelRunner::Job> matrix;
    matrix.reserve(configs.size() * apps.size());
    for (const auto &config : configs) {
        for (const auto &app : apps) {
            matrix.push_back([config, abbrev = app.abbrev, grid_scale] {
                return runApp(abbrev, config, grid_scale);
            });
        }
    }

    ParallelRunner runner({.jobs = jobs, .failFast = false, .stop = {}});
    std::vector<SimResult> flat = runner.run(std::move(matrix));

    std::vector<std::vector<SimResult>> out(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        out[c].assign(
            std::make_move_iterator(flat.begin() + c * apps.size()),
            std::make_move_iterator(flat.begin() + (c + 1) * apps.size()));
    }
    return out;
}

ParallelRunner::Job
Experiment::makeGuardedJob(
    std::shared_ptr<const Kernel> kernel, const GpuConfig &config,
    std::string app, std::string key, JobGuard &guard,
    SweepJournal *journal,
    std::function<void(GpuConfig &, const std::string &, unsigned)>
        per_attempt)
{
    using MsClock = std::chrono::steady_clock;

    if (journal) {
        const JournalEntry *prev = journal->find(key);
        if (prev && prev->ok())
            return [result = prev->result] { return result; };
    }

    JobGuard::Body run =
        [config, kernel = std::move(kernel), key,
         per_attempt = std::move(per_attempt)](
            std::shared_ptr<CancelToken> token) -> SimResult {
        GpuConfig cfg = config;
        cfg.verify.cancel = std::move(token);
        if (per_attempt)
            per_attempt(cfg, key, 0);
        return Simulator::run(cfg, *kernel);
    };

    return [guarded = guard.wrap(std::move(run)), key = std::move(key),
            app = std::move(app), journal] {
        const auto start = MsClock::now();
        SimResult result = guarded();
        const double wall_ms = std::chrono::duration<double, std::milli>(
                                   MsClock::now() - start)
                                   .count();
        if (journal) {
            JournalEntry entry;
            entry.key = key;
            entry.app = app;
            entry.status = result.failed ? "failed" : "ok";
            entry.wallMs = wall_ms;
            entry.result = result;
            // Journal entries carry condensed stats only.
            entry.result.archState.reset();
            entry.result.stallDiagnostic.clear();
            journal->append(entry);
        }
        return result;
    };
}

GuardedSweepOutcome
Experiment::runGuardedSweep(const std::vector<GpuConfig> &configs,
                            const GuardedSweepOptions &options)
{
    const auto &apps = Suite::all();

    GuardedSweepOutcome out;
    out.results.resize(configs.size());
    out.keys.assign(configs.size(),
                    std::vector<std::string>(apps.size()));

    // Build each kernel once; kernels are immutable after finalization and
    // shared across configs, jobs, and journal-key computation.
    std::vector<std::shared_ptr<const Kernel>> kernels;
    kernels.reserve(apps.size());
    for (const auto &app : apps)
        kernels.push_back(Suite::makeKernel(app, options.gridScale));

    JobGuard guard(options.jobTimeoutMs);

    std::vector<ParallelRunner::Job> matrix;
    matrix.reserve(configs.size() * apps.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const std::string key =
                makeSweepJobKey(*kernels[a], configs[c]).toString();
            out.keys[c][a] = key;
            matrix.push_back(makeGuardedJob(kernels[a], configs[c],
                                            apps[a].abbrev, key, guard,
                                            options.journal,
                                            options.perAttempt));
        }
    }

    ParallelRunner runner(
        {.jobs = options.jobs, .failFast = false, .stop = options.stop});
    std::vector<SimResult> flat = runner.run(std::move(matrix));

    for (const SimResult &result : flat) {
        if (result.fromJournal) {
            ++out.replayed;
            continue;
        }
        if (!result.failed) {
            ++out.executed;
            continue;
        }
        ++out.failed;
        if (result.error.kind == SimErrorKind::Cancelled)
            ++out.cancelled;
    }

    for (std::size_t c = 0; c < configs.size(); ++c) {
        out.results[c].assign(
            std::make_move_iterator(flat.begin() + c * apps.size()),
            std::make_move_iterator(flat.begin() + (c + 1) * apps.size()));
    }
    return out;
}

std::map<std::string, double>
Experiment::normalizedIpc(const std::vector<SimResult> &results,
                          const std::vector<SimResult> &baseline)
{
    std::map<std::string, double> out;
    for (const auto &result : results) {
        for (const auto &base : baseline) {
            if (base.kernelName == result.kernelName) {
                out[result.kernelName] = speedup(result, base);
                break;
            }
        }
    }
    return out;
}

double
Experiment::meanOverApps(const std::map<std::string, double> &values)
{
    std::vector<double> v;
    v.reserve(values.size());
    for (const auto &[app, value] : values)
        v.push_back(value);
    return mean(v);
}

double
Experiment::meanOverApps(const std::map<std::string, double> &values,
                         const std::vector<std::string> &apps)
{
    std::vector<double> v;
    for (const auto &app : apps) {
        const auto it = values.find(app);
        if (it != values.end())
            v.push_back(it->second);
    }
    return mean(v);
}

GpuConfig
Experiment::configFor(PolicyKind kind)
{
    GpuConfig config = GpuConfig::gtx980();
    config.policy.kind = kind;
    return config;
}

} // namespace finereg
