/**
 * @file
 * finereg_sim — the command-line driver. Runs any subset of the benchmark
 * suite under any subset of the register-management policies with config
 * overrides, printing a comparison table or CSV.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/log.hh"
#include "core/cli_options.hh"
#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "ref/diff_oracle.hh"
#include "ref/ref_executor.hh"
#include "workloads/suite.hh"

using namespace finereg;

namespace
{

void
printSuite()
{
    TableFormatter table({"app", "full name", "suite", "type",
                          "regs/thr", "thr/CTA", "shmem/CTA", "grid"});
    for (const auto &app : Suite::all()) {
        table.addRow({app.abbrev, app.fullName, app.origin,
                      app.typeR() ? "Type-R" : "Type-S",
                      std::to_string(app.params.regsPerThread),
                      std::to_string(app.params.threadsPerCta),
                      std::to_string(app.params.shmemPerCta),
                      std::to_string(app.params.gridCtas)});
    }
    std::printf("%s", table.render().c_str());
}

/**
 * --diff-check: run every selected (app, policy) pair with value tracking
 * and diff the architectural end state against the reference executor
 * instead of reporting performance.
 */
int
runDiffCheck(const CliOptions &options)
{
    std::vector<std::string> apps = options.apps;
    if (apps.empty()) {
        for (const auto &app : Suite::all())
            apps.push_back(app.abbrev);
    }

    // Reference-execute each kernel once, then fan the (app, policy)
    // matrix across the runner; each job records its divergence slot.
    std::vector<std::unique_ptr<Kernel>> kernels;
    std::vector<ArchState> refs;
    kernels.reserve(apps.size());
    refs.reserve(apps.size());
    for (const std::string &app : apps) {
        kernels.push_back(
            Suite::makeKernel(Suite::byName(app), options.gridScale));
        refs.push_back(
            RefExecutor::execute(*kernels.back(), options.config.seed));
    }

    std::vector<Divergence> divs(apps.size() * options.policies.size());
    std::vector<ParallelRunner::Job> matrix;
    matrix.reserve(divs.size());
    std::size_t idx = 0;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (const PolicyKind kind : options.policies) {
            matrix.push_back([idx, a, kind, &divs, &kernels, &refs,
                              &options] {
                divs[idx] = DiffOracle::checkPolicy(
                    *kernels[a], options.config, kind, refs[a]);
                SimResult summary;
                summary.kernelName = kernels[a]->name();
                summary.failed = divs[idx].any();
                return summary;
            });
            ++idx;
        }
    }

    ParallelRunner runner({.jobs = options.jobs, .failFast = false, .stop = {}});
    std::fprintf(stderr, "info: diff-checking %zu runs with %u jobs\n",
                 matrix.size(), ParallelRunner::resolveJobs(options.jobs));
    runner.run(std::move(matrix));

    bool any_diverged = false;
    idx = 0;
    for (const std::string &app : apps) {
        for (const PolicyKind kind : options.policies) {
            const Divergence &d = divs[idx++];
            if (d.any()) {
                any_diverged = true;
                std::fprintf(stderr, "FAIL %s/%s: %s\n", app.c_str(),
                             policyKindName(kind), d.toString().c_str());
            } else {
                std::printf("ok   %s/%s\n", app.c_str(),
                            policyKindName(kind));
            }
        }
    }
    if (!any_diverged) {
        std::printf("diff-check: %zu runs match the reference end state\n",
                    divs.size());
    }
    return any_diverged ? 1 : 0;
}

/** CLI spelling of a policy for reconstructed repro commands. */
const char *
policyCliName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Baseline: return "baseline";
      case PolicyKind::VirtualThread: return "vt";
      case PolicyKind::RegDram: return "regdram";
      case PolicyKind::RegMutex: return "regmutex";
      case PolicyKind::FineReg: return "finereg";
    }
    return "baseline";
}

/**
 * The exact command that re-runs one failed (app, policy) cell alone:
 * the original argv minus the selection/parallelism/resume flags, plus
 * the cell pinned down and forced serial.
 */
std::string
reproCommand(const std::vector<std::string> &args, const std::string &app,
             PolicyKind kind)
{
    std::string cmd = "finereg_sim";
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--app" || arg == "--policy" || arg == "--jobs" ||
            arg == "--resume") {
            ++i; // skip the flag's value too
            continue;
        }
        cmd += " " + arg;
    }
    cmd += " --app " + app + " --policy " + policyCliName(kind) +
           " --jobs 1";
    return cmd;
}

/** Failure classes in exit-code precedence order. */
enum FailClass : int
{
    kFailNone = 0,
    kFailTimeout,     ///< Deadline expiries but no harder errors.
    kFailSimError,    ///< Typed simulation error or cycle-cap overrun.
};

int
run(const CliOptions &options, const std::vector<std::string> &args)
{
    std::vector<std::string> apps = options.apps;
    if (apps.empty()) {
        for (const auto &app : Suite::all())
            apps.push_back(app.abbrev);
    }

    std::unique_ptr<SweepJournal> journal;
    if (!options.resumePath.empty()) {
        std::string error;
        journal = SweepJournal::open(options.resumePath, error);
        if (!journal) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return 2;
        }
        std::fprintf(stderr, "info: journal %s: %zu entries (%zu ok)\n",
                     journal->path().c_str(), journal->size(),
                     journal->completedCount());
    }

    JobGuard guard(options.jobTimeoutMs);

    if (options.csv) {
        std::printf("app,policy,cycles,instructions,ipc,resident_ctas,"
                    "active_ctas,dram_bytes,stall_fraction,energy\n");
    }

    TableFormatter table({"app", "policy", "cycles", "IPC", "res.CTAs",
                          "act.CTAs", "DRAM MB", "energy"});

    // Fan the (app, policy) matrix across the parallel runner; results come
    // back in submission order, so the report below is identical to the
    // old serial loop. Every job runs under the guard (a passthrough
    // without --job-timeout-ms) and through the journal when --resume was
    // given.
    std::vector<ParallelRunner::Job> matrix;
    matrix.reserve(apps.size() * options.policies.size());
    for (const std::string &app : apps) {
        std::shared_ptr<const Kernel> kernel =
            Suite::makeKernel(Suite::byName(app), options.gridScale);
        for (const PolicyKind kind : options.policies) {
            GpuConfig config = options.config;
            config.policy.kind = kind;
            const std::string key =
                makeSweepJobKey(*kernel, config).toString();
            matrix.push_back(Experiment::makeGuardedJob(
                kernel, config, app, key, guard, journal.get()));
        }
    }

    ParallelRunner runner({.jobs = options.jobs, .failFast = false, .stop = {}});
    std::fprintf(stderr, "info: running %zu simulations with %u jobs\n",
                 matrix.size(), ParallelRunner::resolveJobs(options.jobs));
    const std::vector<SimResult> results = runner.run(std::move(matrix));

    struct FailedCell
    {
        std::string app;
        PolicyKind kind;
        FailClass cls;
    };
    std::vector<FailedCell> failures;
    FailClass worst = kFailNone;
    unsigned replayed = 0;
    std::size_t job = 0;
    for (const std::string &app : apps) {
        for (const PolicyKind kind : options.policies) {
            const SimResult &r = results[job++];
            if (r.fromJournal)
                ++replayed;
            if (r.failed) {
                const FailClass cls = r.error.kind == SimErrorKind::Timeout
                                          ? kFailTimeout
                                          : kFailSimError;
                failures.push_back({app, kind, cls});
                worst = std::max(worst, cls);
                std::fprintf(stderr, "error: %s/%s failed: %s\n",
                             app.c_str(), policyKindName(kind),
                             r.failureReason.c_str());
                if (!r.error.diagnostic.empty()) {
                    std::fprintf(stderr, "%s\n",
                                 r.error.diagnostic.c_str());
                }
                continue;
            }
            if (r.hitCycleLimit) {
                failures.push_back({app, kind, kFailSimError});
                worst = std::max(worst, kFailSimError);
                std::fprintf(stderr,
                             "error: %s/%s hit the cycle cap at %llu "
                             "with %u CTAs done; results are partial\n",
                             app.c_str(), policyKindName(kind),
                             static_cast<unsigned long long>(r.cycles),
                             r.completedCtas);
                if (!r.stallDiagnostic.empty()) {
                    std::fprintf(stderr, "%s\n",
                                 r.stallDiagnostic.c_str());
                }
            }
            if (options.csv) {
                std::printf("%s,%s,%llu,%llu,%.4f,%.2f,%.2f,%llu,%.4f,"
                            "%.1f\n",
                            app.c_str(), r.policyName.c_str(),
                            static_cast<unsigned long long>(r.cycles),
                            static_cast<unsigned long long>(
                                r.instructions),
                            r.ipc, r.avgResidentCtas, r.avgActiveCtas,
                            static_cast<unsigned long long>(
                                r.dramBytesTotal()),
                            r.depletionStallFraction, r.energy.total());
            } else {
                table.addRow(
                    {app, r.policyName, std::to_string(r.cycles),
                     TableFormatter::num(r.ipc),
                     TableFormatter::num(r.avgResidentCtas, 1),
                     TableFormatter::num(r.avgActiveCtas, 1),
                     TableFormatter::num(r.dramBytesTotal() / 1048576.0,
                                         1),
                     TableFormatter::num(r.energy.total() / 1e6, 2)});
            }
        }
    }

    if (!options.csv)
        std::printf("%s", table.render().c_str());
    if (replayed > 0)
        std::fprintf(stderr,
                     "info: %u of %zu runs replayed from the journal\n",
                     replayed, results.size());

    // Failure summary: where the partial results live and the exact
    // command that reproduces each failed cell on its own.
    if (!failures.empty()) {
        std::fprintf(stderr, "\nsummary: %zu of %zu runs failed\n",
                     failures.size(), results.size());
        if (journal) {
            std::fprintf(stderr,
                         "summary: partial results journaled to %s; "
                         "finish the sweep with --resume %s\n",
                         journal->path().c_str(),
                         journal->path().c_str());
        }
        for (const FailedCell &f : failures) {
            std::fprintf(stderr, "summary: repro %s/%s: %s\n",
                         f.app.c_str(), policyKindName(f.kind),
                         reproCommand(args, f.app, f.kind).c_str());
        }
    }

    // Exit codes (most severe failure wins): 0 all good, 1 simulation
    // error or cycle-cap overrun, 3 wall-clock timeout. 2 is reserved for
    // usage errors.
    switch (worst) {
      case kFailNone: return 0;
      case kFailTimeout: return 3;
      case kFailSimError: return 1;
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    const ParseResult parsed = parseCliOptions(args);
    if (!parsed.ok()) {
        std::fprintf(stderr, "error: %s\n\n%s", parsed.error.c_str(),
                     cliUsage().c_str());
        return 2;
    }
    const CliOptions &options = *parsed.options;

    if (options.help) {
        std::printf("%s", cliUsage().c_str());
        return 0;
    }
    if (options.listApps) {
        printSuite();
        return 0;
    }
    setVerbose(options.verbose);
    if (options.diffCheck)
        return runDiffCheck(options);
    return run(options, args);
}
