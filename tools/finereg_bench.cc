/**
 * @file
 * finereg_bench — the machine-readable suite benchmark. Runs the full
 * application suite under a set of policies on the parallel runner and
 * emits BENCH_suite.json: per-app/per-policy {cycles, instructions, ipc,
 * speedup_vs_baseline, dram_bytes_{data,cta,bitvec}, wall_ms} plus host
 * metadata. CI diffs this artifact against the checked-in golden baseline
 * (bench/golden/BENCH_suite.json) with tools/bench_diff.py.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lint.hh"
#include "core/cli_options.hh"
#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "workloads/suite.hh"

using namespace finereg;

namespace
{

struct BenchOptions
{
    std::string outPath = "BENCH_suite.json";
    double scale = 0.0; // 0 = FINEREG_BENCH_SCALE env, then 1.0
    unsigned jobs = 0;
    bool failFast = false;
    std::vector<PolicyKind> policies{PolicyKind::Baseline,
                                     PolicyKind::FineReg};

    // Deadline and resume knobs (JobGuard + SweepJournal).
    double jobTimeoutMs = 0.0;
    std::string resumePath;
};

const char *kUsage =
    "finereg_bench — run the suite and emit BENCH_suite.json\n"
    "\n"
    "usage: finereg_bench [flags]\n"
    "  --out FILE        output path (default BENCH_suite.json)\n"
    "  --scale X         grid scale (default: FINEREG_BENCH_SCALE env,\n"
    "                    then 1.0)\n"
    "  --policy NAME[,..] baseline|vt|regdram|regmutex|finereg|all\n"
    "                    (default: baseline,finereg)\n"
    "  --jobs N          parallel jobs (default: FINEREG_JOBS env, then\n"
    "                    hardware threads)\n"
    "  --fail-fast       cancel pending runs after the first failure\n"
    "  --job-timeout-ms MS  per-run wall-clock deadline (0 = off)\n"
    "  --resume FILE     journal completed runs to FILE and replay runs\n"
    "                    already recorded there (wall_ms excepted, the\n"
    "                    resumed JSON is bit-identical)\n"
    "  --help            this text\n";

double
resolveScale(double requested)
{
    if (requested > 0.0)
        return requested;
    if (const char *env = std::getenv("FINEREG_BENCH_SCALE")) {
        const double parsed = std::atof(env);
        if (parsed > 0.0)
            return parsed;
    }
    return 1.0;
}

/**
 * Minimal JSON emitter: supports exactly the shapes this tool writes
 * (string keys without escapes, numbers, booleans, nested objects/arrays).
 */
class JsonWriter
{
  public:
    void
    key(const std::string &name)
    {
        comma();
        oss_ << '"' << name << "\":";
        need_ = false;
    }

    void
    open(char c)
    {
        comma();
        oss_ << c;
        need_ = false;
    }

    void
    close(char c)
    {
        oss_ << c;
        need_ = true;
    }

    void
    str(const std::string &v)
    {
        comma();
        oss_ << '"' << v << '"';
        need_ = true;
    }

    void
    num(double v, int precision = 6)
    {
        comma();
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.*f", precision, v);
        oss_ << buf;
        need_ = true;
    }

    void
    u64(std::uint64_t v)
    {
        comma();
        oss_ << v;
        need_ = true;
    }

    void
    boolean(bool v)
    {
        comma();
        oss_ << (v ? "true" : "false");
        need_ = true;
    }

    std::string text() const { return oss_.str(); }

  private:
    void
    comma()
    {
        if (need_)
            oss_ << ',';
        need_ = false;
    }

    std::ostringstream oss_;
    bool need_ = false;
};

int
runBench(const BenchOptions &options)
{
    const double scale = resolveScale(options.scale);
    const unsigned jobs = ParallelRunner::resolveJobs(options.jobs);
    const auto &apps = Suite::all();

    std::fprintf(stderr,
                 "bench: %zu apps x %zu policies at scale %.3f with %u "
                 "jobs\n",
                 apps.size(), options.policies.size(), scale, jobs);

    std::unique_ptr<SweepJournal> journal;
    if (!options.resumePath.empty()) {
        std::string error;
        journal = SweepJournal::open(options.resumePath, error);
        if (!journal) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return 2;
        }
        std::fprintf(stderr, "bench: journal %s: %zu entries (%zu ok)\n",
                     journal->path().c_str(), journal->size(),
                     journal->completedCount());
    }
    JobGuard guard(options.jobTimeoutMs);

    // Policy-major matrix so results[p * napps + a] = (policy p, app a).
    // Kernels are built once per app and shared across policies.
    std::vector<std::shared_ptr<const Kernel>> kernels;
    kernels.reserve(apps.size());
    for (const auto &app : apps)
        kernels.push_back(Suite::makeKernel(app, scale));

    std::vector<ParallelRunner::Job> matrix;
    matrix.reserve(options.policies.size() * apps.size());
    for (const PolicyKind kind : options.policies) {
        const GpuConfig config = Experiment::configFor(kind);
        for (std::size_t a = 0; a < apps.size(); ++a) {
            matrix.push_back(Experiment::makeGuardedJob(
                kernels[a], config, apps[a].abbrev,
                makeSweepJobKey(*kernels[a], config).toString(), guard,
                journal.get()));
        }
    }

    ParallelRunner runner({.jobs = options.jobs,
                           .failFast = options.failFast,
                           .stop = {}});
    const ParallelRunner::Outcome outcome = runner.runAll(std::move(matrix));

    // Baseline IPC per app for speedup_vs_baseline (0 when the baseline
    // policy was not part of the sweep).
    std::vector<double> baseline_ipc(apps.size(), 0.0);
    for (std::size_t p = 0; p < options.policies.size(); ++p) {
        if (options.policies[p] != PolicyKind::Baseline)
            continue;
        for (std::size_t a = 0; a < apps.size(); ++a)
            baseline_ipc[a] = outcome.results[p * apps.size() + a].ipc;
    }

    JsonWriter json;
    json.open('{');
    json.key("schema");
    json.str("finereg-bench-suite");
    json.key("schema_version");
    json.u64(2);

    json.key("host");
    json.open('{');
    json.key("hardware_concurrency");
    json.u64(std::thread::hardware_concurrency());
    json.key("jobs");
    json.u64(outcome.jobsUsed);
    json.key("scale");
    json.num(scale, 4);
    json.key("compiler");
    json.str(
#if defined(__VERSION__)
        __VERSION__
#else
        "unknown"
#endif
    );
    json.key("build_type");
#if defined(NDEBUG)
    json.str("release");
#else
    json.str("debug");
#endif
    json.key("unix_time");
    json.u64(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count()));
    json.close('}');

    json.key("policies");
    json.open('[');
    for (const PolicyKind kind : options.policies)
        json.str(policyKindName(kind));
    json.close(']');

    bool any_failed = false;
    json.key("apps");
    json.open('{');
    for (std::size_t a = 0; a < apps.size(); ++a) {
        json.key(apps[a].abbrev);
        json.open('{');
        for (std::size_t p = 0; p < options.policies.size(); ++p) {
            const std::size_t i = p * apps.size() + a;
            const SimResult &r = outcome.results[i];
            json.key(policyKindName(options.policies[p]));
            json.open('{');
            json.key("cycles");
            json.u64(r.cycles);
            json.key("instructions");
            json.u64(r.instructions);
            json.key("ipc");
            json.num(r.ipc);
            json.key("speedup_vs_baseline");
            json.num(baseline_ipc[a] > 0.0 ? r.ipc / baseline_ipc[a]
                                           : 0.0);
            json.key("dram_bytes_data");
            json.u64(r.dramBytesData);
            json.key("dram_bytes_cta");
            json.u64(r.dramBytesCtaContext);
            json.key("dram_bytes_bitvec");
            json.u64(r.dramBytesBitvec);
            json.key("wall_ms");
            json.num(outcome.wallMs[i], 3);
            json.key("failed");
            json.boolean(r.failed || r.hitCycleLimit);
            // Host-side perf counters: explain wall_ms, never compared
            // against goldens (bench_diff.py reads fixed metric names).
            json.key("host_perf");
            json.open('{');
            json.key("loop_iterations");
            json.u64(r.hostPerf.loopIterations);
            json.key("skipped_cycles");
            json.u64(r.hostPerf.skippedCycles);
            json.key("arena_allocs");
            json.u64(r.hostPerf.arenaAllocs);
            json.key("arena_bytes");
            json.u64(r.hostPerf.arenaBytes());
            json.key("bitvec_word_ops");
            json.u64(r.hostPerf.bitvecWordOps);
            json.key("full_audits");
            json.u64(r.hostPerf.fullAudits);
            json.key("edge_audits");
            json.u64(r.hostPerf.edgeAudits);
            json.close('}');
            json.close('}');
            if (r.failed || r.hitCycleLimit) {
                any_failed = true;
                std::fprintf(stderr, "bench: %s/%s FAILED: %s\n",
                             apps[a].abbrev.c_str(),
                             policyKindName(options.policies[p]),
                             r.failed ? r.failureReason.c_str()
                                      : "hit the cycle cap");
            }
        }
        json.close('}');
    }
    json.close('}');

    // Static per-app analysis (schema v3: abstract-interpretation summary
    // joined the liveness stats). Kept as a sibling of "apps" rather than
    // inside each app object so bench_diff.py, which treats every key of
    // an app object as a policy name, never sees it. These stats are
    // grid-scale invariant, so no scale is applied.
    json.key("static_schema_version");
    json.u64(3);
    json.key("static");
    json.open('{');
    auto manager = analysis::AnalysisManager::withDefaultPasses();
    // The manager caches by kernel address: keep every kernel alive for
    // the whole loop so a reallocation can never alias a cache entry.
    std::vector<std::unique_ptr<Kernel>> static_kernels;
    for (const auto &app : apps) {
        static_kernels.push_back(Suite::makeKernel(app));
        const Kernel &kernel = *static_kernels.back();
        const analysis::LintResult lint = analysis::lintKernel(*manager, kernel);
        json.key(app.abbrev);
        json.open('{');
        json.key("static_instrs");
        json.u64(lint.stats.staticInstrs);
        json.key("blocks");
        json.u64(lint.stats.numBlocks);
        json.key("max_live");
        json.u64(lint.stats.maxLive);
        json.key("mean_live");
        json.num(lint.stats.meanLive, 3);
        json.key("live_ratio");
        json.num(lint.stats.liveRatio, 4);
        json.key("dead_defs");
        json.u64(lint.stats.deadDefs);
        json.key("lint_errors");
        json.u64(lint.diags.errors());
        json.key("lint_warnings");
        json.u64(lint.diags.warnings());
        json.key("const_foldable_defs");
        json.u64(lint.stats.constFoldableDefs);
        json.key("overflow_defs");
        json.u64(lint.stats.overflowDefs);
        json.key("coalescing");
        json.str(lint.stats.coalescing);
        json.key("dram_transaction_bound");
        json.u64(lint.stats.dramBoundKnown ? lint.stats.dramTransactionBound
                                           : 0);
        json.key("narrow_regs");
        json.u64(lint.stats.narrowRegs);
        json.key("uniform_regs");
        json.u64(lint.stats.uniformRegs);
        json.key("mean_bits_per_def");
        json.num(lint.stats.meanBitsPerDef, 3);
        json.key("predicted_compression_ratio");
        json.num(lint.stats.predictedCompressionRatio, 4);
        json.key("race_verdict");
        json.str(lint.stats.raceVerdict);
        json.close('}');
    }
    json.close('}');

    json.key("total_wall_ms");
    json.num(outcome.totalWallMs, 3);
    json.close('}');

    std::ofstream out(options.outPath);
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     options.outPath.c_str());
        return 2;
    }
    out << json.text() << '\n';
    std::fprintf(stderr, "bench: wrote %s (%.0f ms total)\n",
                 options.outPath.c_str(), outcome.totalWallMs);
    return any_failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--help" || arg == "-h") {
            std::printf("%s", kUsage);
            return 0;
        } else if (arg == "--out") {
            const char *v = value();
            if (!v) {
                std::fprintf(stderr, "error: --out needs a value\n");
                return 2;
            }
            options.outPath = v;
        } else if (arg == "--scale") {
            const char *v = value();
            if (!v || std::atof(v) <= 0.0) {
                std::fprintf(stderr,
                             "error: --scale needs a positive value\n");
                return 2;
            }
            options.scale = std::atof(v);
        } else if (arg == "--jobs") {
            const char *v = value();
            if (!v || std::atoi(v) <= 0) {
                std::fprintf(stderr,
                             "error: --jobs needs a positive value\n");
                return 2;
            }
            options.jobs = static_cast<unsigned>(std::atoi(v));
        } else if (arg == "--fail-fast") {
            options.failFast = true;
        } else if (arg == "--job-timeout-ms") {
            const char *v = value();
            if (!v || std::atof(v) < 0.0) {
                std::fprintf(stderr,
                             "error: --job-timeout-ms needs a value >= 0\n");
                return 2;
            }
            options.jobTimeoutMs = std::atof(v);
        } else if (arg == "--resume") {
            const char *v = value();
            if (!v) {
                std::fprintf(stderr,
                             "error: --resume needs a journal path\n");
                return 2;
            }
            options.resumePath = v;
        } else if (arg == "--policy") {
            const char *v = value();
            if (!v) {
                std::fprintf(stderr, "error: --policy needs a value\n");
                return 2;
            }
            options.policies.clear();
            std::stringstream ss{std::string(v)};
            std::string token;
            while (std::getline(ss, token, ',')) {
                if (token == "all") {
                    options.policies = {
                        PolicyKind::Baseline, PolicyKind::VirtualThread,
                        PolicyKind::RegDram, PolicyKind::RegMutex,
                        PolicyKind::FineReg};
                    continue;
                }
                const auto kind = parsePolicyName(token);
                if (!kind) {
                    std::fprintf(stderr, "error: unknown policy '%s'\n",
                                 token.c_str());
                    return 2;
                }
                options.policies.push_back(*kind);
            }
            if (options.policies.empty()) {
                std::fprintf(stderr, "error: --policy selected nothing\n");
                return 2;
            }
        } else {
            std::fprintf(stderr, "error: unknown flag '%s'\n\n%s",
                         arg.c_str(), kUsage);
            return 2;
        }
    }
    return runBench(options);
}
