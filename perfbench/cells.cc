/**
 * @file
 * perfbench_cells: runs one pass of a perfbench workload through the
 * simulator library's public API and prints what it measured as a single
 * JSON object on stdout. run.py starts one process per pass, checks the
 * simulated numbers against perfbench/reference.json, and aggregates.
 *
 *   perfbench_cells --workload NAME --sim-seed N --mode plain|traced|record
 *                   [--jobs N] [--journal PATH] [--trace-out PATH]
 *
 * plain   tracing off; end-to-end metrics. The serial workloads drive
 *         Suite::makeKernel, KernelContext, Gpu and EnergyModel per cell;
 *         sweep-all times three set-ups of every cell, then runs the
 *         matrix through Experiment::runGuardedSweep with a fresh journal.
 * traced  the same cells with a TimedPolicy around makePolicy(config)
 *         (sweep-all: on a ParallelRunner with the same worker count);
 *         per-layer metrics, spans written to --trace-out.
 * record  every cell through Simulator::run, serially: the reference.
 *
 * plain and traced passes scale their host times to the reference host
 * speed with the probe readings they take between cells (host_probe.hh);
 * the trace file keeps the times as measured.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/parallel_runner.hh"
#include "core/sweep_journal.hh"
#include "energy/energy_model.hh"
#include "host_probe.hh"
#include "sm/gpu.hh"
#include "sm/kernel_context.hh"
#include "timed_policy.hh"
#include "verify/sim_error.hh"
#include "workloads/suite.hh"

namespace
{

using namespace finereg;
using perfbench::TimedPolicy;
using Clock = std::chrono::steady_clock;

/** Largest share of a traced cell's span its layer spans may leave
 * uncovered (timer reads and glue between the calls). */
constexpr double kRollupTolerance = 0.01;

struct Workload
{
    const char *name;
    std::vector<PolicyKind> policies;
    double gridScale;
    bool parallel; ///< Runs on a worker pool (runGuardedSweep).
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"suite-baseline", {PolicyKind::Baseline}, 1.0, false},
        {"suite-finereg", {PolicyKind::FineReg}, 1.0, false},
        {"sweep-all",
         {PolicyKind::Baseline, PolicyKind::VirtualThread,
          PolicyKind::RegDram, PolicyKind::RegMutex, PolicyKind::FineReg},
         0.25, true},
    };
    return all;
}

struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t simSeed = 0;
    std::string mode;
    unsigned jobs = 1;
    std::string journalPath;
    std::string traceOut;
};

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

GpuConfig
configFor(PolicyKind kind, std::uint64_t seed)
{
    GpuConfig config = Experiment::configFor(kind);
    config.seed = seed;
    return config;
}

/** One (app, policy) cell: simulated outcome, host spans, counters. */
struct Cell
{
    std::string app;
    PolicyKind policy = PolicyKind::Baseline;

    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t dramData = 0;
    std::uint64_t dramContext = 0;
    std::uint64_t dramBitvec = 0;
    std::string error; ///< Empty when the cell ran to completion.

    // Host spans in ns (plain and traced runs).
    // runNs is the Gpu::run span; for guarded sweep cells it is the
    // journal's per-cell wall, which also covers build and energy.
    double makeKernelNs = 0, contextNs = 0, buildNs = 0, runNs = 0,
           energyNs = 0, cellNs = 0;
    double startNs = 0; ///< Cell start, relative to the pass start.
    unsigned worker = 0;

    // Traced runs only: time and calls per policy hook, stat counters.
    std::array<double, TimedPolicy::kNumHooks> hookNs{};
    std::array<std::uint64_t, TimedPolicy::kNumHooks> hookCalls{};
    std::map<std::string, std::uint64_t> counters;

    double setupNs() const { return makeKernelNs + contextNs + buildNs; }
    double
    policyNs() const
    {
        double sum = 0;
        for (const double ns : hookNs)
            sum += ns;
        return sum;
    }
    /** The span Simulator::run covers: build, run, energy. */
    double simNs() const { return buildNs + runNs + energyNs; }
};

/** Stat counters the traced run reports, summed over a pass. */
const std::vector<std::string> kCounters = {
    "sm.issued",          "gpu.loop_iterations",
    "gpu.skipped_cycles", "dram.accesses",
    "dram.bytes_data",    "dram.bytes_cta_context",
    "finereg.stalled_found", "finereg.no_partner",
    "pcrf.stored_ctas",   "pcrf.restored_ctas",
    "pcrf.writes",        "pcrf.reads",
    "rmu.gathers",        "rmu.bitvec_word_ops",
    "bitvec_cache.hits",  "bitvec_cache.misses",
    "verify.full_audits", "verify.edge_audits",
};

void
collectCounters(Gpu &gpu, Cell &cell)
{
    const StatGroup &stats = gpu.stats();
    for (const std::string &name : kCounters)
        cell.counters[name] = stats.counterValue(name);
    for (unsigned s = 0; s < gpu.config().numSms; ++s) {
        const std::string l1 = "l1_" + std::to_string(s);
        cell.counters["l1.hits"] += stats.counterValue(l1 + ".hits");
        cell.counters["l1.misses"] += stats.counterValue(l1 + ".misses");
    }
}

enum class CellMode
{
    SetupOnly,
    Plain,
    Traced
};

/** Small id per worker thread, for trace rows. */
unsigned
workerIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next++;
    return index;
}

/**
 * Run one cell through the public API, timing each call into a layer from
 * here: Suite::makeKernel (workloads), KernelContext (compiler; Gpu builds
 * its own copy again inside its constructor), Gpu construction and
 * Gpu::run (core), EnergyModel::compute (energy).
 */
Cell
runCell(const SuiteEntry &app, PolicyKind kind, const Options &opt,
        CellMode mode, Clock::time_point pass_start)
{
    Cell cell;
    cell.app = app.abbrev;
    cell.policy = kind;
    cell.worker = workerIndex();
    const GpuConfig config = configFor(kind, opt.simSeed);

    const auto t0 = Clock::now();
    const auto kernel = Suite::makeKernel(app, opt.workload->gridScale);
    const auto t1 = Clock::now();
    {
        const KernelContext context(*kernel);
    }
    const auto t2 = Clock::now();

    TimedPolicy *timed = nullptr;
    std::unique_ptr<Policy> policy;
    if (mode == CellMode::Traced) {
        auto wrapper = std::make_unique<TimedPolicy>(makePolicy(config));
        timed = wrapper.get();
        policy = std::move(wrapper);
    }
    std::unique_ptr<Gpu> gpu;
    try {
        gpu = std::make_unique<Gpu>(config, *kernel, std::move(policy));
    } catch (const SimException &e) {
        cell.error = e.error().toString();
    }
    const auto t3 = Clock::now();

    cell.startNs = nsBetween(pass_start, t0);
    cell.makeKernelNs = nsBetween(t0, t1);
    cell.contextNs = nsBetween(t1, t2);
    cell.buildNs = nsBetween(t2, t3);
    if (mode == CellMode::SetupOnly || !gpu)
        return cell;

    GpuRunResult run;
    const std::uint64_t tick0 = perfbench::cpuTicks();
    try {
        run = gpu->run();
    } catch (const SimException &e) {
        cell.error = e.error().toString();
    }
    const std::uint64_t tick1 = perfbench::cpuTicks();
    const auto t4 = Clock::now();
    const EnergyBreakdown energy =
        EnergyModel().compute(gpu->stats(), run.cycles, config.numSms);
    const auto t5 = Clock::now();

    cell.runNs = nsBetween(t3, t4);
    cell.energyNs = nsBetween(t4, t5);
    cell.cellNs = nsBetween(t0, t5);

    if (run.hitCycleLimit && cell.error.empty())
        cell.error = "hit the cycle cap at " + std::to_string(run.cycles);
    if (!(energy.total() > 0.0) && cell.error.empty())
        cell.error = "energy model returned a non-positive total";

    const StatGroup &stats = gpu->stats();
    cell.cycles = run.cycles;
    cell.instructions = run.instructions;
    cell.dramData = stats.counterValue("dram.bytes_data");
    cell.dramContext = stats.counterValue("dram.bytes_cta_context");
    cell.dramBitvec = stats.counterValue("dram.bytes_bitvec");

    if (timed) {
        // Hook ticks to ns at the rate steady_clock saw over this run.
        const double ns_per_tick =
            tick1 > tick0 ? cell.runNs / double(tick1 - tick0) : 0.0;
        for (int h = 0; h < TimedPolicy::kNumHooks; ++h) {
            const perfbench::HookTime &time = timed->hook(TimedPolicy::Hook(h));
            cell.hookNs[h] = time.ticks * ns_per_tick;
            cell.hookCalls[h] = time.calls;
        }
        collectCounters(*gpu, cell);
    }
    return cell;
}

Cell
cellFromResult(const std::string &app, PolicyKind kind, const SimResult &r)
{
    Cell cell;
    cell.app = app;
    cell.policy = kind;
    cell.cycles = r.cycles;
    cell.instructions = r.instructions;
    cell.dramData = r.dramBytesData;
    cell.dramContext = r.dramBytesCtaContext;
    cell.dramBitvec = r.dramBytesBitvec;
    if (r.failed)
        cell.error = r.failureReason;
    else if (r.hitCycleLimit)
        cell.error = "hit the cycle cap at " + std::to_string(r.cycles);
    return cell;
}

/**
 * Peak resident memory of this process, from VmHWM. getrusage's ru_maxrss
 * is not used: Linux carries the pre-exec peak of the forking parent into
 * it, so it would report the launcher's memory.
 */
double
peakRssMb()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (!status)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, status))
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    std::fclose(status);
    return kib / 1024.0;
}

// ---------------------------------------------------------------------------
// Minimal JSON output.

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return quoted(buf);
}

/** Renders {"name": value, ...} in insertion order. */
class JsonObject
{
  public:
    JsonObject &
    add(const std::string &key, const std::string &raw)
    {
        body_ += (body_.empty() ? "" : ", ") + quoted(key) + ": " + raw;
        return *this;
    }
    JsonObject &num(const std::string &key, double v)
    {
        return add(key, number(v));
    }
    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

// ---------------------------------------------------------------------------
// Passes.

struct Pass
{
    std::vector<Cell> cells;
    double matrixWallNs = 0;
    double setupNs = 0;
    double runNs = 0;      ///< Σ per-cell run time behind winstr_per_s.
    double simNs = 0;      ///< Σ per-cell Simulator::run-equivalent span.
    double cellWallNs = 0; ///< Σ per-cell wall as the pool saw it.
    double longestCellNs = 0;
    unsigned workers = 1;
    std::uint64_t journalAppends = 0;
    std::uint64_t journalBytes = 0;
    std::vector<double> probeNs; ///< Host-probe readings, ns per step.
    double probeWallNs = 0;      ///< Wall time the probe readings took.
};

/** One host-probe reading, taken on the thread that runs the next cell. */
struct ProbeReading
{
    double nsPerStep = 0;
    double wallNs = 0; ///< Taken out of the host time it falls inside.
};

ProbeReading
probeHost()
{
    const auto start = Clock::now();
    const double ns = perfbench::probeNsPerStep();
    return {ns, nsBetween(start, Clock::now())};
}

void
addReading(Pass &pass, const ProbeReading &r)
{
    pass.probeNs.push_back(r.nsPerStep);
    pass.probeWallNs += r.wallNs;
}

double
medianProbeNs(const Pass &pass)
{
    std::vector<double> v = pass.probeNs;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Scale every host time of the pass by the same factor. Ratios of host
 * times (rollup, shares, efficiency) are unchanged. */
void
scaleHostTimes(Pass &pass, double factor)
{
    for (Cell &c : pass.cells) {
        for (double *ns : {&c.makeKernelNs, &c.contextNs, &c.buildNs,
                           &c.runNs, &c.energyNs, &c.cellNs})
            *ns *= factor;
        for (double &ns : c.hookNs)
            ns *= factor;
    }
    for (double *ns : {&pass.matrixWallNs, &pass.setupNs, &pass.runNs,
                       &pass.simNs, &pass.cellWallNs, &pass.longestCellNs})
        *ns *= factor;
}

std::vector<std::pair<const SuiteEntry *, PolicyKind>>
cellOrder(const Workload &w)
{
    std::vector<std::pair<const SuiteEntry *, PolicyKind>> order;
    for (const PolicyKind kind : w.policies)
        for (const SuiteEntry &app : Suite::all())
            order.emplace_back(&app, kind);
    return order;
}

void
addCellTimes(Pass &pass)
{
    for (const Cell &c : pass.cells) {
        pass.setupNs += c.setupNs();
        pass.simNs += c.simNs();
    }
}

Pass
serialPass(const Options &opt, CellMode mode)
{
    Pass pass;
    const auto start = Clock::now();
    for (const auto &[app, kind] : cellOrder(*opt.workload)) {
        addReading(pass, probeHost());
        pass.cells.push_back(runCell(*app, kind, opt, mode, start));
    }
    addReading(pass, probeHost());
    pass.matrixWallNs = nsBetween(start, Clock::now()) - pass.probeWallNs;
    addCellTimes(pass);
    for (const Cell &c : pass.cells) {
        pass.runNs += c.runNs;
        pass.cellWallNs += c.cellNs;
        pass.longestCellNs = std::max(pass.longestCellNs, c.cellNs);
    }
    return pass;
}

/** sweep-all, traced: the benchmark's own cells on a ParallelRunner. */
Pass
tracedPoolPass(const Options &opt)
{
    const auto order = cellOrder(*opt.workload);
    Pass pass;
    pass.cells.resize(order.size());
    pass.workers = opt.jobs;
    std::vector<ProbeReading> readings(order.size());
    const auto start = Clock::now();
    std::vector<ParallelRunner::Job> jobs;
    for (std::size_t i = 0; i < order.size(); ++i) {
        jobs.push_back([&, i] {
            readings[i] = probeHost();
            pass.cells[i] = runCell(*order[i].first, order[i].second, opt,
                                    CellMode::Traced, start);
            return SimResult{};
        });
    }
    ParallelRunner runner({.jobs = opt.jobs, .failFast = false, .stop = {}});
    const ParallelRunner::Outcome outcome = runner.runAll(std::move(jobs));
    for (const ProbeReading &r : readings)
        addReading(pass, r);
    pass.matrixWallNs = nsBetween(start, Clock::now()) -
                        pass.probeWallNs / pass.workers;
    addCellTimes(pass);
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (outcome.results[i].failed && pass.cells[i].error.empty())
            pass.cells[i].error = outcome.results[i].failureReason;
        const double wall_ns = outcome.wallMs[i] * 1e6 - readings[i].wallNs;
        pass.runNs += pass.cells[i].runNs;
        pass.cellWallNs += wall_ns;
        pass.longestCellNs = std::max(pass.longestCellNs, wall_ns);
    }
    return pass;
}

/**
 * sweep-all, untraced: one timed set-up of every cell (runGuardedSweep
 * builds its Gpus inside the pool, out of reach), then the matrix through
 * Experiment::runGuardedSweep with a fresh journal.
 */
Pass
guardedSweepPass(const Options &opt)
{
    const Workload &w = *opt.workload;
    Pass pass;
    pass.workers = opt.jobs;
    {
        // A set-up of all 90 cells takes about 10 ms; the median of three
        // keeps one stray interrupt from setting a pass's figure.
        std::array<double, 3> setup_ns{};
        for (double &ns : setup_ns) {
            const auto start = Clock::now();
            for (const auto &[app, kind] : cellOrder(w))
                ns += runCell(*app, kind, opt, CellMode::SetupOnly, start)
                          .setupNs();
        }
        std::sort(setup_ns.begin(), setup_ns.end());
        pass.setupNs = setup_ns[1];
    }

    std::filesystem::remove(opt.journalPath);
    std::string error;
    auto journal = SweepJournal::open(opt.journalPath, error);
    if (!journal)
        throw std::runtime_error("cannot open journal: " + error);

    std::vector<GpuConfig> configs;
    for (const PolicyKind kind : w.policies)
        configs.push_back(configFor(kind, opt.simSeed));
    GuardedSweepOptions sweep;
    sweep.gridScale = w.gridScale;
    sweep.jobs = opt.jobs;
    sweep.journal = journal.get();
    // Each worker takes a probe reading just before it simulates a cell.
    std::mutex probe_mutex;
    std::map<std::string, double> probe_wall_ns;
    sweep.perAttempt = [&](GpuConfig &, const std::string &key, unsigned) {
        const ProbeReading r = probeHost();
        const std::lock_guard<std::mutex> lock(probe_mutex);
        addReading(pass, r);
        probe_wall_ns[key] += r.wallNs;
    };

    const auto start = Clock::now();
    const GuardedSweepOutcome outcome =
        Experiment::runGuardedSweep(configs, sweep);
    pass.matrixWallNs = nsBetween(start, Clock::now()) -
                        pass.probeWallNs / pass.workers;

    std::map<std::string, double> wall_ms;
    for (const JournalEntry &e : journal->entries())
        wall_ms[e.key] = e.wallMs;
    pass.journalAppends = journal->size();
    journal.reset();
    pass.journalBytes = std::filesystem::file_size(opt.journalPath);
    std::filesystem::remove(opt.journalPath);

    const auto &apps = Suite::all();
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (std::size_t a = 0; a < apps.size(); ++a) {
            pass.cells.push_back(cellFromResult(
                apps[a].abbrev, w.policies[c], outcome.results[c][a]));
            const auto it = wall_ms.find(outcome.keys[c][a]);
            if (it == wall_ms.end()) {
                pass.cells.back().error = "no journal entry for " +
                                          outcome.keys[c][a];
                continue;
            }
            const double ns = it->second * 1e6 -
                              probe_wall_ns[outcome.keys[c][a]];
            pass.cells.back().runNs = ns;
            pass.runNs += ns;
            pass.simNs += ns;
            pass.cellWallNs += ns;
            pass.longestCellNs = std::max(pass.longestCellNs, ns);
        }
    }
    return pass;
}

Pass
recordPass(const Options &opt)
{
    Pass pass;
    for (const auto &[app, kind] : cellOrder(*opt.workload)) {
        const auto kernel = Suite::makeKernel(*app, opt.workload->gridScale);
        pass.cells.push_back(cellFromResult(
            app->abbrev, kind,
            Simulator::run(configFor(kind, opt.simSeed), *kernel)));
    }
    return pass;
}

// ---------------------------------------------------------------------------
// Traced-run rollup and span output.

/**
 * Per-layer metrics of a traced pass. Also checks each cell's rollup: the
 * policy aggregate must fit inside gpu_run, and the layer spans must cover
 * the cell span to within kRollupTolerance; a cell that fails either is
 * marked failed.
 */
std::string
layerMetrics(Pass &pass)
{
    std::map<std::string, double> sum;
    std::array<double, TimedPolicy::kNumHooks> hook_ns{};
    std::uint64_t tick_calls = 0;
    double policy_ns = 0;
    for (Cell &c : pass.cells) {
        for (const auto &[name, v] : c.counters)
            sum[name] += static_cast<double>(v);
        for (int h = 0; h < TimedPolicy::kNumHooks; ++h)
            hook_ns[h] += c.hookNs[h];
        tick_calls += c.hookCalls[TimedPolicy::Tick];
        policy_ns += c.policyNs();

        const double covered = c.makeKernelNs + c.contextNs + c.buildNs +
                               c.runNs + c.energyNs;
        if (!c.error.empty())
            continue;
        if (c.policyNs() > c.runNs)
            c.error = "trace rollup: policy hooks exceed gpu_run";
        else if (c.cellNs - covered > kRollupTolerance * c.cellNs)
            c.error = "trace rollup: layer spans cover only " +
                      number(covered / c.cellNs) + " of the cell span";
    }

    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double loop_self_ns = pass.runNs - policy_ns;
    double make_kernel = 0, context = 0, build = 0, energy = 0;
    for (const Cell &c : pass.cells) {
        make_kernel += c.makeKernelNs;
        context += c.contextNs;
        build += c.buildNs;
        energy += c.energyNs;
    }
    const double l1 = sum["l1.hits"] + sum["l1.misses"];
    JsonObject m;
    m.num("workloads.make_kernel_ms", make_kernel / 1e6)
        .num("compiler.kernel_context_ms", context / 1e6)
        .num("core.gpu_build_ms", build / 1e6)
        .num("core.gpu_run_ms", pass.runNs / 1e6)
        .num("energy.compute_ms", energy / 1e6)
        .num("sm.loop_self_ms", loop_self_ns / 1e6)
        .num("sm.issued", sum["sm.issued"])
        .num("sm.loop_iterations", sum["gpu.loop_iterations"])
        .num("sm.skipped_cycles", sum["gpu.skipped_cycles"])
        .num("sm.issued_per_iteration",
             ratio(sum["sm.issued"], sum["gpu.loop_iterations"]))
        .num("sm.ns_per_issue", ratio(loop_self_ns, sum["sm.issued"]))
        .num("mem.l1_accesses", l1)
        .num("mem.l1_hit_ratio", ratio(sum["l1.hits"], l1))
        .num("mem.dram_accesses", sum["dram.accesses"])
        .num("mem.dram_bytes_data", sum["dram.bytes_data"])
        .num("mem.dram_bytes_cta_context", sum["dram.bytes_cta_context"])
        .num("policies.tick_ms", hook_ns[TimedPolicy::Tick] / 1e6)
        .num("policies.tick_calls", static_cast<double>(tick_calls))
        .num("policies.ns_per_tick",
             ratio(hook_ns[TimedPolicy::Tick], tick_calls))
        .num("policies.next_event_ms", hook_ns[TimedPolicy::NextEvent] / 1e6)
        .num("policies.depletion_check_ms",
             hook_ns[TimedPolicy::DepletionCheck] / 1e6)
        .num("policies.cta_finished_ms",
             hook_ns[TimedPolicy::CtaFinished] / 1e6)
        .num("policies.share", ratio(policy_ns, pass.runNs))
        .num("policies.stalled_found", sum["finereg.stalled_found"])
        .num("policies.no_partner", sum["finereg.no_partner"])
        .num("regfile.pcrf_stored_ctas", sum["pcrf.stored_ctas"])
        .num("regfile.pcrf_restored_ctas", sum["pcrf.restored_ctas"])
        .num("regfile.pcrf_writes", sum["pcrf.writes"])
        .num("regfile.pcrf_reads", sum["pcrf.reads"])
        .num("regfile.rmu_gathers", sum["rmu.gathers"])
        .num("regfile.bitvec_word_ops", sum["rmu.bitvec_word_ops"])
        .num("regfile.bitvec_cache_hit_ratio",
             ratio(sum["bitvec_cache.hits"],
                   sum["bitvec_cache.hits"] + sum["bitvec_cache.misses"]))
        .num("verify.full_audits", sum["verify.full_audits"])
        .num("verify.edge_audits", sum["verify.edge_audits"]);
    return m.str();
}

/** Chrome trace-event JSON: one span tree per cell, the policy hooks as
 * one aggregated child of gpu_run carrying per-hook call counts. */
void
writeTrace(const Pass &pass, const std::string &path)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
    std::fputs("{\"traceEvents\": [\n", out);
    bool first = true;
    auto span = [&](const Cell &c, const char *name, double start_ns,
                    double dur_ns, const std::string &args) {
        JsonObject e;
        e.add("name", quoted(name))
            .add("ph", quoted("X"))
            .num("pid", 1)
            .num("tid", c.worker)
            .num("ts", start_ns / 1e3)
            .num("dur", dur_ns / 1e3)
            .add("args", args);
        std::fputs((first ? "" : ",\n"), out);
        std::fputs(e.str().c_str(), out);
        first = false;
    };
    static const char *hook_names[] = {"tick", "next_event",
                                       "depletion_check", "cta_finished",
                                       "audit"};
    for (const Cell &c : pass.cells) {
        const std::string cell_args =
            JsonObject()
                .add("app", quoted(c.app))
                .add("policy", quoted(policyKindName(c.policy)))
                .str();
        double t = c.startNs;
        span(c, "cell", t, c.cellNs, cell_args);
        span(c, "make_kernel", t, c.makeKernelNs, "{}");
        t += c.makeKernelNs;
        span(c, "kernel_context", t, c.contextNs, "{}");
        t += c.contextNs;
        span(c, "gpu_build", t, c.buildNs, "{}");
        t += c.buildNs;
        span(c, "gpu_run", t, c.runNs, "{}");
        JsonObject calls;
        for (int h = 0; h < TimedPolicy::kNumHooks; ++h)
            calls.num(std::string(hook_names[h]) + "_calls",
                      static_cast<double>(c.hookCalls[h]));
        span(c, "policies", t, c.policyNs(), calls.str());
        t += c.runNs;
        span(c, "energy", t, c.energyNs, "{}");
    }
    std::fputs("\n]}\n", out);
    std::fclose(out);
}

// ---------------------------------------------------------------------------

std::string
stamps(const Workload &w)
{
    JsonObject config_fnv, kernel_fnv;
    std::string policies;
    for (const PolicyKind kind : w.policies) {
        policies += (policies.empty() ? "" : ", ") +
                    quoted(policyKindName(kind));
        config_fnv.add(policyKindName(kind),
                       hex(configFingerprint(configFor(kind, 0))));
    }
    for (const SuiteEntry &app : Suite::all())
        kernel_fnv.add(app.abbrev, hex(kernelFingerprint(*Suite::makeKernel(
                                       app, w.gridScale))));
    return JsonObject()
        .num("grid_scale", w.gridScale)
        .add("policies", "[" + policies + "]")
        .add("config_fnv", config_fnv.str())
        .add("kernel_fnv", kernel_fnv.str())
        .str();
}

std::string
cellsJson(const Pass &pass)
{
    std::string out = "[";
    for (const Cell &c : pass.cells) {
        out += (out.size() > 1 ? ",\n  [" : "\n  [") + quoted(c.app) + ", " +
               quoted(policyKindName(c.policy)) + ", " +
               std::to_string(c.cycles) + ", " +
               std::to_string(c.instructions) + ", " +
               std::to_string(c.dramData) + ", " +
               std::to_string(c.dramContext) + ", " +
               std::to_string(c.dramBitvec) + ", " + quoted(c.error) + ", " +
               number(c.runNs / 1e6) + "]";
    }
    return out + "]";
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench_cells: %s\nusage: perfbench_cells --workload "
                 "NAME --sim-seed N --mode plain|traced|record [--jobs N] "
                 "[--journal PATH] [--trace-out PATH]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            for (const Workload &w : workloads())
                if (value == w.name)
                    opt.workload = &w;
            if (!opt.workload)
                usage("unknown workload " + value);
        } else if (flag == "--sim-seed") {
            opt.simSeed = std::stoull(value, nullptr, 0);
        } else if (flag == "--mode") {
            opt.mode = value;
        } else if (flag == "--jobs") {
            opt.jobs = std::max(1, std::stoi(value));
        } else if (flag == "--journal") {
            opt.journalPath = value;
        } else if (flag == "--trace-out") {
            opt.traceOut = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!opt.workload)
        usage("--workload is required");
    if (opt.mode != "plain" && opt.mode != "traced" && opt.mode != "record")
        usage("--mode must be plain, traced or record");
    if (opt.mode == "plain" && opt.workload->parallel &&
        opt.journalPath.empty())
        usage("sweep workloads need --journal");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const Workload &w = *opt.workload;

    Pass pass;
    std::string layers;
    if (opt.mode == "record") {
        pass = recordPass(opt);
    } else if (opt.mode == "plain") {
        pass = w.parallel ? guardedSweepPass(opt)
                          : serialPass(opt, CellMode::Plain);
    } else {
        pass = w.parallel ? tracedPoolPass(opt)
                          : serialPass(opt, CellMode::Traced);
        // The trace keeps the host times as measured.
        if (!opt.traceOut.empty())
            writeTrace(pass, opt.traceOut);
    }
    const double probe_ns = pass.probeNs.empty() ? 0 : medianProbeNs(pass);
    if (opt.mode != "record")
        scaleHostTimes(pass, perfbench::kReferenceProbeNs / probe_ns);
    if (opt.mode == "traced")
        layers = layerMetrics(pass);

    double cycles = 0, instructions = 0;
    for (const Cell &c : pass.cells) {
        cycles += static_cast<double>(c.cycles);
        instructions += static_cast<double>(c.instructions);
    }

    JsonObject out;
    out.add("workload", quoted(w.name))
        .add("mode", quoted(opt.mode))
        .add("sim_seed", std::to_string(opt.simSeed))
        .add("stamps", stamps(w))
        .add("cells", cellsJson(pass));
    if (opt.mode != "record") {
        out.add("e2e",
                JsonObject()
                    .num("winstr_per_s", instructions / (pass.runNs / 1e9))
                    .num("host_us_per_cycle", pass.runNs / 1e3 / cycles)
                    .num("matrix_wall_s", pass.matrixWallNs / 1e9)
                    .num("setup_s", pass.setupNs / 1e9)
                    .num("peak_rss_mb", peakRssMb())
                    .str())
            .add("pool",
                 JsonObject()
                     .num("parallel_efficiency",
                          pass.cellWallNs /
                              (pass.workers * pass.matrixWallNs))
                     .num("longest_cell_ms", pass.longestCellNs / 1e6)
                     .num("journal_appends",
                          static_cast<double>(pass.journalAppends))
                     .num("journal_bytes",
                          static_cast<double>(pass.journalBytes))
                     .str())
            .num("sim_s", pass.simNs / 1e9)
            .num("probe_ns", probe_ns);
    }
    if (!layers.empty())
        out.add("layers", layers);
    std::printf("%s\n", out.str().c_str());
    return 0;
}
