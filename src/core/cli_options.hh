/**
 * @file
 * Command-line options for the finereg_sim driver. Parsing is a library
 * function (no exit/abort on bad input) so it is unit-testable; the
 * driver turns ParseResult errors into usage output.
 */

#ifndef FINEREG_CORE_CLI_OPTIONS_HH
#define FINEREG_CORE_CLI_OPTIONS_HH

#include <optional>
#include <string>
#include <vector>

#include "core/gpu_config.hh"

namespace finereg
{

struct CliOptions
{
    /** Suite abbreviations to run; empty selects the whole suite. */
    std::vector<std::string> apps;

    /** Policies to run (default: baseline and FineReg). */
    std::vector<PolicyKind> policies{PolicyKind::Baseline,
                                     PolicyKind::FineReg};

    double gridScale = 1.0;

    /** Parallel worker count (0 = FINEREG_JOBS env, then hardware). */
    unsigned jobs = 0;

    /** The device configuration after applying overrides. */
    GpuConfig config = GpuConfig::gtx980();

    bool verbose = false;
    bool listApps = false;
    bool help = false;

    /** Emit one CSV row per run instead of the ASCII table. */
    bool csv = false;

    /**
     * Differential mode: instead of reporting performance, diff each run's
     * architectural end state against the untimed reference executor and
     * fail on any divergence.
     */
    bool diffCheck = false;

    // Deadline and resume knobs (JobGuard + SweepJournal).

    /** Per-job wall-clock deadline in ms; 0 disables (default). */
    double jobTimeoutMs = 0.0;

    /** Sweep journal path: completed jobs are recorded as they finish and
     * jobs already recorded "ok" are replayed instead of re-run. Empty
     * (default) disables journaling. */
    std::string resumePath;
};

struct ParseResult
{
    std::optional<CliOptions> options; ///< set on success
    std::string error;                 ///< set on failure

    bool ok() const { return options.has_value(); }
};

/**
 * Parse argv into CliOptions.
 *
 * Supported flags:
 *   --app NAME[,NAME...]      suite apps to run (default: all)
 *   --policy NAME[,NAME...]   baseline|vt|regdram|regmutex|finereg|all
 *   --scale X                 grid scale factor (default 1.0)
 *   --jobs N                  parallel simulation jobs (default:
 *                             FINEREG_JOBS env, then hardware threads)
 *   --sms N                   number of SMs
 *   --acrf KB / --pcrf KB     FineReg register file split
 *   --srp-ratio X             RegMutex shared-pool fraction
 *   --growth-factor X         pending-growth damper
 *   --sched gto|lrr           warp scheduler
 *   --unified-memory          enable the UM configuration (Sec. VI-G3)
 *   --seed N                  simulation seed
 *   --max-cycles N            simulation cycle cap
 *   --audit-interval N        invariant auditor period (0 = off)
 *   --watchdog-cycles N       deadlock watchdog threshold (0 = off)
 *   --fault-seed N            deterministic fault injection (0 = off)
 *   --fault-dram P            injected DRAM-delay probability
 *   --fault-pcrf P            injected PCRF-full probability
 *   --fault-bitvec P          injected bit-vector-cache-miss probability
 *   --job-timeout-ms MS       per-job wall-clock deadline (0 = off)
 *   --resume FILE             journal completed jobs to FILE and replay
 *                             any already recorded there
 *   --diff-check              diff end states against the reference executor
 *   --csv                     machine-readable output
 *   --verbose                 enable inform() logging
 *   --list-apps               print the suite and exit
 *   --help                    print usage and exit
 */
ParseResult parseCliOptions(const std::vector<std::string> &args);

/** The usage text --help prints. */
std::string cliUsage();

/** Parse a policy name ("finereg", "vt", ...); nullopt when unknown. */
std::optional<PolicyKind> parsePolicyName(const std::string &name);

} // namespace finereg

#endif // FINEREG_CORE_CLI_OPTIONS_HH
