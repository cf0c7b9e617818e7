#include "core/cli_options.hh"

#include <sstream>

#include "workloads/suite.hh"

namespace finereg
{

namespace
{

/** Split "a,b,c" into tokens. */
std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> out;
    std::stringstream ss(value);
    std::string token;
    while (std::getline(ss, token, ',')) {
        if (!token.empty())
            out.push_back(token);
    }
    return out;
}

ParseResult
fail(const std::string &message)
{
    ParseResult result;
    result.error = message;
    return result;
}

} // namespace

std::optional<PolicyKind>
parsePolicyName(const std::string &name)
{
    if (name == "baseline" || name == "base")
        return PolicyKind::Baseline;
    if (name == "vt" || name == "virtualthread" || name == "virtual-thread")
        return PolicyKind::VirtualThread;
    if (name == "regdram" || name == "reg+dram" || name == "zorua")
        return PolicyKind::RegDram;
    if (name == "regmutex" || name == "vt+regmutex")
        return PolicyKind::RegMutex;
    if (name == "finereg")
        return PolicyKind::FineReg;
    return std::nullopt;
}

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

ParseResult
parseCliOptions(const std::vector<std::string> &args)
{
    CliOptions options;

    auto need_value = [&](std::size_t i,
                          const std::string &flag) -> std::optional<std::string> {
        if (i + 1 >= args.size())
            return std::nullopt;
        (void)flag;
        return args[i + 1];
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];

        if (arg == "--help" || arg == "-h") {
            options.help = true;
        } else if (arg == "--list-apps") {
            options.listApps = true;
        } else if (arg == "--verbose") {
            options.verbose = true;
        } else if (arg == "--csv") {
            options.csv = true;
        } else if (arg == "--diff-check") {
            options.diffCheck = true;
        } else if (arg == "--unified-memory") {
            options.config.policy.unifiedMemory = true;
        } else if (arg == "--app") {
            const auto value = need_value(i, arg);
            if (!value)
                return fail("--app needs a value");
            ++i;
            for (const auto &name : splitList(*value)) {
                bool known = false;
                for (const auto &app : Suite::all())
                    known = known || app.abbrev == name;
                if (!known)
                    return fail("unknown app '" + name +
                                "' (see --list-apps)");
                options.apps.push_back(name);
            }
        } else if (arg == "--policy") {
            const auto value = need_value(i, arg);
            if (!value)
                return fail("--policy needs a value");
            ++i;
            options.policies.clear();
            for (const auto &name : splitList(*value)) {
                if (name == "all") {
                    options.policies = {
                        PolicyKind::Baseline, PolicyKind::VirtualThread,
                        PolicyKind::RegDram, PolicyKind::RegMutex,
                        PolicyKind::FineReg};
                    continue;
                }
                const auto kind = parsePolicyName(name);
                if (!kind)
                    return fail("unknown policy '" + name + "'");
                options.policies.push_back(*kind);
            }
            if (options.policies.empty())
                return fail("--policy selected nothing");
        } else if (arg == "--scale") {
            const auto value = need_value(i, arg);
            if (!value)
                return fail("--scale needs a value");
            ++i;
            options.gridScale = std::atof(value->c_str());
            if (options.gridScale <= 0.0)
                return fail("--scale must be positive");
        } else if (arg == "--jobs") {
            const auto value = need_value(i, arg);
            if (!value)
                return fail("--jobs needs a value");
            ++i;
            const int jobs = std::atoi(value->c_str());
            if (jobs <= 0)
                return fail("--jobs must be positive");
            options.jobs = static_cast<unsigned>(jobs);
        } else if (arg == "--sms") {
            const auto value = need_value(i, arg);
            if (!value)
                return fail("--sms needs a value");
            ++i;
            const int sms = std::atoi(value->c_str());
            if (sms <= 0)
                return fail("--sms must be positive");
            options.config.numSms = static_cast<unsigned>(sms);
        } else if (arg == "--acrf" || arg == "--pcrf") {
            const auto value = need_value(i, arg);
            if (!value)
                return fail(arg + " needs a value (KB)");
            ++i;
            const long kb = std::atol(value->c_str());
            if (kb <= 0)
                return fail(arg + " must be positive KB");
            if (arg == "--acrf")
                options.config.policy.acrfBytes = kb * 1024ull;
            else
                options.config.policy.pcrfBytes = kb * 1024ull;
        } else if (arg == "--srp-ratio") {
            const auto value = need_value(i, arg);
            if (!value)
                return fail("--srp-ratio needs a value");
            ++i;
            const double ratio = std::atof(value->c_str());
            if (ratio < 0.0 || ratio >= 1.0)
                return fail("--srp-ratio must be in [0, 1)");
            options.config.policy.srpRatio = ratio;
        } else if (arg == "--growth-factor") {
            const auto value = need_value(i, arg);
            if (!value)
                return fail("--growth-factor needs a value");
            ++i;
            options.config.policy.pendingGrowthFactor =
                std::atof(value->c_str());
        } else if (arg == "--sched") {
            const auto value = need_value(i, arg);
            if (!value)
                return fail("--sched needs gto or lrr");
            ++i;
            if (*value == "gto")
                options.config.sm.sched = SchedKind::GTO;
            else if (*value == "lrr")
                options.config.sm.sched = SchedKind::LRR;
            else
                return fail("--sched must be gto or lrr");
        } else if (arg == "--seed") {
            const auto value = need_value(i, arg);
            if (!value)
                return fail("--seed needs a value");
            ++i;
            options.config.seed =
                static_cast<std::uint64_t>(std::atoll(value->c_str()));
        } else if (arg == "--max-cycles") {
            const auto value = need_value(i, arg);
            if (!value)
                return fail("--max-cycles needs a value");
            ++i;
            const long long cap = std::atoll(value->c_str());
            if (cap <= 0)
                return fail("--max-cycles must be positive");
            options.config.maxCycles = static_cast<Cycle>(cap);
        } else if (arg == "--audit-interval") {
            const auto value = need_value(i, arg);
            if (!value)
                return fail("--audit-interval needs a value");
            ++i;
            const long long interval = std::atoll(value->c_str());
            if (interval < 0)
                return fail("--audit-interval must be >= 0");
            options.config.verify.auditInterval =
                static_cast<Cycle>(interval);
        } else if (arg == "--audit-edge-every") {
            const auto value = need_value(i, arg);
            if (!value)
                return fail("--audit-edge-every needs a value");
            ++i;
            const long long every = std::atoll(value->c_str());
            if (every < 0)
                return fail("--audit-edge-every must be >= 0");
            options.config.verify.auditEdgeEvery =
                static_cast<unsigned>(every);
        } else if (arg == "--watchdog-cycles") {
            const auto value = need_value(i, arg);
            if (!value)
                return fail("--watchdog-cycles needs a value");
            ++i;
            const long long cycles = std::atoll(value->c_str());
            if (cycles < 0)
                return fail("--watchdog-cycles must be >= 0");
            options.config.verify.watchdogCycles =
                static_cast<Cycle>(cycles);
        } else if (arg == "--job-timeout-ms") {
            const auto value = need_value(i, arg);
            if (!value)
                return fail("--job-timeout-ms needs a value");
            ++i;
            const double ms = std::atof(value->c_str());
            if (ms < 0.0)
                return fail("--job-timeout-ms must be >= 0");
            options.jobTimeoutMs = ms;
        } else if (arg == "--resume") {
            const auto value = need_value(i, arg);
            if (!value)
                return fail("--resume needs a journal path");
            ++i;
            options.resumePath = *value;
        } else {
            return fail("unknown flag '" + arg + "' (see --help)");
        }
    }

    // FineReg's split must stay consistent with the register file when
    // only one side was overridden.
    const auto rf = options.config.sm.regFileBytes;
    auto &policy = options.config.policy;
    if (policy.acrfBytes + policy.pcrfBytes != rf) {
        if (policy.acrfBytes < rf)
            policy.pcrfBytes = rf - policy.acrfBytes;
        else
            return fail("--acrf must be smaller than the register file");
    }

    ParseResult result;
    result.options = std::move(options);
    return result;
}

std::string
cliUsage()
{
    return "finereg_sim — run the FineReg GPU simulator\n"
           "\n"
           "usage: finereg_sim [flags]\n"
           "  --app NAME[,..]     suite apps to run (default: all 18)\n"
           "  --policy NAME[,..]  baseline|vt|regdram|regmutex|finereg|all\n"
           "                      (default: baseline,finereg)\n"
           "  --scale X           grid scale factor (default 1.0)\n"
           "  --jobs N            parallel simulation jobs (default:\n"
           "                      FINEREG_JOBS env, then hardware threads)\n"
           "  --sms N             number of SMs (default 16)\n"
           "  --acrf KB           FineReg ACRF size (PCRF = RF - ACRF)\n"
           "  --pcrf KB           FineReg PCRF size\n"
           "  --srp-ratio X       RegMutex shared-pool fraction\n"
           "  --growth-factor X   pending-growth damper\n"
           "  --sched gto|lrr     warp scheduler (default gto)\n"
           "  --unified-memory    pool PCRF/shmem/L1 (Sec. VI-G3)\n"
           "  --seed N            simulation seed\n"
           "  --max-cycles N      safety cap\n"
           "  --audit-interval N  run the invariant auditor every N cycles\n"
           "                      (0 = off, default)\n"
           "  --audit-edge-every N  audit every Nth CTA state-transition\n"
           "                      edge (0 = auto: every edge in Debug,\n"
           "                      every 64th in Release; interval 1 always\n"
           "                      audits every edge)\n"
           "  --watchdog-cycles N deadlock watchdog threshold (0 = off,\n"
           "                      default 2000000)\n"
           "  --job-timeout-ms MS per-job wall-clock deadline; a run that\n"
           "                      overruns it fails with a timeout (0 = off,\n"
           "                      default)\n"
           "  --resume FILE       journal completed jobs to FILE (created\n"
           "                      if missing) and replay jobs already\n"
           "                      recorded there instead of re-running\n"
           "  --csv               CSV output (one row per run)\n"
           "  --diff-check        diff every run's architectural end state\n"
           "                      against the reference executor\n"
           "  --list-apps         print the benchmark suite and exit\n"
           "  --verbose           enable status logging\n"
           "  --help              this text\n"
           "\n"
           "exit status: 0 every run ok; 1 a simulation error or cycle-cap\n"
           "overrun; 2 bad flags or an unusable journal; 3 wall-clock\n"
           "timeouts and no harder failure\n";
}

} // namespace finereg
