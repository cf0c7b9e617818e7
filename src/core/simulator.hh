/**
 * @file
 * Simulator: the library's main entry point. Wraps Gpu construction and
 * execution, applies unified-on-chip-memory (UM) config transforms
 * (Sec. VI-G3), and condenses a finished run's stat group into a SimResult
 * that benches and tests consume directly.
 */

#ifndef FINEREG_CORE_SIMULATOR_HH
#define FINEREG_CORE_SIMULATOR_HH

#include <memory>
#include <string>

#include "core/gpu_config.hh"
#include "energy/energy_model.hh"
#include "isa/kernel.hh"
#include "policies/policy.hh"
#include "verify/sim_error.hh"

namespace finereg
{

struct ArchState;

/** Condensed outcome of one kernel execution. */
struct SimResult
{
    std::string kernelName;
    std::string policyName;

    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;
    bool hitCycleLimit = false;
    unsigned completedCtas = 0;

    /** Time-averaged per-SM occupancy. */
    double avgResidentCtas = 0.0;
    double avgActiveCtas = 0.0;
    double avgActiveThreads = 0.0;

    /** Off-chip traffic split (Fig. 15). */
    std::uint64_t dramBytesData = 0;
    std::uint64_t dramBytesCtaContext = 0;
    std::uint64_t dramBytesBitvec = 0;
    std::uint64_t dramBytesTotal() const
    {
        return dramBytesData + dramBytesCtaContext + dramBytesBitvec;
    }

    /** Fraction of cycles stalled on RF depletion (Fig. 14). */
    double depletionStallFraction = 0.0;

    /** L1 behaviour (aggregated over SMs). */
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;

    /** Fig. 5 register-usage window stats (when usageTracking was on). */
    double rfUsageMean = 0.0;
    double rfUsageMin = 0.0;
    double rfUsageMax = 0.0;

    /** Table III stall-episode stats (when stallProbe was on). */
    double stallEpisodeMean = 0.0;
    std::uint64_t stallEpisodes = 0;

    /** Fig. 16 energy stack. */
    EnergyBreakdown energy;

    /** Scheme storage overhead (Sec. V-F), bits. */
    std::uint64_t policyStorageBits = 0;

    /**
     * Host-side performance counters: where the simulator's own wall
     * time went, not simulated behaviour. All informational — none of
     * these affect simulated cycles, and bench_diff.py ignores them when
     * comparing against goldens. They are deterministic, so the sweep
     * journal records them and a resumed sweep replays them.
     */
    struct HostPerf
    {
        std::uint64_t loopIterations = 0; ///< Run-loop ticks executed.
        std::uint64_t skippedCycles = 0;  ///< Idle cycles jumped over.
        std::uint64_t arenaAllocs = 0;    ///< PCRF chain-entry writes (arena slots).
        std::uint64_t bitvecWordOps = 0;  ///< 64-bit bitvector word operations.
        std::uint64_t fullAudits = 0;     ///< Periodic full-state audit invocations.
        std::uint64_t edgeAudits = 0;     ///< State-transition-edge audit invocations.

        /** Modelled bytes through the arena. Each arena slot is one PCRF
         * chain entry: a 128-bit register value plus tag/next metadata,
         * accounted as 16 B of payload. */
        std::uint64_t arenaBytes() const { return arenaAllocs * 16; }
    };
    HostPerf hostPerf;

    /** True when this result was replayed from a sweep journal instead of
     * being re-simulated (--resume). */
    bool fromJournal = false;

    /** True when the run aborted with a typed SimError (see error). */
    bool failed = false;

    /** The error that aborted the run; kind is None on success. */
    SimError error;

    /** Human-readable failure summary, empty on success. */
    std::string failureReason;

    /** Watchdog-style stall dump when the cycle cap was hit. */
    std::string stallDiagnostic;

    /** Architectural end state (null unless config.trackValues was set). */
    std::shared_ptr<const ArchState> archState;
};

class Simulator
{
  public:
    /**
     * Run @p kernel under @p config to completion.
     *
     * @param policy optional pre-built policy (nullptr selects from
     *               config.policy.kind).
     */
    static SimResult run(const GpuConfig &config, const Kernel &kernel,
                         std::unique_ptr<Policy> policy = nullptr);

    /**
     * The UM transform applied to a config before construction: carves the
     * 272 KB pooled store into shared memory, (for FineReg) PCRF, and L1
     * according to the kernel's declared demand.
     */
    static GpuConfig applyUnifiedMemory(GpuConfig config,
                                        const Kernel &kernel);
};

} // namespace finereg

#endif // FINEREG_CORE_SIMULATOR_HH
