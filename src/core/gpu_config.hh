/**
 * @file
 * Top-level GPU configuration: the Table I GTX-980-like baseline plus the
 * knobs of every register-management policy the paper evaluates.
 */

#ifndef FINEREG_CORE_GPU_CONFIG_HH
#define FINEREG_CORE_GPU_CONFIG_HH

#include <string>

#include "common/types.hh"
#include "mem/mem_hierarchy.hh"
#include "sm/sm.hh"
#include "verify/verify_config.hh"

namespace finereg
{

/** Register-file management schemes compared in the evaluation. */
enum class PolicyKind : unsigned char
{
    Baseline,      ///< Conventional GPU: static limits, no CTA switching.
    VirtualThread, ///< VT [45]: fill RF with extra CTAs, on-chip switching.
    RegDram,       ///< Zorua-like [39]: VT + pending CTA contexts in DRAM.
    RegMutex,      ///< RegMutex [17] merged with VT (BRS + shared SRP).
    FineReg,       ///< This paper: ACRF/PCRF with live-register backup.
};

const char *policyKindName(PolicyKind kind);

struct PolicyConfig
{
    PolicyKind kind = PolicyKind::Baseline;

    // FineReg ---------------------------------------------------------------

    /** ACRF size; ACRF+PCRF must equal the baseline register file. */
    std::uint64_t acrfBytes = 128 * 1024;

    /** PCRF size (Sec. VI-A: 128 KB, half the baseline RF). */
    std::uint64_t pcrfBytes = 128 * 1024;

    /** Live-register bit-vector cache entries (Sec. V-C: 32). */
    unsigned bitvecCacheEntries = 32;

    /** PCRF tag+register access latency, pipelined (Sec. V-E: >= 4). */
    Cycle pcrfAccessLatency = 4;

    /** Fixed overhead of initiating a CTA switch. */
    Cycle switchBaseLatency = 20;

    /** Ablation: store full contexts in the PCRF instead of live regs. */
    bool fullContextBackup = false;

    /** Ablation: make CTA switching free (latency sensitivity). */
    bool zeroSwitchLatency = false;

    /**
     * Growth damper: stop introducing brand-new CTAs once the pending set
     * exceeds this multiple of the active set. Enough pending CTAs to
     * refill every active slot is sufficient to hide stalls; growing
     * further only enlarges the cache working set. Growth is always also
     * bounded by PCRF space and the 128-CTA residency cap (Sec. V-F).
     */
    double pendingGrowthFactor = 2.5;

    // RegMutex ---------------------------------------------------------------

    /** Fraction of the register file designated as the shared pool (SRP). */
    double srpRatio = 0.281;

    /** Fraction of each warp's registers kept in its base register set;
     * the rest are served on demand from the SRP. Independent of the
     * pool split, as in the original RegMutex. */
    double brsFraction = 0.719;

    // Reg+DRAM ---------------------------------------------------------------

    /** Cap on DRAM-resident pending CTAs per SM (tuned per app, Sec. VI-A). */
    unsigned maxDramPendingCtas = 8;

    // Unified on-chip local memory (Sec. VI-G3) -------------------------------

    /** Pool PCRF/backing store + shared memory + L1 into one UM store. */
    bool unifiedMemory = false;

    /** UM pool size (paper: 128 + 96 + 48 = 272 KB). */
    std::uint64_t umBytes = 272 * 1024;

    // Test hooks --------------------------------------------------------------

    /**
     * Deliberately clear this register's bit in every liveness mask the
     * RMU gathers (-1 = off). A FineReg swap then drops the register even
     * when it is live — the class of bug the differential oracle exists to
     * catch. Never set outside correctness tests.
     */
    int dropLiveReg = -1;
};

struct GpuConfig
{
    unsigned numSms = 16;
    double clockGhz = 1.126;
    SmConfig sm{};
    MemHierarchyConfig mem{};
    PolicyConfig policy{};

    /** Simulation safety cap. */
    Cycle maxCycles = 20'000'000;

    std::uint64_t seed = 0x5eedf00d;

    /** Enable the Fig. 5 register-usage window tracker. */
    bool usageTracking = false;

    /** Enable the Table III stall-episode probe. */
    bool stallProbe = false;

    /**
     * Track architectural register/memory values and capture the end state
     * on SimResult::archState (differential oracle, golden snapshots).
     * Pure observation: cycle counts and stats are unaffected.
     */
    bool trackValues = false;

    /** Hardening knobs: invariant auditor, watchdog. */
    VerifyConfig verify{};

    /** The paper's Table I setup. */
    static GpuConfig gtx980();

    /** Render Table I for bench_table1_config. */
    std::string toString() const;
};

} // namespace finereg

#endif // FINEREG_CORE_GPU_CONFIG_HH
