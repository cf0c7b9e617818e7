/**
 * @file
 * Hardened-core tests: typed SimErrors, the invariant auditor (seeded
 * corruption must be detected and named), the deadlock watchdog (wedged
 * workloads produce a structured diagnostic instead of silently burning
 * the cycle cap), and the deterministic fault-injection harness (same
 * seed => same fault schedule; faults perturb timing, never results).
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "core/simulator.hh"
#include "isa/kernel_builder.hh"
#include "policies/finereg_policy.hh"
#include "regfile/pcrf.hh"
#include "sm/gpu.hh"
#include "verify/fault_injection.hh"
#include "verify/invariant_auditor.hh"
#include "verify/sim_error.hh"
#include "verify/watchdog.hh"

namespace finereg
{
namespace
{

std::unique_ptr<Kernel>
mixedKernel(unsigned grid = 32)
{
    KernelBuilder b("mixed");
    b.regsPerThread(16).threadsPerCta(64).gridCtas(grid);
    MemPattern stream;
    stream.footprint = 8ull << 20;
    b.newBlock();
    b.alu(Opcode::IADD, 0, 0);
    b.alu(Opcode::IADD, 1, 0);
    b.newBlock();
    b.load(Opcode::LD_GLOBAL, 2, 0, stream);
    b.alu(Opcode::FADD, 3, 2, 1);
    b.alu(Opcode::FMUL, 1, 3, 1);
    b.alu(Opcode::IADD, 0, 0, 1);
    b.loopBranch(1, 0, 4);
    b.newBlock();
    b.store(Opcode::ST_GLOBAL, 0, 1, stream);
    b.exit();
    return b.finalize();
}

GpuConfig
smallConfig(PolicyKind kind = PolicyKind::FineReg)
{
    GpuConfig config = GpuConfig::gtx980();
    config.numSms = 2;
    config.policy.kind = kind;
    return config;
}

/** A policy that never launches anything: the device is wedged from
 * cycle 0, which must trip the watchdog, not the cycle cap. */
class NeverLaunchPolicy : public Policy
{
  public:
    const char *name() const override { return "never-launch"; }
    void tick(Sm &, Cycle) override {}
    void onCtaFinished(Sm &, Cta &, Cycle) override {}
};

// ---- SimError --------------------------------------------------------------

TEST(SimError, ToStringNamesKindInvariantCtaAndCycle)
{
    SimError error;
    error.kind = SimErrorKind::InvariantViolation;
    error.invariant = "pcrf-chain";
    error.message = "chain walk revisited an entry";
    error.cta = 17;
    error.sm = 1;
    error.cycle = 12345;
    const std::string s = error.toString();
    EXPECT_NE(s.find("pcrf-chain"), std::string::npos) << s;
    EXPECT_NE(s.find("17"), std::string::npos) << s;
    EXPECT_NE(s.find("12345"), std::string::npos) << s;
}

TEST(SimError, RaiseHelpersSetKinds)
{
    try {
        raiseConfigError("bad knob");
        FAIL();
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().kind, SimErrorKind::Config);
    }
    try {
        raiseInvariant("acrf-accounting", "leak", 3, 1, 99);
        FAIL();
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().kind, SimErrorKind::InvariantViolation);
        EXPECT_EQ(e.error().invariant, "acrf-accounting");
        EXPECT_EQ(e.error().cta, 3u);
        EXPECT_EQ(e.error().cycle, 99u);
    }
    try {
        raiseDeadlock("wedged", 1000, "dump");
        FAIL();
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().kind, SimErrorKind::Deadlock);
        EXPECT_EQ(e.error().diagnostic, "dump");
    }
}

// ---- Pcrf integrity walk ---------------------------------------------------

TEST(PcrfAudit, CleanPcrfIsIntact)
{
    StatGroup stats("t");
    Pcrf pcrf(128 * 1024, stats);
    EXPECT_TRUE(pcrf.auditIntegrity().intact());
    pcrf.storeCta(7, {{0, 0}, {0, 1}, {1, 4}});
    pcrf.storeCta(9, {{0, 2}});
    EXPECT_TRUE(pcrf.auditIntegrity().intact());
    pcrf.restoreCta(7);
    EXPECT_TRUE(pcrf.auditIntegrity().intact());
}

TEST(PcrfAudit, DetectsBrokenNextPointer)
{
    StatGroup stats("t");
    Pcrf pcrf(128 * 1024, stats);
    pcrf.storeCta(7, {{0, 0}, {0, 1}, {0, 2}});
    const auto chain = pcrf.chainOf(7);
    ASSERT_EQ(chain.size(), 3u);
    // Point the first entry back at itself: the walk must flag a cycle.
    pcrf.testSetEntryNext(chain[0], chain[0]);
    pcrf.testSetEntryEnd(chain[0], false);
    const PcrfIntegrityError err = pcrf.auditIntegrity();
    ASSERT_FALSE(err.intact());
    EXPECT_EQ(err.invariant, "pcrf-chain");
    EXPECT_EQ(err.cta, 7u);
}

TEST(PcrfAudit, DetectsInvalidatedChainEntry)
{
    StatGroup stats("t");
    Pcrf pcrf(128 * 1024, stats);
    pcrf.storeCta(5, {{0, 0}, {0, 1}});
    const auto chain = pcrf.chainOf(5);
    pcrf.testSetEntryValid(chain[1], false);
    const PcrfIntegrityError err = pcrf.auditIntegrity();
    ASSERT_FALSE(err.intact());
    EXPECT_EQ(err.invariant, "pcrf-chain");
    EXPECT_EQ(err.cta, 5u);
}

TEST(PcrfAudit, DetectsOccupancyMonitorDesync)
{
    StatGroup stats("t");
    Pcrf pcrf(128 * 1024, stats);
    pcrf.storeCta(3, {{0, 0}, {0, 1}});
    const auto chain = pcrf.chainOf(3);
    // The free-space monitor says the slot is free but the chain uses it.
    pcrf.testSetOccupied(chain[0], false);
    const PcrfIntegrityError err = pcrf.auditIntegrity();
    ASSERT_FALSE(err.intact());
}

TEST(PcrfAudit, DetectsLiveCountMismatch)
{
    StatGroup stats("t");
    Pcrf pcrf(128 * 1024, stats);
    pcrf.storeCta(2, {{0, 0}, {0, 1}, {0, 2}});
    pcrf.testSetLiveCount(2, 2);
    const PcrfIntegrityError err = pcrf.auditIntegrity();
    ASSERT_FALSE(err.intact());
    EXPECT_EQ(err.cta, 2u);
}

// ---- Invariant auditor over a live device ----------------------------------

TEST(InvariantAuditorTest, CleanRunAuditsCleanUnderEveryPolicy)
{
    for (const PolicyKind kind :
         {PolicyKind::Baseline, PolicyKind::VirtualThread,
          PolicyKind::RegDram, PolicyKind::RegMutex, PolicyKind::FineReg}) {
        const auto kernel = mixedKernel();
        GpuConfig config = smallConfig(kind);
        config.verify.auditInterval = 1;
        Gpu gpu(config, *kernel);
        const auto result = gpu.run();
        EXPECT_FALSE(result.hitCycleLimit) << policyKindName(kind);
        EXPECT_EQ(result.completedCtas, 32u) << policyKindName(kind);
        // Final state must also audit clean.
        InvariantAuditor(1).audit(gpu, gpu.nowCycle());
    }
}

TEST(InvariantAuditorTest, DetectsLeakedAcrfAllocation)
{
    const auto kernel = mixedKernel();
    Gpu gpu(smallConfig(), *kernel);
    gpu.run();

    auto &policy = static_cast<FineRegPolicy &>(gpu.policy());
    // Allocate with no owning CTA: a leak the auditor must report.
    policy.mutableAcrfOf(*gpu.sms()[0]).allocate(4);
    try {
        InvariantAuditor(1).audit(gpu, gpu.nowCycle());
        FAIL() << "expected an acrf-accounting violation";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().kind, SimErrorKind::InvariantViolation);
        EXPECT_EQ(e.error().invariant, "acrf-accounting");
        EXPECT_EQ(e.error().sm, 0u);
        EXPECT_NE(e.error().message.find("leaked"), std::string::npos)
            << e.error().message;
    }
}

TEST(InvariantAuditorTest, DetectsCorruptedPcrfChain)
{
    const auto kernel = mixedKernel();
    Gpu gpu(smallConfig(), *kernel);
    gpu.run();

    auto &policy = static_cast<FineRegPolicy &>(gpu.policy());
    Pcrf &pcrf = policy.mutablePcrfOf(*gpu.sms()[1]);
    pcrf.storeCta(999, {{0, 0}, {0, 1}});
    pcrf.testSetEntryValid(pcrf.chainOf(999)[0], false);
    try {
        InvariantAuditor(1).audit(gpu, gpu.nowCycle());
        FAIL() << "expected a pcrf-chain violation";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().kind, SimErrorKind::InvariantViolation);
        EXPECT_EQ(e.error().invariant, "pcrf-chain");
        EXPECT_EQ(e.error().cta, 999u);
        EXPECT_EQ(e.error().sm, 1u);
    }
}

TEST(InvariantAuditorTest, DetectsPendingCtaMissingFromReadyQueue)
{
    // Stop mid-run, while CTAs are switched out to the PCRF.
    const auto kernel = mixedKernel(256);
    GpuConfig config = smallConfig();
    config.maxCycles = 1000;
    Gpu gpu(config, *kernel);
    ASSERT_TRUE(gpu.run().hitCycleLimit);
    InvariantAuditor(1).audit(gpu, gpu.nowCycle());

    auto &policy = static_cast<FineRegPolicy &>(gpu.policy());
    const Sm *sm = nullptr;
    for (const auto &s : gpu.sms()) {
        if (!policy.readyOf(*s).empty()) {
            sm = s.get();
            break;
        }
    }
    ASSERT_NE(sm, nullptr) << "no CTA pending at the cut";
    ReadyQueue &queue = policy.mutableReadyOf(*sm);
    const Cta &dropped = *queue.begin()->cta;
    queue.erase(dropped);
    try {
        InvariantAuditor(1).audit(gpu, gpu.nowCycle());
        FAIL() << "expected a monitor-state violation";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().kind, SimErrorKind::InvariantViolation);
        EXPECT_EQ(e.error().invariant, "monitor-state");
        EXPECT_EQ(e.error().cta, dropped.gridId());
        EXPECT_EQ(e.error().sm, sm->id());
    }
}

// ---- Deadlock watchdog -----------------------------------------------------

TEST(Watchdog, WedgedRunProducesDiagnosticInsteadOfCycleCap)
{
    const auto kernel = mixedKernel(8);
    GpuConfig config = smallConfig();
    config.verify.watchdogCycles = 5000;
    Gpu gpu(config, *kernel, std::make_unique<NeverLaunchPolicy>());
    try {
        gpu.run();
        FAIL() << "expected the watchdog to fire";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().kind, SimErrorKind::Deadlock);
        EXPECT_GE(e.error().cycle, 5000u);
        EXPECT_LT(e.error().cycle, config.maxCycles);
        EXPECT_FALSE(e.error().diagnostic.empty());
        // The dump names the dispatcher's remaining work.
        EXPECT_NE(e.error().diagnostic.find("dispatcher"),
                  std::string::npos)
            << e.error().diagnostic;
    }
}

TEST(Watchdog, SimulatorSurfacesDeadlockOnResult)
{
    const auto kernel = mixedKernel(8);
    GpuConfig config = smallConfig();
    config.verify.watchdogCycles = 5000;
    const SimResult r = Simulator::run(config, *kernel,
                                       std::make_unique<NeverLaunchPolicy>());
    EXPECT_TRUE(r.failed);
    EXPECT_EQ(r.error.kind, SimErrorKind::Deadlock);
    EXPECT_FALSE(r.failureReason.empty());
    EXPECT_FALSE(r.error.diagnostic.empty());
}

TEST(Watchdog, IdleStreakFallbackStillRaisesTypedError)
{
    // Watchdog off: the run loop's own idle-streak guard must still turn
    // a wedged device into a typed Deadlock error, not a process abort.
    const auto kernel = mixedKernel(8);
    GpuConfig config = smallConfig();
    config.verify.watchdogCycles = 0;
    Gpu gpu(config, *kernel, std::make_unique<NeverLaunchPolicy>());
    try {
        gpu.run();
        FAIL() << "expected the idle-streak guard to fire";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().kind, SimErrorKind::Deadlock);
        EXPECT_FALSE(e.error().diagnostic.empty());
    }
}

TEST(Watchdog, CycleLimitFillsStallDiagnostic)
{
    const auto kernel = mixedKernel(256);
    GpuConfig config = smallConfig();
    config.maxCycles = 100;
    const SimResult r = Simulator::run(config, *kernel);
    EXPECT_FALSE(r.failed);
    EXPECT_TRUE(r.hitCycleLimit);
    EXPECT_FALSE(r.stallDiagnostic.empty());
}

TEST(Watchdog, StallDiagnosticShowsReadyCyclesOfEverySwitchingPolicy)
{
    // Capped once Virtual Thread has parked CTAs: each pending CTA's line
    // carries its ready estimate, as FineReg's always did.
    const auto kernel = mixedKernel(256);
    GpuConfig config = smallConfig(PolicyKind::VirtualThread);
    config.maxCycles = 3000;
    const SimResult r = Simulator::run(config, *kernel);
    EXPECT_TRUE(r.hitCycleLimit);
    EXPECT_NE(r.stallDiagnostic.find("pending cta"), std::string::npos);
    EXPECT_NE(r.stallDiagnostic.find("ready at cycle"), std::string::npos)
        << r.stallDiagnostic;
}

TEST(Watchdog, HealthyRunNeverTrips)
{
    const auto kernel = mixedKernel();
    GpuConfig config = smallConfig();
    config.verify.watchdogCycles = 50'000;
    Gpu gpu(config, *kernel);
    const auto result = gpu.run();
    EXPECT_FALSE(result.hitCycleLimit);
    EXPECT_EQ(result.completedCtas, 32u);
}

// ---- Fault injection -------------------------------------------------------

TEST(FaultInjection, ZeroSeedDisablesEveryPoint)
{
    StatGroup stats("t");
    FaultConfig config; // seed = 0
    config.dramDelayProb = 1.0;
    config.pcrfFullProb = 1.0;
    config.bitvecMissProb = 1.0;
    FaultInjector fault(config, stats);
    EXPECT_FALSE(fault.enabled());
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(fault.dramDelay(), 0u);
        EXPECT_FALSE(fault.forcePcrfFull());
        EXPECT_FALSE(fault.forceBitvecMiss());
    }
    EXPECT_EQ(fault.injectedDramDelays(), 0u);
}

TEST(FaultInjection, SameSeedSameSchedule)
{
    FaultConfig config;
    config.seed = 0xfa157;
    config.dramDelayProb = 0.3;
    config.pcrfFullProb = 0.3;
    StatGroup sa("a"), sb("b");
    FaultInjector a(config, sa), b(config, sb);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.dramDelay(), b.dramDelay());
        EXPECT_EQ(a.forcePcrfFull(), b.forcePcrfFull());
        EXPECT_EQ(a.forceBitvecMiss(), b.forceBitvecMiss());
    }
    EXPECT_GT(a.injectedDramDelays(), 0u);
    EXPECT_GT(a.injectedPcrfFulls(), 0u);
}

TEST(FaultInjection, DeterministicRunsAndBitExactResults)
{
    GpuConfig config = smallConfig();
    config.verify.auditInterval = 64;
    config.verify.fault.seed = 42;
    config.verify.fault.dramDelayProb = 0.05;
    config.verify.fault.pcrfFullProb = 0.10;
    config.verify.fault.bitvecMissProb = 0.20;

    auto run_once = [&](const GpuConfig &c, std::uint64_t *faults) {
        const auto kernel = mixedKernel(64);
        Gpu gpu(c, *kernel);
        const auto r = gpu.run();
        EXPECT_FALSE(r.hitCycleLimit);
        EXPECT_EQ(r.completedCtas, 64u);
        if (faults) {
            *faults = gpu.stats().counterValue("fault.dram_delays") +
                      gpu.stats().counterValue("fault.pcrf_fulls") +
                      gpu.stats().counterValue("fault.bitvec_misses");
        }
        return r;
    };

    std::uint64_t faults_a = 0, faults_b = 0;
    const auto a = run_once(config, &faults_a);
    const auto b = run_once(config, &faults_b);
    // Same seed => same fault schedule => identical runs.
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(faults_a, faults_b);
    EXPECT_GT(faults_a, 0u) << "the fault campaign never fired";

    // Faults perturb timing but never the executed work: the no-fault run
    // retires the exact same instruction stream.
    GpuConfig clean = config;
    clean.verify.fault.seed = 0;
    const auto c = run_once(clean, nullptr);
    EXPECT_EQ(a.instructions, c.instructions);
    EXPECT_EQ(a.completedCtas, c.completedCtas);
}

TEST(FaultInjection, ForcedPcrfFullDegradesGracefullyUnderAudit)
{
    // Hammer the PCRF-full fallback path with every-cycle audits: FineReg
    // must stay consistent and complete all work.
    GpuConfig config = smallConfig();
    config.verify.auditInterval = 1;
    config.verify.fault.seed = 7;
    config.verify.fault.dramDelayProb = 0.0;
    config.verify.fault.bitvecMissProb = 0.0;
    config.verify.fault.pcrfFullProb = 0.5;
    const auto kernel = mixedKernel(64);
    Gpu gpu(config, *kernel);
    const auto result = gpu.run();
    EXPECT_FALSE(result.hitCycleLimit);
    EXPECT_EQ(result.completedCtas, 64u);
    InvariantAuditor(1).audit(gpu, gpu.nowCycle());
}

} // namespace
} // namespace finereg
