/**
 * @file
 * Policy behaviour tests: each scheme's signature effects on a crafted
 * scheduler-limited streaming kernel — VT grows residency on-chip,
 * Reg+DRAM generates CTA-context traffic, RegMutex partitions the RF and
 * suffers SRP pressure, FineReg compresses pending CTAs into the PCRF and
 * keeps the Table IV status monitor consistent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/cli_options.hh"
#include "isa/kernel_builder.hh"
#include "policies/finereg_policy.hh"
#include "policies/regmutex_policy.hh"
#include "sm/gpu.hh"
#include "stepping_policy.hh"
#include "verify/sim_error.hh"

namespace finereg
{
namespace
{

/**
 * A Type-S-style kernel: small register/shmem footprint, long memory
 * stalls, so the CTA-slot limit binds and switching pays off.
 */
std::unique_ptr<Kernel>
streamingKernel(unsigned grid = 256, unsigned regs = 12)
{
    KernelBuilder b("streaming");
    b.regsPerThread(regs).threadsPerCta(64).gridCtas(grid);
    MemPattern stream;
    stream.footprint = 64ull << 20;
    stream.stride = 128;
    b.newBlock();
    b.alu(Opcode::IADD, 0, 0);
    b.newBlock();
    b.load(Opcode::LD_GLOBAL, 2, 0, stream);
    b.alu(Opcode::FADD, 3, 2, 0);
    b.alu(Opcode::IADD, 0, 0, 3);
    b.loopBranch(1, 0, 6);
    b.newBlock();
    b.exit();
    return b.finalize();
}

GpuConfig
configFor(PolicyKind kind, unsigned sms = 2)
{
    GpuConfig config = GpuConfig::gtx980();
    config.numSms = sms;
    config.policy.kind = kind;
    return config;
}

double
avgResidentCtas(Gpu &gpu)
{
    const double cycles = static_cast<double>(
        gpu.stats().counterValue("gpu.cycles"));
    return gpu.stats().counterValue("sm.resident_cta_cycles") /
           (cycles * gpu.config().numSms);
}

TEST(BaselinePolicyTest, NeverExceedsSchedulerLimit)
{
    const auto kernel = streamingKernel();
    Gpu gpu(configFor(PolicyKind::Baseline), *kernel);
    gpu.run();
    EXPECT_LE(avgResidentCtas(gpu), 32.01);
}

TEST(VirtualThreadPolicyTest, GrowsResidencyBeyondSchedulerLimit)
{
    const auto base_kernel = streamingKernel();
    const auto vt_kernel = streamingKernel();
    Gpu base_gpu(configFor(PolicyKind::Baseline), *base_kernel);
    Gpu vt_gpu(configFor(PolicyKind::VirtualThread), *vt_kernel);
    base_gpu.run();
    vt_gpu.run();
    EXPECT_GT(avgResidentCtas(vt_gpu), avgResidentCtas(base_gpu) * 1.2);
    // VT keeps everything on-chip: no CTA-context DRAM traffic.
    EXPECT_EQ(vt_gpu.stats().counterValue("dram.bytes_cta_context"), 0u);
}

TEST(VirtualThreadPolicyTest, ResidencyBoundedByRegisterFile)
{
    // 48 registers x 64 threads = 12 KB/CTA: the 256 KB RF fits at most
    // 21 CTAs, so VT cannot grow beyond that.
    const auto kernel = streamingKernel(128, 48);
    Gpu gpu(configFor(PolicyKind::VirtualThread), *kernel);
    gpu.run();
    EXPECT_LE(avgResidentCtas(gpu), 21.01);
}

TEST(RegDramPolicyTest, GeneratesCtaContextTraffic)
{
    const auto kernel = streamingKernel(128, 48); // RF-bound kernel
    Gpu gpu(configFor(PolicyKind::RegDram), *kernel);
    gpu.run();
    EXPECT_GT(gpu.stats().counterValue("dram.bytes_cta_context"), 0u);
}

TEST(RegDramPolicyTest, ExceedsVtResidencyOnRfBoundKernel)
{
    const auto vt_kernel = streamingKernel(128, 48);
    const auto rd_kernel = streamingKernel(128, 48);
    Gpu vt(configFor(PolicyKind::VirtualThread), *vt_kernel);
    Gpu rd(configFor(PolicyKind::RegDram), *rd_kernel);
    vt.run();
    rd.run();
    EXPECT_GT(avgResidentCtas(rd), avgResidentCtas(vt));
}

TEST(RegMutexPolicyTest, BrsComputation)
{
    const auto kernel = streamingKernel(64, 40);
    GpuConfig config = configFor(PolicyKind::RegMutex);
    config.policy.brsFraction = 0.75;
    Gpu gpu(config, *kernel);
    auto &policy = static_cast<RegMutexPolicy &>(gpu.policy());
    // ceil(40 * 0.75) = 30 BRS registers per thread; 10 extended x 2
    // warps = 20 SRP warp-registers per CTA.
    EXPECT_EQ(policy.brsRegsPerThread(*gpu.sms()[0]), 30u);
    EXPECT_EQ(policy.extendedWarpRegsPerCta(*gpu.sms()[0]), 20u);
}

TEST(RegMutexPolicyTest, CompletesAndGrows)
{
    const auto kernel = streamingKernel();
    Gpu gpu(configFor(PolicyKind::RegMutex), *kernel);
    const auto result = gpu.run();
    EXPECT_FALSE(result.hitCycleLimit);
    EXPECT_GT(avgResidentCtas(gpu), 32.0 * 0.9);
}

TEST(RegMutexPolicyTest, ZeroSrpRatioBehavesLikeVt)
{
    GpuConfig config = configFor(PolicyKind::RegMutex);
    config.policy.srpRatio = 0.0;
    const auto kernel = streamingKernel();
    Gpu gpu(config, *kernel);
    const auto result = gpu.run();
    EXPECT_FALSE(result.hitCycleLimit);
}

TEST(FineRegPolicyTest, PcrfHoldsPendingLiveRegisters)
{
    const auto kernel = streamingKernel();
    Gpu gpu(configFor(PolicyKind::FineReg), *kernel);
    const auto result = gpu.run();
    EXPECT_FALSE(result.hitCycleLimit);
    EXPECT_GT(gpu.stats().counterValue("pcrf.stored_ctas"), 0u);
    EXPECT_EQ(gpu.stats().counterValue("pcrf.stored_ctas"),
              gpu.stats().counterValue("pcrf.restored_ctas") +
                  0u); // every stored CTA is eventually restored
}

/**
 * Plants a stale wake hint on the warps of every pending CTA before each
 * tick. A restore — resumeCta plus FineReg's per-warp PCRF chain wake —
 * must clear it, or the restored warps would be skipped forever.
 */
class StaleHintPolicy final : public ForwardingPolicy
{
  public:
    using ForwardingPolicy::ForwardingPolicy;

    void
    tick(Sm &sm, Cycle now) override
    {
        std::vector<Cta *> pending;
        for (const auto &cta : sm.residentCtas()) {
            if (cta->state() == CtaState::Pending)
                pending.push_back(cta.get());
        }
        for (Cta *cta : pending) {
            for (auto &warp : cta->warps())
                warp->setWakeHint(kNoCycle);
        }
        ForwardingPolicy::tick(sm, now);
        for (Cta *cta : pending) {
            if (cta->state() != CtaState::Active)
                continue;
            ++restores;
            for (auto &warp : cta->warps()) {
                if (warp->finished())
                    continue;
                EXPECT_EQ(warp->wakeHint(), 0u);
                wakeOffsets.insert(warp->earliestIssue() - now);
            }
        }
    }

    unsigned restores = 0;
    std::set<Cycle> wakeOffsets; ///< earliestIssue - now after a restore.
};

TEST(FineRegPolicyTest, RestoreChainWakeClearsStaleWakeHints)
{
    const GpuConfig config = configFor(PolicyKind::FineReg);
    const auto kernel = streamingKernel();
    Gpu plain(config, *kernel);
    const GpuRunResult expected = plain.run();

    auto wrapper = std::make_unique<StaleHintPolicy>(makePolicy(config));
    StaleHintPolicy &stale = *wrapper;
    Gpu gpu(config, *kernel, std::move(wrapper));
    const GpuRunResult result = gpu.run();
    EXPECT_FALSE(result.hitCycleLimit);
    EXPECT_GT(stale.restores, 0u);
    // Chain positions differ, so the per-warp wake times do too.
    EXPECT_GT(stale.wakeOffsets.size(), 1u);
    EXPECT_EQ(result.cycles, expected.cycles);
    EXPECT_EQ(result.instructions, expected.instructions);
}

/**
 * One policy tick on an SM with at least one fully stalled active CTA,
 * recorded with the state the tick started from.
 */
struct StallTick
{
    Cycle now = 0;
    /** Every active slot was in use, so the tick's slot fill had nothing
     * to do and the stall switch saw the state recorded here. */
    bool slotsFull = false;
    bool gridWork = false;
    bool headroom = false;
    /** Soonest pending-ready estimate in the ready queue (kNoCycle:
     * none, or the policy does not switch). */
    Cycle earliestReady = kNoCycle;
    unsigned switchedOut = 0; ///< stalled CTAs no longer Active after
    /** Of those, ones left holding no register allocation: under
     * Reg+DRAM, the ones demoted to the DRAM tier. */
    unsigned toDram = 0;
};

/**
 * Records a StallTick for every tick that starts with a stalled CTA. It
 * steps every cycle, so the gate is observed on each tick a stall lasts.
 */
class SwitchProbe final : public SteppingPolicy
{
  public:
    using SteppingPolicy::SteppingPolicy;

    /** The wrapped policy when it is a switching policy, else null. */
    const SwitchingPolicy *switching = nullptr;

    void
    tick(Sm &sm, Cycle now) override
    {
        stalled_.clear();
        for (Cta *cta : sm.activeCtaList()) {
            if (cta->lastIssueCycle() != now &&
                cta->fullyStalledOnMemory(now))
                stalled_.push_back(cta);
        }
        if (stalled_.empty()) {
            SteppingPolicy::tick(sm, now);
            return;
        }
        StallTick t;
        t.now = now;
        t.slotsFull = !sm.canActivateCta();
        t.gridWork = dispatcher().hasWork();
        t.headroom = sm.hasResidencyHeadroom();
        if (switching && !switching->readyOf(sm).empty())
            t.earliestReady = switching->readyOf(sm).begin()->ready;
        SteppingPolicy::tick(sm, now);
        for (const Cta *cta : stalled_) {
            if (cta->state() == CtaState::Active)
                continue;
            ++t.switchedOut;
            if (cta->regAllocHandle == kInvalidId)
                ++t.toDram;
        }
        ticks.push_back(t);
    }

    std::vector<StallTick> ticks;

  private:
    std::vector<Cta *> stalled_;
};

/**
 * Run @p kernel under a SwitchProbe, which must not perturb the run: the
 * stepped probe run matches a plain skipping one.
 */
std::vector<StallTick>
probeStallTicks(const GpuConfig &config, const Kernel &kernel)
{
    Gpu plain(config, kernel);
    const GpuRunResult expected = plain.run();

    std::unique_ptr<Policy> inner = makePolicy(config);
    const auto *switching =
        dynamic_cast<const SwitchingPolicy *>(inner.get());
    auto wrapper = std::make_unique<SwitchProbe>(std::move(inner));
    SwitchProbe &probe = *wrapper;
    probe.switching = switching;
    Gpu gpu(config, kernel, std::move(wrapper));
    const GpuRunResult result = gpu.run();
    EXPECT_FALSE(result.hitCycleLimit);
    EXPECT_EQ(result.cycles, expected.cycles);
    EXPECT_EQ(result.instructions, expected.instructions);
    return std::move(probe.ticks);
}

/**
 * The gate tests run FineReg, Virtual Thread and RegMutex on one SM with
 * four active slots, eight resident ones and growth never damped, on a
 * kernel of 48 CTAs with 24 warp-registers each. Eight such CTAs fill an
 * eighth of the register file (and of RegMutex's BRS pool), so a fresh
 * CTA's register-room term always holds, and the partner test of all
 * three reads: grid work and residency headroom, or a pending CTA ready
 * by now. (RegMutex suspends the stalled CTA before it asks the SRP for
 * the partner's grant, so an SRP refusal does not keep it active.)
 */
class StallSwitchGate : public ::testing::TestWithParam<std::string>
{
  protected:
    std::vector<StallTick>
    probe()
    {
        GpuConfig config = configFor(*parsePolicyName(GetParam()), 1);
        config.sm.maxCtas = 4;
        config.sm.maxResidentCtas = 8;
        config.policy.pendingGrowthFactor = 100.0;
        return probeStallTicks(config, *streamingKernel(48));
    }
};

TEST_P(StallSwitchGate, StalledCtaWithoutPartnerStaysActive)
{
    unsigned closed = 0;
    for (const StallTick &t : probe()) {
        if (!t.slotsFull || t.gridWork || t.earliestReady <= t.now)
            continue;
        ++closed;
        EXPECT_EQ(t.switchedOut, 0u) << "cycle " << t.now;
    }
    EXPECT_GT(closed, 0u);
}

TEST_P(StallSwitchGate, OpensAtTheEarliestPendingReadyCycle)
{
    unsigned one_early = 0;
    unsigned on_time = 0;
    for (const StallTick &t : probe()) {
        if (!t.slotsFull || t.gridWork)
            continue;
        if (t.earliestReady == t.now + 1) {
            ++one_early;
            EXPECT_EQ(t.switchedOut, 0u) << "cycle " << t.now;
        } else if (t.earliestReady == t.now) {
            ++on_time;
            EXPECT_GT(t.switchedOut, 0u) << "cycle " << t.now;
        }
    }
    EXPECT_GT(one_early, 0u);
    EXPECT_GT(on_time, 0u);
}

TEST_P(StallSwitchGate, OpensOnGridWorkWithResidencyHeadroom)
{
    // No pending CTA is ready on these ticks, so grid work is the only
    // partner, and it counts only while a CTA can still become resident.
    unsigned no_room = 0;
    unsigned room = 0;
    for (const StallTick &t : probe()) {
        if (!t.slotsFull || !t.gridWork || t.earliestReady <= t.now)
            continue;
        if (t.headroom) {
            ++room;
            EXPECT_GT(t.switchedOut, 0u) << "cycle " << t.now;
        } else {
            ++no_room;
            EXPECT_EQ(t.switchedOut, 0u) << "cycle " << t.now;
        }
    }
    EXPECT_GT(no_room, 0u);
    EXPECT_GT(room, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SwitchingPolicies, StallSwitchGate,
    ::testing::Values("finereg", "virtualthread", "regmutex"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(StallSwitchGate, RegDramStillDemotesWhenOnlyTheDramTierHasRoom)
{
    // An RF-bound kernel: a stalled CTA that ends up in the DRAM tier
    // took switch (c), reached only after on-chip growth (a) and a ready
    // on-chip partner (b) were both ruled out on that tick.
    const auto kernel = streamingKernel(128, 48);
    unsigned demoted = 0;
    for (const StallTick &t :
         probeStallTicks(configFor(PolicyKind::RegDram), *kernel))
        demoted += t.toDram;
    EXPECT_GT(demoted, 0u);
}

TEST(FineRegPolicyTest, LiveRegistersSmallerThanFullContext)
{
    const auto kernel = streamingKernel();
    Gpu gpu(configFor(PolicyKind::FineReg), *kernel);
    gpu.run();
    const double stores =
        static_cast<double>(gpu.stats().counterValue("pcrf.stored_ctas"));
    const double writes =
        static_cast<double>(gpu.stats().counterValue("pcrf.writes"));
    ASSERT_GT(stores, 0.0);
    const double live_per_cta = writes / stores;
    const double full_per_cta = kernel->warpRegsPerCta();
    EXPECT_LT(live_per_cta, 0.6 * full_per_cta);
}

TEST(FineRegPolicyTest, FullContextAblationStoresEverything)
{
    GpuConfig config = configFor(PolicyKind::FineReg);
    config.policy.fullContextBackup = true;
    const auto kernel = streamingKernel();
    Gpu gpu(config, *kernel);
    gpu.run();
    const double stores =
        static_cast<double>(gpu.stats().counterValue("pcrf.stored_ctas"));
    if (stores > 0) {
        const double live_per_cta =
            gpu.stats().counterValue("pcrf.writes") / stores;
        // Full context for every unfinished warp: within a warp of the
        // full allocation (CTAs with retired warps store less).
        EXPECT_GE(live_per_cta, 0.7 * kernel->warpRegsPerCta());
        EXPECT_LE(live_per_cta, 1.0 * kernel->warpRegsPerCta());
    }
}

TEST(FineRegPolicyTest, BitvecTrafficAppears)
{
    const auto kernel = streamingKernel();
    Gpu gpu(configFor(PolicyKind::FineReg), *kernel);
    gpu.run();
    // At least the cold misses of the bit-vector cache fetch from DRAM.
    EXPECT_GT(gpu.stats().counterValue("dram.bytes_bitvec"), 0u);
    // But the cache keeps it tiny relative to data traffic.
    EXPECT_LT(gpu.stats().counterValue("dram.bytes_bitvec"),
              gpu.stats().counterValue("dram.bytes_data") / 100);
}

TEST(FineRegPolicyTest, StorageOverheadMatchesSecVF)
{
    const auto kernel = streamingKernel();
    Gpu gpu(configFor(PolicyKind::FineReg), *kernel);
    const std::uint64_t bits = gpu.policy().storageOverheadBits();
    // Sec. V-F: ~5.02 KB total. Components: 512 b monitor + 384 B cache +
    // 256 B pointer table + 21 b x 1024 tags + 2.4 KB switch logic.
    const std::uint64_t expected =
        512 + 384 * 8 + 256 * 8 + 21 * 1024 + 2400 * 8;
    EXPECT_EQ(bits, expected);
    // ~5.7 KB total; the paper quotes 5.02 KB by rounding the PCRF tag
    // array to 2.15 KB (21 b x 1024 = 2.69 KB exactly).
    EXPECT_LT(bits, 6.0 * 1024 * 8);
    EXPECT_GT(bits, 4.5 * 1024 * 8);
}

TEST(FineRegPolicyTest, AcrfPcrfSplitMustMatchRegisterFile)
{
    GpuConfig config = configFor(PolicyKind::FineReg);
    config.policy.acrfBytes = 64 * 1024;
    config.policy.pcrfBytes = 64 * 1024; // 128 KB != 256 KB RF
    const auto kernel = streamingKernel();
    try {
        Gpu gpu(config, *kernel);
        FAIL() << "expected SimException";
    } catch (const SimException &e) {
        EXPECT_EQ(e.error().kind, SimErrorKind::Config);
        EXPECT_NE(std::string(e.what()).find("must equal"),
                  std::string::npos);
    }
}

TEST(FineRegPolicyTest, ZeroSwitchLatencyAblationIsFasterOrEqual)
{
    GpuConfig config = configFor(PolicyKind::FineReg);
    const auto normal_kernel = streamingKernel();
    Gpu normal(config, *normal_kernel);
    config.policy.zeroSwitchLatency = true;
    const auto instant_kernel = streamingKernel();
    Gpu instant(config, *instant_kernel);
    const auto rn = normal.run();
    const auto ri = instant.run();
    EXPECT_LE(ri.cycles, rn.cycles * 1.05);
}

TEST(AllPolicies, SameInstructionCount)
{
    // Policies change scheduling, never the executed work.
    std::uint64_t reference = 0;
    for (const PolicyKind kind :
         {PolicyKind::Baseline, PolicyKind::VirtualThread,
          PolicyKind::RegDram, PolicyKind::RegMutex, PolicyKind::FineReg}) {
        const auto kernel = streamingKernel(64);
        // Disable divergence randomness effects: this kernel never
        // diverges, so instruction counts must match exactly.
        Gpu gpu(configFor(kind), *kernel);
        const auto result = gpu.run();
        if (reference == 0)
            reference = result.instructions;
        EXPECT_EQ(result.instructions, reference)
            << policyKindName(kind);
    }
}

} // namespace
} // namespace finereg
