#include "core/simulator.hh"

#include <algorithm>

#include "common/log.hh"
#include "sm/gpu.hh"

namespace finereg
{

GpuConfig
Simulator::applyUnifiedMemory(GpuConfig config, const Kernel &kernel)
{
    const std::uint64_t pool = config.policy.umBytes; // 272 KB default

    // Demand-driven shared-memory budget: what the active CTA estimate
    // actually needs, 4 KB floor when the kernel uses shared memory at all.
    const unsigned active_estimate = std::max(
        1u,
        std::min({config.sm.maxCtas,
                  config.sm.maxThreads / kernel.threadsPerCta(),
                  config.sm.maxWarps / kernel.warpsPerCta()}));
    std::uint64_t shmem = std::uint64_t(kernel.shmemPerCta()) *
                          active_estimate;
    shmem = std::min<std::uint64_t>(shmem, 96 * 1024);
    if (kernel.shmemPerCta() > 0)
        shmem = std::max<std::uint64_t>(shmem, 4 * 1024);

    if (config.policy.kind == PolicyKind::FineReg) {
        // ACRF stays a dedicated 128 KB; PCRF joins the pool and grows
        // into whatever shared memory does not claim, leaving at least
        // the baseline 48 KB to the L1.
        config.sm.regFileBytes = config.policy.acrfBytes;
        const std::uint64_t l1_floor = 48 * 1024;
        std::uint64_t pcrf = pool > shmem + l1_floor
                                 ? pool - shmem - l1_floor
                                 : 64 * 1024;
        pcrf = std::clamp<std::uint64_t>(pcrf, 64 * 1024, 192 * 1024);
        config.policy.pcrfBytes = pcrf;
        config.sm.shmemBytes = shmem;
        config.mem.l1.sizeBytes =
            pool > shmem + pcrf ? pool - shmem - pcrf : l1_floor;
    } else {
        // UM-only / VT+UM: the register file is untouched; shared memory
        // and L1 share a 144 KB pool, so shmem-light kernels enjoy a
        // large L1 (the AT/BI/KM/SY2 effect in Fig. 19).
        const std::uint64_t sub_pool = 144 * 1024;
        config.sm.shmemBytes = std::min(shmem, sub_pool - 16 * 1024);
        config.mem.l1.sizeBytes = sub_pool - config.sm.shmemBytes;
    }
    return config;
}

SimResult
Simulator::run(const GpuConfig &config_in, const Kernel &kernel,
               std::unique_ptr<Policy> policy)
{
    GpuConfig config = config_in;
    if (config.policy.unifiedMemory)
        config = applyUnifiedMemory(config, kernel);

    SimResult out;
    out.kernelName = kernel.name();
    out.policyName = policyKindName(config.policy.kind);

    std::unique_ptr<Gpu> gpu_holder;
    GpuRunResult run;
    try {
        gpu_holder = std::make_unique<Gpu>(config, kernel,
                                           std::move(policy));
        run = gpu_holder->run();
    } catch (const SimException &e) {
        out.failed = true;
        out.error = e.error();
        out.failureReason = e.error().toString();
        return out;
    }
    Gpu &gpu = *gpu_holder;

    out.policyName = gpu.policy().name();
    out.archState = gpu.takeArchState();
    out.cycles = run.cycles;
    out.instructions = run.instructions;
    out.ipc = run.ipc();
    out.hitCycleLimit = run.hitCycleLimit;
    out.completedCtas = run.completedCtas;
    out.stallDiagnostic = run.stallDiagnostic;

    const StatGroup &stats = gpu.stats();
    const double cycles = std::max<double>(1.0, static_cast<double>(
        stats.counterValue("gpu.cycles")));
    const double sm_cycle_product = cycles * config.numSms;

    out.avgResidentCtas =
        stats.counterValue("sm.resident_cta_cycles") / sm_cycle_product;
    out.avgActiveCtas =
        stats.counterValue("sm.active_cta_cycles") / sm_cycle_product;
    out.avgActiveThreads =
        stats.counterValue("sm.active_thread_cycles") / sm_cycle_product;

    out.dramBytesData = stats.counterValue("dram.bytes_data");
    out.dramBytesCtaContext = stats.counterValue("dram.bytes_cta_context");
    out.dramBytesBitvec = stats.counterValue("dram.bytes_bitvec");

    out.depletionStallFraction =
        stats.counterValue("gpu.depletion_stall_cycles") /
        sm_cycle_product;

    for (unsigned s = 0; s < config.numSms; ++s) {
        out.l1Hits += stats.counterValue("l1_" + std::to_string(s) +
                                         ".hits");
        out.l1Misses += stats.counterValue("l1_" + std::to_string(s) +
                                           ".misses");
    }

    // Probe outputs (zero when the probes were off).
    {
        // Distributions are not exposed by name-value lookup; re-derive
        // from the group's distribution objects.
        auto &group = const_cast<StatGroup &>(stats);
        const auto &usage = group.distribution("sm.rf_usage_window");
        out.rfUsageMean = usage.mean();
        out.rfUsageMin = usage.min();
        out.rfUsageMax = usage.max();
        const auto &episode = group.distribution("sm.stall_episode_cycles");
        out.stallEpisodeMean = episode.mean();
        out.stallEpisodes = episode.count();
    }

    const EnergyModel energy_model;
    out.energy = energy_model.compute(stats, run.cycles, config.numSms);
    out.policyStorageBits = gpu.policy().storageOverheadBits();

    // Host-side perf counters (informational; simulated behaviour is
    // pinned by the metrics above, these only explain wall time).
    out.hostPerf.loopIterations = stats.counterValue("gpu.loop_iterations");
    out.hostPerf.skippedCycles = stats.counterValue("gpu.skipped_cycles");
    out.hostPerf.arenaAllocs = stats.counterValue("pcrf.writes");
    out.hostPerf.bitvecWordOps = stats.counterValue("rmu.bitvec_word_ops");
    out.hostPerf.fullAudits = stats.counterValue("verify.full_audits");
    out.hostPerf.edgeAudits = stats.counterValue("verify.edge_audits");
    return out;
}

} // namespace finereg
