/**
 * @file
 * Golden timing table: exact cycles, instructions, DRAM bytes, issue
 * counts, RMU gathers and register-file-depletion stall cycles of every
 * Table II workload under both warp schedulers (GTO, LRR) and all five
 * policies, pinned in tests/golden/timing.golden.
 *
 * Two depletion paths no cell of that matrix reaches get rows of their
 * own: RegMutex with Fig. 14's SRP ratio (0.125), where SRP refusals set
 * the depletion flag, and FineReg on AT, CF and LB at scale 0.1, where a
 * full PCRF refuses Fig. 6(b) swaps. Their policy column carries the
 * setting that differs from the matrix.
 *
 * The end-state fingerprints in GoldenEndState cannot see scheduling: warp
 * RNG streams are seeded from the grid CTA id, so any issue order yields
 * the same architectural end state. This table pins the order itself — a
 * scheduler that picks a different warp shifts at least one timing column.
 *
 * Regenerate intentionally with:  UPDATE_GOLDEN=1 ./finereg_tests \
 *     --gtest_filter='GoldenTiming.*'
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/simulator.hh"
#include "sm/gpu.hh"
#include "workloads/suite.hh"

#ifndef FINEREG_GOLDEN_DIR
#error "FINEREG_GOLDEN_DIR must point at tests/golden"
#endif

namespace finereg
{
namespace
{

constexpr double kScale = 0.02;

const char *
schedName(SchedKind kind)
{
    return kind == SchedKind::GTO ? "GTO" : "LRR";
}

std::string
tablePath()
{
    return std::string(FINEREG_GOLDEN_DIR) + "/timing.golden";
}

/** "app sched policy" -> the measured columns of that cell, one line. */
using Table = std::map<std::string, std::string>;

Table
readTable(const std::string &path)
{
    Table table;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream iss(line);
        std::string app, sched, policy;
        iss >> app >> sched >> policy;
        std::string rest;
        std::getline(iss, rest);
        table[app + " " + sched + " " + policy] = rest;
    }
    return table;
}

/** The golden config: two SMs, @p sched, @p policy. */
GpuConfig
cellConfig(SchedKind sched, PolicyKind policy)
{
    GpuConfig config = GpuConfig::gtx980();
    config.numSms = 2;
    config.sm.sched = sched;
    config.policy.kind = policy;
    return config;
}

/** Run one cell; returns its measured columns. */
std::string
runCell(const Kernel &kernel, GpuConfig config)
{
    if (config.policy.unifiedMemory)
        config = Simulator::applyUnifiedMemory(config, kernel);

    Gpu gpu(config, kernel);
    const GpuRunResult run = gpu.run();
    EXPECT_FALSE(run.hitCycleLimit) << kernel.name();
    const StatGroup &stats = gpu.stats();
    std::ostringstream oss;
    oss << ' ' << run.cycles << ' ' << run.instructions;
    for (const char *counter :
         {"dram.bytes_data", "dram.bytes_cta_context", "sm.issued",
          "dram.bytes_bitvec", "rmu.gathers", "gpu.depletion_stall_cycles"})
        oss << ' ' << stats.counterValue(counter);
    return oss.str();
}

TEST(GoldenTiming, EveryCellMatchesTheTable)
{
    const bool update = std::getenv("UPDATE_GOLDEN") != nullptr;
    const Table pinned = update ? Table{} : readTable(tablePath());
    ASSERT_TRUE(update || !pinned.empty())
        << "missing golden timing table " << tablePath()
        << " — run with UPDATE_GOLDEN=1 to create it";

    std::ostringstream out;
    out << "# golden timing: scale=" << kScale
        << " sms=2 seed=0x5eedf00d\n"
        << "# app sched policy cycles instructions dram_bytes_data "
           "dram_bytes_cta_context sm_issued dram_bytes_bitvec "
           "rmu_gathers depletion_stall_cycles\n";
    unsigned cells = 0;
    const auto check = [&](const std::string &key, const std::string &row) {
        out << key << row << '\n';
        ++cells;
        if (update)
            return;
        const auto it = pinned.find(key);
        if (it == pinned.end()) {
            ADD_FAILURE() << "no timing row for " << key;
            return;
        }
        EXPECT_EQ(row, it->second)
            << key << ": timing changed (cycles instructions dram_data "
               "dram_cta sm.issued dram_bitvec rmu.gathers "
               "depletion_stall_cycles); if intentional, regenerate with "
               "UPDATE_GOLDEN=1";
    };
    for (const SuiteEntry &entry : Suite::all()) {
        const auto kernel = Suite::makeKernel(entry, kScale);
        for (const SchedKind sched : {SchedKind::GTO, SchedKind::LRR}) {
            const std::string prefix =
                entry.abbrev + " " + schedName(sched) + " ";
            for (const PolicyKind policy :
                 {PolicyKind::Baseline, PolicyKind::FineReg,
                  PolicyKind::VirtualThread, PolicyKind::RegDram,
                  PolicyKind::RegMutex}) {
                check(prefix + policyKindName(policy),
                      runCell(*kernel, cellConfig(sched, policy)));
            }
            GpuConfig srp = cellConfig(sched, PolicyKind::RegMutex);
            srp.policy.srpRatio = 0.125;
            check(prefix + "VT+RegMutex/srp=0.125", runCell(*kernel, srp));
        }
    }
    for (const char *app : {"AT", "CF", "LB"}) {
        const auto kernel = Suite::makeKernel(Suite::byName(app), 0.1);
        for (const SchedKind sched : {SchedKind::GTO, SchedKind::LRR}) {
            check(std::string(app) + " " + schedName(sched) +
                      " FineReg/scale=0.1",
                  runCell(*kernel, cellConfig(sched, PolicyKind::FineReg)));
        }
    }
    if (update) {
        std::ofstream(tablePath()) << out.str();
        return;
    }
    EXPECT_EQ(pinned.size(), cells) << "stale rows in " << tablePath();
}

} // namespace
} // namespace finereg
