/**
 * @file
 * Golden timing table: exact cycles, instructions, DRAM bytes and issue
 * counts of every Table II workload under both warp schedulers (GTO, LRR)
 * and all five policies, pinned in tests/golden/timing.golden.
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

/** Run one cell at the golden config; returns its measured columns. */
std::string
runCell(const Kernel &kernel, SchedKind sched, PolicyKind policy)
{
    GpuConfig config = GpuConfig::gtx980();
    config.numSms = 2;
    config.sm.sched = sched;
    config.policy.kind = policy;
    if (config.policy.unifiedMemory)
        config = Simulator::applyUnifiedMemory(config, kernel);

    Gpu gpu(config, kernel);
    const GpuRunResult run = gpu.run();
    EXPECT_FALSE(run.hitCycleLimit) << kernel.name();
    const StatGroup &stats = gpu.stats();
    std::ostringstream oss;
    oss << ' ' << run.cycles << ' ' << run.instructions << ' '
        << stats.counterValue("dram.bytes_data") << ' '
        << stats.counterValue("dram.bytes_cta_context") << ' '
        << stats.counterValue("sm.issued");
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
           "dram_bytes_cta_context sm_issued\n";
    unsigned cells = 0;
    for (const SuiteEntry &entry : Suite::all()) {
        const auto kernel = Suite::makeKernel(entry, kScale);
        for (const SchedKind sched : {SchedKind::GTO, SchedKind::LRR}) {
            for (const PolicyKind policy :
                 {PolicyKind::Baseline, PolicyKind::FineReg,
                  PolicyKind::VirtualThread, PolicyKind::RegDram,
                  PolicyKind::RegMutex}) {
                const std::string key = entry.abbrev + " " +
                                        schedName(sched) + " " +
                                        policyKindName(policy);
                const std::string row = runCell(*kernel, sched, policy);
                out << key << row << '\n';
                ++cells;
                if (update)
                    continue;
                const auto it = pinned.find(key);
                if (it == pinned.end()) {
                    ADD_FAILURE() << "no timing row for " << key;
                    continue;
                }
                EXPECT_EQ(row, it->second)
                    << key << ": timing changed (cycles instructions "
                       "dram_data dram_cta sm.issued); if intentional, "
                       "regenerate with UPDATE_GOLDEN=1";
            }
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
