/**
 * @file
 * SweepJournal unit tests: content-addressed keys, bit-exact JSON
 * round-trips (every double through %.17g), append/reload with
 * latest-entry-wins, torn-line tolerance, stale-version rejection,
 * journal-backed replay through Experiment::makeGuardedJob, and a sweep
 * that is stopped part-way and resumed to results bit-identical with a
 * clean run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

#include "core/experiment.hh"
#include "core/simulator.hh"
#include "core/sweep_journal.hh"
#include "compare_results.hh"
#include "ref/kernel_gen.hh"
#include "workloads/suite.hh"

namespace finereg
{
namespace
{

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

TEST(SweepJournal, KeyIsContentAddressed)
{
    const auto kernel = generateKernelSpec(0xbeef).build();
    GpuConfig config = GpuConfig::gtx980();
    config.policy.kind = PolicyKind::FineReg;

    const std::string base = makeSweepJobKey(*kernel, config).toString();
    EXPECT_EQ(base, makeSweepJobKey(*kernel, config).toString());

    // Each key part responds to its own input.
    GpuConfig other = config;
    other.seed ^= 1;
    EXPECT_NE(base, makeSweepJobKey(*kernel, other).toString());

    other = config;
    other.policy.kind = PolicyKind::Baseline;
    EXPECT_NE(base, makeSweepJobKey(*kernel, other).toString());

    other = config;
    other.numSms += 1;
    EXPECT_NE(base, makeSweepJobKey(*kernel, other).toString());

    const auto kernel2 = generateKernelSpec(0xbeef + 1).build();
    EXPECT_NE(base, makeSweepJobKey(*kernel2, config).toString());
}

TEST(SweepJournal, RuntimeOnlyKnobsDoNotChangeTheKey)
{
    // The cancel token never changes simulated results, so installing one
    // per job must not change the job's resume identity.
    const auto kernel = generateKernelSpec(0xbeef).build();
    GpuConfig config = GpuConfig::gtx980();
    config.policy.kind = PolicyKind::FineReg;
    const std::string base = makeSweepJobKey(*kernel, config).toString();

    GpuConfig armed = config;
    armed.verify.cancel = std::make_shared<CancelToken>();
    armed.verify.cancel->expire();
    EXPECT_EQ(base, makeSweepJobKey(*kernel, armed).toString());
}

TEST(SweepJournal, DefaultConfigFingerprintIsPinned)
{
    // Sweep journals and the perfbench reference stamps are keyed on this
    // hash: a change to configFingerprint or to a default config knob
    // orphans every recorded job.
    for (const PolicyKind kind :
         {PolicyKind::Baseline, PolicyKind::VirtualThread,
          PolicyKind::RegDram, PolicyKind::RegMutex, PolicyKind::FineReg}) {
        EXPECT_EQ(configFingerprint(Experiment::configFor(kind)),
                  0xe19b2739c1287ac1ull)
            << policyKindName(kind);
    }
}

TEST(SweepJournal, EntryJsonRoundTripsBitExactly)
{
    const auto kernel = generateKernelSpec(0xf00d).build();
    GpuConfig config = GpuConfig::gtx980();
    config.numSms = 2;
    config.policy.kind = PolicyKind::FineReg;
    SimResult result = Simulator::run(config, *kernel);
    ASSERT_FALSE(result.failed) << result.failureReason;

    JournalEntry entry;
    entry.key = makeSweepJobKey(*kernel, config).toString();
    entry.app = "GEN";
    entry.status = "ok";
    entry.wallMs = 123.4567890123456789; // deliberately not representable
    entry.result = result;

    const std::string line = journalEntryToJson(entry);
    const auto parsed = journalEntryFromJson(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->key, entry.key);
    EXPECT_EQ(parsed->app, "GEN");
    EXPECT_TRUE(parsed->ok());
    EXPECT_EQ(std::memcmp(&parsed->wallMs, &entry.wallMs, sizeof(double)),
              0);
    EXPECT_TRUE(parsed->result.fromJournal);
    EXPECT_EQ(compareSimResults(result, parsed->result), "");
}

TEST(SweepJournal, FailedEntryPreservesErrorKindAndMessage)
{
    JournalEntry entry;
    entry.key = "k1-c1-finereg-s1";
    entry.app = "BF";
    entry.status = "failed";
    entry.result.failed = true;
    entry.result.error.kind = SimErrorKind::Timeout;
    entry.result.error.message =
        "deadline \"exceeded\"\n\tafter 500 ms \\ cycle 3";

    const auto parsed = journalEntryFromJson(journalEntryToJson(entry));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(parsed->ok());
    EXPECT_TRUE(parsed->result.failed);
    EXPECT_EQ(parsed->result.error.kind, SimErrorKind::Timeout);
    EXPECT_EQ(parsed->result.error.message, entry.result.error.message);
}

TEST(SweepJournal, AppendReloadLatestEntryWins)
{
    const std::string path = tempPath("journal_reload.sweep.jsonl");
    std::remove(path.c_str());
    std::string error;
    {
        auto journal = SweepJournal::open(path, error);
        ASSERT_NE(journal, nullptr) << error;
        EXPECT_EQ(journal->size(), 0u);

        JournalEntry e;
        e.key = "k1-c1-finereg-s1";
        e.app = "AA";
        e.status = "failed";
        e.result.failed = true;
        e.result.error.kind = SimErrorKind::Timeout;
        journal->append(e);

        // A later success for the same key supersedes the failure.
        e.status = "ok";
        e.result = SimResult{};
        e.result.ipc = 1.25;
        journal->append(e);

        JournalEntry other;
        other.key = "k2-c2-baseline-s1";
        other.app = "BB";
        other.status = "ok";
        journal->append(other);

        EXPECT_EQ(journal->size(), 2u);
        EXPECT_EQ(journal->completedCount(), 2u);
    }

    auto journal = SweepJournal::open(path, error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_EQ(journal->size(), 2u);
    EXPECT_EQ(journal->completedCount(), 2u);
    const JournalEntry *latest = journal->find("k1-c1-finereg-s1");
    ASSERT_NE(latest, nullptr);
    EXPECT_TRUE(latest->ok());
    EXPECT_EQ(latest->result.ipc, 1.25);
    EXPECT_EQ(journal->find("k3-missing"), nullptr);
    std::remove(path.c_str());
}

TEST(SweepJournal, TornTrailingLineIsDroppedNotFatal)
{
    const std::string path = tempPath("journal_torn.sweep.jsonl");
    std::remove(path.c_str());
    std::string error;
    {
        auto journal = SweepJournal::open(path, error);
        ASSERT_NE(journal, nullptr) << error;
        JournalEntry e;
        e.key = "k1-c1-finereg-s1";
        e.app = "AA";
        e.status = "ok";
        journal->append(e);
    }
    // Simulate a crash mid-append: half a JSON object, no newline.
    {
        std::ofstream torn(path, std::ios::app);
        torn << "{\"key\":\"k2-c2-base";
    }

    auto journal = SweepJournal::open(path, error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_EQ(journal->size(), 1u);
    EXPECT_NE(journal->find("k1-c1-finereg-s1"), nullptr);
    std::remove(path.c_str());
}

TEST(SweepJournal, StaleSchemaVersionIsRejectedWithClearError)
{
    const std::string path = tempPath("journal_stale.sweep.jsonl");
    {
        std::ofstream out(path);
        out << "{\"schema\":\"finereg-sweep-journal\",\"version\":99}\n";
    }
    std::string error;
    auto journal = SweepJournal::open(path, error);
    EXPECT_EQ(journal, nullptr);
    EXPECT_NE(error.find("version"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(SweepJournal, ForeignSchemaIsRejected)
{
    const std::string path = tempPath("journal_foreign.sweep.jsonl");
    {
        std::ofstream out(path);
        out << "{\"schema\":\"someone-elses-log\",\"version\":1}\n";
    }
    std::string error;
    auto journal = SweepJournal::open(path, error);
    EXPECT_EQ(journal, nullptr);
    EXPECT_NE(error.find("schema"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(SweepJournal, GuardedJobsReplayBitIdenticallyOnResume)
{
    const std::string path = tempPath("journal_resume.sweep.jsonl");
    std::remove(path.c_str());

    std::shared_ptr<const Kernel> kernel =
        Suite::makeKernel(Suite::byName("BF"), 0.05);
    GpuConfig config = GpuConfig::gtx980();
    config.numSms = 2;
    config.policy.kind = PolicyKind::FineReg;
    const std::string key = makeSweepJobKey(*kernel, config).toString();

    std::string error;
    SimResult fresh;
    {
        auto journal = SweepJournal::open(path, error);
        ASSERT_NE(journal, nullptr) << error;
        JobGuard guard;
        fresh = Experiment::makeGuardedJob(kernel, config, "BF", key, guard,
                                           journal.get())();
        ASSERT_FALSE(fresh.failed) << fresh.failureReason;
        EXPECT_FALSE(fresh.fromJournal);
        EXPECT_EQ(journal->completedCount(), 1u);
    }

    // A second process resuming from the journal replays the result
    // without re-simulating, bit-identically.
    auto journal = SweepJournal::open(path, error);
    ASSERT_NE(journal, nullptr) << error;
    JobGuard guard;
    unsigned runs = 0;
    const SimResult replayed = Experiment::makeGuardedJob(
        kernel, config, "BF", key, guard, journal.get(),
        [&runs](GpuConfig &, const std::string &, unsigned) { ++runs; })();
    EXPECT_TRUE(replayed.fromJournal);
    EXPECT_EQ(compareSimResults(fresh, replayed), "");
    EXPECT_EQ(runs, 0u);
    std::remove(path.c_str());
}

TEST(SweepJournal, StoppedSweepResumesToCleanResults)
{
    // Kill a journaled two-worker sweep once a few cells have started:
    // the cells that started finish and are journaled, the pending ones
    // come back Cancelled. A second run over the reopened journal must
    // replay the finished cells, simulate only the rest, and end with
    // every cell bit-identical to a clean unjournaled sweep.
    const std::string path = tempPath("journal_stop_resume.sweep.jsonl");
    std::remove(path.c_str());
    constexpr double kScale = 0.02;
    constexpr unsigned kStartsBeforeStop = 5;
    const std::vector<GpuConfig> configs{
        Experiment::configFor(PolicyKind::FineReg)};
    const std::size_t cells = Suite::all().size();

    const auto clean = Experiment::runSweep(configs, kScale, /*jobs=*/1);

    std::string error;
    GuardedSweepOutcome stopped;
    std::atomic<unsigned> first_starts{0};
    {
        auto journal = SweepJournal::open(path, error);
        ASSERT_NE(journal, nullptr) << error;
        auto stop = std::make_shared<std::atomic<bool>>(false);
        GuardedSweepOptions sweep;
        sweep.gridScale = kScale;
        sweep.jobs = 2;
        sweep.journal = journal.get();
        sweep.stop = stop;
        sweep.perAttempt = [&](GpuConfig &, const std::string &, unsigned) {
            if (first_starts.fetch_add(1) + 1 >= kStartsBeforeStop)
                stop->store(true);
        };
        stopped = Experiment::runGuardedSweep(configs, sweep);
        EXPECT_EQ(journal->size(), stopped.executed);
    }
    // The other worker may already be past its stop check when the flag
    // is set, so one extra cell can start.
    EXPECT_GE(stopped.executed, kStartsBeforeStop);
    EXPECT_LE(stopped.executed, kStartsBeforeStop + 1);
    EXPECT_EQ(stopped.executed, first_starts.load());
    EXPECT_EQ(stopped.replayed, 0u);
    EXPECT_EQ(stopped.cancelled, cells - stopped.executed);
    EXPECT_EQ(stopped.failed, stopped.cancelled);

    auto journal = SweepJournal::open(path, error);
    ASSERT_NE(journal, nullptr) << error;
    EXPECT_EQ(journal->completedCount(), stopped.executed);
    std::atomic<unsigned> second_starts{0};
    GuardedSweepOptions sweep;
    sweep.gridScale = kScale;
    sweep.jobs = 2;
    sweep.journal = journal.get();
    sweep.perAttempt = [&](GpuConfig &, const std::string &, unsigned) {
        second_starts.fetch_add(1);
    };
    const GuardedSweepOutcome resumed =
        Experiment::runGuardedSweep(configs, sweep);

    EXPECT_TRUE(resumed.allOk());
    EXPECT_EQ(resumed.replayed, stopped.executed);
    EXPECT_EQ(resumed.executed, cells - stopped.executed);
    EXPECT_EQ(second_starts.load(), cells - stopped.executed);
    for (std::size_t a = 0; a < cells; ++a) {
        const SimResult &first = stopped.results[0][a];
        const SimResult &got = resumed.results[0][a];
        EXPECT_EQ(got.fromJournal, !first.failed) << Suite::all()[a].abbrev;
        EXPECT_EQ(compareSimResults(got, clean[0][a]), "")
            << Suite::all()[a].abbrev;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace finereg
