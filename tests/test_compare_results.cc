/**
 * @file
 * Tests for the reference SimResult comparator the determinism and
 * resume tests rely on: it must see a one-ulp drift and must not see how
 * a result was obtained.
 */

#include <gtest/gtest.h>

#include "compare_results.hh"

namespace finereg
{
namespace
{

TEST(CompareSimResults, IgnoresJournalProvenance)
{
    SimResult a;
    a.kernelName = "k";
    a.policyName = "finereg";
    a.cycles = 100;
    a.instructions = 250;
    a.ipc = 2.5;

    SimResult b = a;
    EXPECT_EQ(compareSimResults(a, b), "");

    // fromJournal describes how the result was obtained, not what the
    // simulation computed; a replayed run must compare equal to a fresh
    // one.
    b.fromJournal = true;
    EXPECT_EQ(compareSimResults(a, b), "");
}

TEST(CompareSimResults, DetectsSingleBitDrift)
{
    SimResult a;
    a.kernelName = "k";
    a.cycles = 100;
    a.ipc = 2.5;

    SimResult b = a;
    b.ipc = 2.5000000000000004; // one ulp away
    const std::string ipc_diff = compareSimResults(a, b);
    EXPECT_NE(ipc_diff, "");
    EXPECT_NE(ipc_diff.find("ipc"), std::string::npos) << ipc_diff;

    b = a;
    b.cycles = 101;
    EXPECT_NE(compareSimResults(a, b), "");

    b = a;
    b.failed = true;
    EXPECT_NE(compareSimResults(a, b), "");
}

} // namespace
} // namespace finereg
