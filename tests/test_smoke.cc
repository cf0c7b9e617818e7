/**
 * @file
 * End-to-end smoke tests: every policy runs every-other suite app to
 * completion without panics, completing all CTAs.
 */

#include <gtest/gtest.h>

#include "core/cli_options.hh"
#include "core/experiment.hh"

namespace finereg
{

/** gtest prints a PolicyKind parameter by its display name. */
void
PrintTo(PolicyKind kind, std::ostream *os)
{
    *os << policyKindName(kind);
}

namespace
{

TEST(Smoke, BaselineRunsTinyKernel)
{
    GpuConfig config = Experiment::configFor(PolicyKind::Baseline);
    const SimResult result = Experiment::runApp("BF", config, 0.1);
    EXPECT_FALSE(result.hitCycleLimit);
    EXPECT_GT(result.ipc, 0.0);
    EXPECT_GT(result.instructions, 0u);
}

class SmokeAllPolicies : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(SmokeAllPolicies, CompletesSuiteSample)
{
    GpuConfig config = Experiment::configFor(GetParam());
    for (const char *app : {"BF", "CS", "SG", "TA"}) {
        const SimResult result = Experiment::runApp(app, config, 0.1);
        EXPECT_FALSE(result.hitCycleLimit) << app;
        EXPECT_GT(result.ipc, 0.0) << app;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SmokeAllPolicies,
    ::testing::Values(PolicyKind::Baseline, PolicyKind::VirtualThread,
                      PolicyKind::RegDram, PolicyKind::RegMutex,
                      PolicyKind::FineReg),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        return std::string(policyCliName(info.param));
    });

} // namespace
} // namespace finereg
