/**
 * @file
 * Test-only reference comparator for SimResults: field by field, doubles
 * compared bit for bit, including the deterministic host_perf counters,
 * ignoring provenance (fromJournal) and wall-clock artefacts. Used wherever a test asserts that two ways of obtaining a
 * result (parallel vs serial, replayed vs simulated) agree exactly.
 */

#ifndef FINEREG_TESTS_COMPARE_RESULTS_HH
#define FINEREG_TESTS_COMPARE_RESULTS_HH

#include <cstring>
#include <sstream>
#include <string>

#include "core/simulator.hh"

namespace finereg
{

/** Empty when @p a and @p b are bit-identical, else "field: a vs b" for
 * the first differing field. */
inline std::string
compareSimResults(const SimResult &a, const SimResult &b)
{
    std::ostringstream oss;
    auto diff = [&oss](const char *field, auto va, auto vb) {
        oss << field << ": " << va << " vs " << vb;
    };
    // Bit comparison: the contract is bit-identity, not closeness.
    auto same_double = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof x) == 0;
    };

#define FINEREG_CMP_INT(field)                                              \
    if (a.field != b.field) {                                               \
        diff(#field, a.field, b.field);                                     \
        return oss.str();                                                   \
    }
#define FINEREG_CMP_DBL(field)                                              \
    if (!same_double(a.field, b.field)) {                                   \
        diff(#field, a.field, b.field);                                     \
        return oss.str();                                                   \
    }

    FINEREG_CMP_INT(kernelName)
    FINEREG_CMP_INT(policyName)
    FINEREG_CMP_INT(failed)
    FINEREG_CMP_INT(cycles)
    FINEREG_CMP_INT(instructions)
    FINEREG_CMP_DBL(ipc)
    FINEREG_CMP_INT(hitCycleLimit)
    FINEREG_CMP_INT(completedCtas)
    FINEREG_CMP_DBL(avgResidentCtas)
    FINEREG_CMP_DBL(avgActiveCtas)
    FINEREG_CMP_DBL(avgActiveThreads)
    FINEREG_CMP_INT(dramBytesData)
    FINEREG_CMP_INT(dramBytesCtaContext)
    FINEREG_CMP_INT(dramBytesBitvec)
    FINEREG_CMP_DBL(depletionStallFraction)
    FINEREG_CMP_INT(l1Hits)
    FINEREG_CMP_INT(l1Misses)
    FINEREG_CMP_DBL(rfUsageMean)
    FINEREG_CMP_DBL(rfUsageMin)
    FINEREG_CMP_DBL(rfUsageMax)
    FINEREG_CMP_DBL(stallEpisodeMean)
    FINEREG_CMP_INT(stallEpisodes)
    FINEREG_CMP_DBL(energy.dramDyn)
    FINEREG_CMP_DBL(energy.rfDyn)
    FINEREG_CMP_DBL(energy.othersDyn)
    FINEREG_CMP_DBL(energy.leakage)
    FINEREG_CMP_DBL(energy.fineregOverhead)
    FINEREG_CMP_DBL(energy.ctaSwitching)
    FINEREG_CMP_INT(policyStorageBits)
    FINEREG_CMP_INT(hostPerf.loopIterations)
    FINEREG_CMP_INT(hostPerf.skippedCycles)
    FINEREG_CMP_INT(hostPerf.arenaAllocs)
    FINEREG_CMP_INT(hostPerf.bitvecWordOps)
    FINEREG_CMP_INT(hostPerf.fullAudits)
    FINEREG_CMP_INT(hostPerf.edgeAudits)

#undef FINEREG_CMP_INT
#undef FINEREG_CMP_DBL
    return {};
}

} // namespace finereg

#endif // FINEREG_TESTS_COMPARE_RESULTS_HH
