/**
 * @file
 * Host-speed probe. The benchmark runs on a shared host whose speed drifts
 * by ±20% over minutes, more than any bound a run could hold to. The probe
 * is a fixed loop that is timed between the simulator's cells: a xorshift
 * walk over a 32 KiB table with data-dependent branches, integer work like
 * the simulator's own. Its time per step tracks the simulator's speed on
 * the host from moment to moment, and nothing in the library changes it.
 * A pass scales its host times by kReferenceProbeNs / (median probe
 * reading), so they read as if measured on the reference host state.
 */

#ifndef FINEREG_PERFBENCH_HOST_PROBE_HH
#define FINEREG_PERFBENCH_HOST_PROBE_HH

namespace perfbench
{

/** Median probe time per step on the 4-core x86_64 VM (Xeon, 105 MiB L3)
 * where the benchmark's bounds were set. */
constexpr double kReferenceProbeNs = 6.6;

/** Run the probe loop once (about 7 ms) and return its ns per step.
 * Defined in host_probe.cc, which the build links first, so the loop's
 * code placement does not move when the library changes. */
double probeNsPerStep();

} // namespace perfbench

#endif // FINEREG_PERFBENCH_HOST_PROBE_HH
