#include "verify/fault_injection.hh"

namespace finereg
{

FaultInjector::FaultInjector(const FaultConfig &config, StatGroup &stats)
    : config_(config), rng_(config.seed),
      dramDelays_(&stats.counter("fault.dram_delays")),
      pcrfFulls_(&stats.counter("fault.pcrf_fulls")),
      bitvecMisses_(&stats.counter("fault.bitvec_misses"))
{
}

Cycle
FaultInjector::dramDelay()
{
    if (!enabled() || config_.dramDelayProb <= 0.0 ||
        !rng_.chance(config_.dramDelayProb)) {
        return 0;
    }
    dramDelays_->inc();
    return config_.dramDelayCycles;
}

bool
FaultInjector::forcePcrfFull()
{
    if (!enabled() || config_.pcrfFullProb <= 0.0 ||
        !rng_.chance(config_.pcrfFullProb)) {
        return false;
    }
    pcrfFulls_->inc();
    return true;
}

bool
FaultInjector::forceBitvecMiss()
{
    if (!enabled() || config_.bitvecMissProb <= 0.0 ||
        !rng_.chance(config_.bitvecMissProb)) {
        return false;
    }
    bitvecMisses_->inc();
    return true;
}

} // namespace finereg
