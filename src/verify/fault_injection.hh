/**
 * @file
 * Deterministic fault-injection harness. One FaultInjector per Gpu, shared
 * by every injection point (DRAM delay, forced PCRF-full, forced bit-vector
 * cache miss). All draws come from a single Rng seeded with
 * FaultConfig::seed; because the simulator itself is deterministic, the
 * sequence of injection-point queries — and therefore the injected fault
 * schedule — is a pure function of the seed.
 */

#ifndef FINEREG_VERIFY_FAULT_INJECTION_HH
#define FINEREG_VERIFY_FAULT_INJECTION_HH

#include "common/rng.hh"
#include "common/stats.hh"
#include "verify/verify_config.hh"

namespace finereg
{

class FaultInjector
{
  public:
    FaultInjector(const FaultConfig &config, StatGroup &stats);

    bool enabled() const { return config_.enabled(); }

    /** Extra DRAM latency for this transfer: 0 or dramDelayCycles. */
    Cycle dramDelay();

    /** True when this canStore query must report the PCRF full. */
    bool forcePcrfFull();

    /** True when this bit-vector cache hit must be treated as a miss. */
    bool forceBitvecMiss();

    const FaultConfig &config() const { return config_; }

    /** Injection counts (also exported as fault.* stats counters). */
    std::uint64_t injectedDramDelays() const { return dramDelays_->value(); }
    std::uint64_t injectedPcrfFulls() const { return pcrfFulls_->value(); }
    std::uint64_t injectedBitvecMisses() const
    {
        return bitvecMisses_->value();
    }

  private:
    FaultConfig config_;
    Rng rng_;

    Counter *dramDelays_;
    Counter *pcrfFulls_;
    Counter *bitvecMisses_;
};

} // namespace finereg

#endif // FINEREG_VERIFY_FAULT_INJECTION_HH
