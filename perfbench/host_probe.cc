#include "host_probe.hh"

#include <chrono>
#include <cstdint>

namespace perfbench
{

namespace
{

constexpr unsigned kSteps = 1000000;
constexpr std::uint32_t kTableMask = 8191; ///< 32 KiB of uint32_t.

// Per thread: pool passes probe on every worker.
thread_local std::uint32_t table[kTableMask + 1];
thread_local std::uint32_t state = 0x2545f491;

} // namespace

double
probeNsPerStep()
{
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t h = state | 1, acc = 0;
    for (unsigned i = 0; i < kSteps; ++i) {
        h ^= h << 13;
        h ^= h >> 17;
        h ^= h << 5;
        std::uint32_t &slot = table[h & kTableMask];
        if (h & 0x10000)
            acc += slot;
        else
            slot += h;
    }
    state = h ^ acc;
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           kSteps;
}

} // namespace perfbench
