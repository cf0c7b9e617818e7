#include "regfile/rmu.hh"

#include <algorithm>

namespace finereg
{

Rmu::Rmu(const RmuConfig &config, const KernelContext &context,
         MemHierarchy &mem, StatGroup &stats)
    : config_(config), context_(&context), mem_(&mem),
      cache_(config.bitvecCacheEntries, stats),
      gathers_(&stats.counter("rmu.gathers")),
      wordOps_(&stats.counter("rmu.bitvec_word_ops"))
{
}

const Rmu::Gather &
Rmu::gatherLiveRegs(const Cta &cta, Cycle now)
{
    gathers_->inc();
    Gather &out = scratch_;
    out.totalRegs = 0;
    out.cacheMisses = 0;
    out.bitvecReadyCycle = now;
    out.warpLive.assign(cta.warps().size(), RegBitVec{});

    const unsigned regs_per_thread =
        context_->kernel().regsPerThread();
    std::uint64_t word_ops = 0;

    for (const auto &warp : cta.warps()) {
        if (warp->finished())
            continue;

        RegBitVec live;
        if (config_.fullContextBackup) {
            for (unsigned r = 0; r < regs_per_thread; ++r)
                live.set(static_cast<RegIndex>(r));
        } else {
            // Union of liveness over every SIMT-stack level: diverged
            // paths each need their registers preserved.
            for (const auto &entry : warp->simtStack()) {
                live |= context_->liveTable().lookup(entry.pc);
                ++word_ops; // one 64-bit union per stack level
                if (!cache_.access(entry.pc)) {
                    ++out.cacheMisses;
                    // 12-byte table entry fetched from off-chip memory.
                    const Cycle done = mem_->offchipTransfer(
                        now, 12, TrafficClass::BitVector);
                    out.bitvecReadyCycle =
                        std::max(out.bitvecReadyCycle, done);
                }
            }
        }

        if (config_.dropLiveReg >= 0 &&
            config_.dropLiveReg < int(regs_per_thread)) {
            // Deliberately broken liveness (test hook): the register is
            // dropped from the backup set even when the program still
            // needs it.
            live.reset(static_cast<RegIndex>(config_.dropLiveReg));
        }

        out.warpLive[warp->id()] = live;
        out.totalRegs += live.count();
        ++word_ops; // one popcount per warp mask
    }

    wordOps_->inc(word_ops);
    return out;
}

} // namespace finereg
