#include "mem/cache.hh"

#include "verify/sim_error.hh"

namespace finereg
{

Cache::Cache(std::string name, const CacheConfig &config, StatGroup &stats)
    : name_(std::move(name)), config_(config),
      hits_(&stats.counter(name_ + ".hits")),
      misses_(&stats.counter(name_ + ".misses")),
      mshrMerges_(&stats.counter(name_ + ".mshr_merges"))
{
    rebuild();
}

void
Cache::rebuild()
{
    if (config_.sizeBytes == 0 || config_.assoc == 0 ||
        config_.lineBytes == 0) {
        raiseConfigError("cache " + name_ + ": zero-sized geometry");
    }
    numSets_ = config_.sizeBytes / (config_.assoc * config_.lineBytes);
    if (numSets_ == 0)
        numSets_ = 1;
    lines_.assign(numSets_ * config_.assoc, Line{});
    mshrs_.clear();
    useClock_ = 0;
}

bool
Cache::access(Addr addr, bool is_write)
{
    ++useClock_;
    const Addr line = lineAddr(addr);
    const std::size_t set = setOf(line);
    const Addr tag = tagOf(line);
    Line *base = &lines_[set * config_.assoc];

    for (unsigned w = 0; w < config_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lastUse = useClock_;
            hits_->inc();
            return true;
        }
    }

    misses_->inc();

    // Stores miss straight down unless this level write-allocates.
    if (is_write && !config_.writeAllocate)
        return false;

    // Allocate, evicting the LRU way.
    Line *victim = &base[0];
    for (unsigned w = 1; w < config_.assoc; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useClock_;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    const Addr line = lineAddr(addr);
    const std::size_t set = setOf(line);
    const Addr tag = tagOf(line);
    const Line *base = &lines_[set * config_.assoc];
    for (unsigned w = 0; w < config_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

std::optional<Cycle>
Cache::outstandingFill(Addr addr, Cycle now)
{
    const Addr line = lineAddr(addr);
    const auto it = mshrs_.find(line);
    if (it == mshrs_.end())
        return std::nullopt;
    if (it->second <= now) {
        // The fill landed; the MSHR is free again.
        mshrs_.erase(it);
        return std::nullopt;
    }
    mshrMerges_->inc();
    return it->second;
}

void
Cache::registerFill(Addr addr, Cycle fill_cycle)
{
    const Addr line = lineAddr(addr);
    // A bounded MSHR file: when full, drop mshrs_.begin(), the first entry
    // in hash order (not the oldest). Merging is an optimization, so
    // forgetting an entry only costs extra traffic realism, never correctness.
    if (mshrs_.size() >= config_.mshrEntries)
        mshrs_.erase(mshrs_.begin());
    mshrs_[line] = fill_cycle;
}

void
Cache::invalidateAll()
{
    for (auto &line : lines_)
        line.valid = false;
    mshrs_.clear();
}

void
Cache::resize(std::uint64_t size_bytes)
{
    config_.sizeBytes = size_bytes;
    rebuild();
}

} // namespace finereg
