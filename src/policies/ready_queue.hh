/**
 * @file
 * ReadyQueue: a switching policy's pending CTAs on one SM, each with the
 * cycle its context is expected to be ready, in a flat vector sorted by
 * (ready, launchSeq). The front entry is the switch partner, the
 * soonest-ready CTA with ties going to the earlier launch: the CTA an
 * argmin over the pending CTAs in launch order with a strict < picks.
 * The queue is the only copy of a pending CTA's ready cycle.
 */

#ifndef FINEREG_POLICIES_READY_QUEUE_HH
#define FINEREG_POLICIES_READY_QUEUE_HH

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/types.hh"
#include "sm/cta.hh"

namespace finereg
{

class ReadyQueue
{
  public:
    struct Entry
    {
        Cycle ready;
        unsigned launchSeq;
        Cta *cta;

        bool
        operator<(const Entry &o) const
        {
            return std::tie(ready, launchSeq) < std::tie(o.ready, o.launchSeq);
        }
    };

    /** Queue @p cta, ready at @p ready. It must not be queued already. */
    void
    push(Cta &cta, Cycle ready)
    {
        const Entry entry{ready, cta.launchSeq(), &cta};
        entries_.insert(
            std::upper_bound(entries_.begin(), entries_.end(), entry),
            entry);
    }

    /** Remove @p cta; a no-op when it is not queued. */
    void
    erase(const Cta &cta)
    {
        const auto it = find(cta);
        if (it != end())
            entries_.erase(it);
    }

    /** The soonest-ready CTA if it is ready by @p at_most, else null. */
    Cta *
    best(Cycle at_most) const
    {
        return !empty() && entries_.front().ready <= at_most
                   ? entries_.front().cta
                   : nullptr;
    }

    /** kNoCycle when empty, else max(front ready, now+1): the clamp is
     * monotone, so it commutes with the min over entries. */
    Cycle
    nextEvent(Cycle now) const
    {
        return empty() ? kNoCycle : std::max(entries_.front().ready, now + 1);
    }

    /** Ready cycle of @p cta, or @p absent when it is not queued. */
    Cycle
    readyCycle(const Cta &cta, Cycle absent = kNoCycle) const
    {
        const auto it = find(cta);
        return it == end() ? absent : it->ready;
    }

    bool contains(const Cta &cta) const { return find(cta) != end(); }
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

    /** Entries in (ready, launchSeq) order. */
    using const_iterator = std::vector<Entry>::const_iterator;
    const_iterator begin() const { return entries_.begin(); }
    const_iterator end() const { return entries_.end(); }

  private:
    const_iterator
    find(const Cta &cta) const
    {
        return std::find_if(begin(), end(),
                            [&](const Entry &e) { return e.cta == &cta; });
    }

    std::vector<Entry> entries_;
};

} // namespace finereg

#endif // FINEREG_POLICIES_READY_QUEUE_HH
