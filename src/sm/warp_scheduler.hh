/**
 * @file
 * Warp schedulers. Each SM has several (Table I: 4); every resident active
 * warp is statically assigned to one. GTO (greedy-then-oldest, the paper's
 * configuration) keeps issuing from the same warp until it stalls, then
 * falls back to the oldest schedulable warp; LRR round-robins.
 */

#ifndef FINEREG_SM_WARP_SCHEDULER_HH
#define FINEREG_SM_WARP_SCHEDULER_HH

#include <algorithm>
#include <vector>

#include "common/types.hh"
#include "sm/cta.hh"
#include "sm/warp.hh"

namespace finereg
{

enum class SchedKind : unsigned char { GTO, LRR };

class WarpScheduler
{
  public:
    WarpScheduler(SchedKind kind, unsigned id) : kind_(kind), id_(id) {}

    unsigned id() const { return id_; }

    /**
     * GTO keeps warps_ in age order — (CTA launchSeq, warp id), unique per
     * SM — so the oldest issuable warp is the first one found. LRR keeps
     * insertion order, which its rotation depends on.
     */
    void
    addWarp(Warp *warp)
    {
        if (kind_ == SchedKind::GTO)
            warps_.insert(ageLowerBound(warp), warp);
        else
            warps_.push_back(warp);
    }

    /** Remove @p warp; a no-op when it is not scheduled here. */
    void
    removeWarp(Warp *warp)
    {
        const auto it = kind_ == SchedKind::GTO
                            ? ageLowerBound(warp)
                            : std::find(warps_.begin(), warps_.end(), warp);
        if (it != warps_.end() && *it == warp)
            warps_.erase(it);
        if (greedy_ == warp)
            greedy_ = nullptr;
        if (rrIndex_ >= warps_.size())
            rrIndex_ = 0;
    }

    const std::vector<Warp *> &warps() const { return warps_; }

    /**
     * Pick a warp to issue from. @p issuable is a predicate invoked on
     * candidate warps; the first satisfying warp under the policy's
     * priority order wins.
     */
    template <typename Pred>
    Warp *
    pick(Pred &&issuable)
    {
        if (warps_.empty())
            return nullptr;

        if (kind_ == SchedKind::GTO) {
            // Greedy: stick with the last issuer while it can go.
            if (greedy_ && issuable(greedy_))
                return greedy_;
            // Then-oldest: warps_ is in age order.
            for (Warp *w : warps_) {
                if (issuable(w)) {
                    greedy_ = w;
                    return w;
                }
            }
            return nullptr;
        }

        // LRR: rotate through the list starting after the last pick.
        const std::size_t n = warps_.size();
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = (rrIndex_ + 1 + k) % n;
            if (issuable(warps_[i])) {
                rrIndex_ = i;
                return warps_[i];
            }
        }
        return nullptr;
    }

  private:
    static bool
    olderThan(const Warp *a, const Warp *b)
    {
        const unsigned sa = a->cta()->launchSeq();
        const unsigned sb = b->cta()->launchSeq();
        if (sa != sb)
            return sa < sb;
        return a->id() < b->id();
    }

    std::vector<Warp *>::iterator
    ageLowerBound(const Warp *warp)
    {
        return std::lower_bound(warps_.begin(), warps_.end(), warp,
                                olderThan);
    }

    SchedKind kind_;
    unsigned id_;
    std::vector<Warp *> warps_;
    Warp *greedy_ = nullptr;
    std::size_t rrIndex_ = 0;
};

} // namespace finereg

#endif // FINEREG_SM_WARP_SCHEDULER_HH
