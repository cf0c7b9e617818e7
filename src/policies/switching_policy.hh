/**
 * @file
 * SwitchingPolicy: the CTA-switching protocol FineReg (Secs. IV-A, V-E,
 * Fig. 6) shares with Virtual Thread, RegMutex and Reg+DRAM. Each tick
 * fills free active slots, then switches fully stalled CTAs out, testing
 * for a partner before it scans for them. The base owns the per-SM ready
 * queue, the Fig. 14 depletion flag, both loops and the resume and launch
 * sequences; a policy supplies its register room tests, its switch-out
 * action and its storage model as hooks (DESIGN.md §14).
 *
 * Hooks are bound at compile time: a policy's tick() calls
 * switchingTick(*this, ...), whose member templates call them on the
 * policy's own type. A policy hides the defaults it changes and
 * befriends SwitchingPolicy so the loops can reach them.
 */

#ifndef FINEREG_POLICIES_SWITCHING_POLICY_HH
#define FINEREG_POLICIES_SWITCHING_POLICY_HH

#include <initializer_list>
#include <vector>

#include "policies/policy.hh"
#include "policies/ready_queue.hh"
#include "sm/cta_dispatcher.hh"
#include "sm/sm.hh"

namespace finereg
{

class SwitchingPolicy : public Policy
{
  public:
    /** The Fig. 14 flag of @p sm's last tick. */
    bool rfDepletionBlocked(const Sm &sm, Cycle now) const override;

    /** ReadyQueue::nextEvent of @p sm's ready queue. */
    Cycle nextEventCycle(const Sm &sm, Cycle now) const override;

    /** Pending CTAs and their operand-ready estimates. */
    const ReadyQueue &readyOf(const Sm &sm) const
    {
        return perSm_[sm.id()].ready;
    }
    ReadyQueue &mutableReadyOf(const Sm &sm) { return perSm_[sm.id()].ready; }

    /** Ready estimate of pending @p cta (kNoCycle: none), for stall
     * dumps. */
    virtual Cycle readyCycle(const Sm &sm, const Cta &cta) const;

  protected:
    /** Sizes the per-SM state; a policy's onBind() calls it first. */
    void onBind() override;

    /** What could take a fully stalled CTA's place (Sec. IV-A). None of
     * it depends on which CTA stalled. */
    struct SwitchPartner
    {
        bool canGrow = false;        ///< a fresh grid CTA may launch
        Cta *readyPending = nullptr; ///< soonest ready pending CTA
        /** Room to demote the stalled CTA to a second pending tier, if
         * the stall passes worthDemoting (Reg+DRAM's DRAM tier). */
        bool demote = false;
        explicit operator bool() const
        {
            return canGrow || readyPending || demote;
        }
    };

    /** One tick on @p sm: fill free active slots, then switch. */
    template <typename Self>
    void
    switchingTick(Self &self, Sm &sm, Cycle now)
    {
        perSm_[sm.id()].depleted = false;
        fillActiveSlots(self, sm, now);
        switchStalledCtas(self, sm, now);
    }

    /** Register-file depletion blocked runnable work this tick. */
    void markDepleted(const Sm &sm) { perSm_[sm.id()].depleted = true; }

    /** Pending @p cta, its context reclaimed, leaves the ready queue and
     * resumes; its warps may issue @p latency cycles from now. */
    template <typename Self>
    void
    resume(Self &self, Sm &sm, Cta &cta, Cycle now, Cycle latency)
    {
        mutableReadyOf(sm).erase(cta);
        sm.resumeCta(cta, now, latency);
        self.onResumed(sm, cta, now + latency);
    }

    /** Launch the next grid CTA and give it its registers. */
    template <typename Self>
    Cta &
    launch(Self &self, Sm &sm, Cycle now)
    {
        Cta &cta = *sm.launchCta(dispatcher().pop(), now);
        self.onLaunched(sm, cta);
        return cta;
    }

    /** A fresh grid CTA takes a switched-out CTA's slot. */
    template <typename Self>
    void
    launchIntoSlot(Self &self, Sm &sm, Cycle now)
    {
        for (auto &warp : launch(self, sm, now).warps())
            warp->setEarliestIssue(now + switchLatency());
    }

    // Hooks with their defaults. A policy must also supply
    // onLaunched(Sm &, Cta &) and
    // switchOut(Sm &, Cta &stalled, const SwitchPartner &, Cycle).
    /** False ends the slot fill (FineReg: no room for an ACRF
     * allocation, which every fill branch needs). */
    bool canFill(const Sm &) const { return true; }
    /** Register room for a fresh CTA. */
    bool hasLaunchRoom(const Sm &) const { return true; }
    /** A last grant a fresh CTA may be refused after the room tests
     * (RegMutex's SRP); a refusal in the fill is a depletion stall. */
    bool grantsLaunch(const Sm &) const { return true; }
    /** Bring a pending CTA's context back before it resumes; false
     * (nothing changed) refuses the resume. */
    bool reclaimContext(Sm &, Cta &) { return true; }
    /** After Sm::resumeCta; the CTA's warps wake at the given cycle. */
    void onResumed(Sm &, Cta &, Cycle) {}
    /** Wake latency of a resume in the fill. */
    Cycle fillResumeLatency() const { return switchLatency(); }
    /** Fill: resume a ready CTA from a second pending tier, after the
     * ready queue and before launches. */
    bool resumeSecondTier(Sm &, Cycle) { return false; }
    /** The CTA-independent and per-CTA halves of a demotion partner. */
    bool demoteRoom(const Sm &, Cycle) const { return false; }
    bool worthDemoting(const Sm &, Cycle, Cycle) const { return false; }
    /** Scan counters: stalled CTAs found, partner tests failed. */
    void countStalled(std::size_t) {}
    void countNoPartner() {}

    /** Fixed cost of a context switch (pipeline drain + context parking,
     * after VT's switching logic); 0 under the zero-latency ablation. */
    Cycle switchLatency() const;

    /** True once the pending set is large enough to hide stalls:
     * pendingGrowthFactor times the CTAs a conventional GPU keeps active
     * for this kernel. Growth beyond it only enlarges the cache working
     * set. */
    bool pendingSaturated(const Sm &sm) const;

    /** Grid work, shared memory, register room and residency headroom
     * admit a fresh CTA. */
    template <typename Self>
    bool
    canLaunch(const Self &self, const Sm &sm) const
    {
        return dispatcher().hasWork() &&
               sm.shmemFree() >= sm.context().kernel().shmemPerCta() &&
               self.hasLaunchRoom(sm) && sm.hasResidencyHeadroom();
    }

    /** Auditor: each Pending CTA sits in exactly one of @p queues, no
     * other CTA sits in any, and each is in (ready, launchSeq) order. */
    void auditReadyQueues(
        const Sm &sm, Cycle now,
        std::initializer_list<const ReadyQueue *> queues) const;

  private:
    template <typename Self>
    SwitchPartner
    findPartner(const Self &self, const Sm &sm, Cycle now) const
    {
        SwitchPartner partner;
        partner.canGrow = canLaunch(self, sm) && !pendingSaturated(sm);
        partner.readyPending = readyOf(sm).best(now);
        partner.demote = self.demoteRoom(sm, now);
        return partner;
    }

    /** Resume ready pending CTAs, then launch at most two grid CTAs;
     * with nothing ready and nothing launched, resume the soonest
     * pending CTA so the SM never idles. */
    template <typename Self>
    void
    fillActiveSlots(Self &self, Sm &sm, Cycle now)
    {
        const ReadyQueue &ready = readyOf(sm);
        unsigned launched = 0;
        while (sm.canActivateCta() && self.canFill(sm)) {
            if (Cta *pending = ready.best(now)) {
                if (!self.reclaimContext(sm, *pending)) {
                    markDepleted(sm);
                    break;
                }
                resume(self, sm, *pending, now, self.fillResumeLatency());
                continue;
            }
            if (self.resumeSecondTier(sm, now))
                continue;
            if (launched < 2 && canLaunch(self, sm)) {
                if (!self.grantsLaunch(sm)) {
                    markDepleted(sm);
                    break;
                }
                launch(self, sm, now);
                ++launched;
                continue;
            }
            if (launched > 0) // more launches follow next cycle
                break;
            Cta *pending = ready.best(kNoCycle - 1);
            if (!pending || !self.reclaimContext(sm, *pending))
                break;
            resume(self, sm, *pending, now, self.fillResumeLatency());
        }
    }

    /** Partner first: without a partner no stalled CTA can leave, so the
     * scan is skipped. Each switch changes what the test reads, so it
     * runs again before each; a failed test changes no state, so it
     * fails for every later CTA too and the loop stops. */
    template <typename Self>
    void
    switchStalledCtas(Self &self, Sm &sm, Cycle now)
    {
        const auto would_switch = [&](Cta &cta) {
            const SwitchPartner p = findPartner(self, sm, now);
            return p.canGrow || p.readyPending ||
                   (p.demote &&
                    self.worthDemoting(sm, cta.estimateReadyCycle(now), now));
        };
        if (!findPartner(self, sm, now)) {
            self.countNoPartner();
            checkNoSwitchMissed(sm, now, would_switch);
            return;
        }
        const std::vector<Cta *> &stalled = collectStalledCtas(sm, now);
        self.countStalled(stalled.size());
        for (Cta *cta : stalled) {
            const SwitchPartner partner = findPartner(self, sm, now);
            if (!partner) {
                self.countNoPartner();
                checkNoSwitchMissed(sm, now, would_switch);
                break;
            }
            self.switchOut(sm, *cta, partner, now);
        }
    }

    /** Active CTAs whose warps are all blocked on global memory this
     * cycle (Sec. IV-A's switch candidates), in launch order. The
     * reference is to a scratch vector, valid until the next call. */
    const std::vector<Cta *> &collectStalledCtas(Sm &sm, Cycle now) const;

    /** Debug builds only: the partner test just failed on @p sm, so no
     * stalled CTA may pass the full per-CTA test @p would_switch. */
    template <typename WouldSwitch>
    void
    checkNoSwitchMissed(Sm &sm, Cycle now, WouldSwitch &&would_switch) const
    {
#ifndef NDEBUG
        for (Cta *cta : collectStalledCtas(sm, now)) {
            if (would_switch(*cta))
                panicMissedSwitch(sm, *cta, now);
        }
#else
        (void)sm;
        (void)now;
        (void)would_switch;
#endif
    }

    [[noreturn]] void panicMissedSwitch(const Sm &sm, const Cta &cta,
                                        Cycle now) const;

    struct PerSm
    {
        ReadyQueue ready;
        bool depleted = false;
    };
    std::vector<PerSm> perSm_;

    /** pendingSaturated's threshold, a pure function of the kernel and
     * the SM config, so computed once (0 = not yet). */
    mutable double saturationPoint_ = 0;

    mutable std::vector<Cta *> stalledScratch_;
};

} // namespace finereg

#endif // FINEREG_POLICIES_SWITCHING_POLICY_HH
