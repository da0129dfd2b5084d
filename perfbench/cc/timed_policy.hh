/**
 * @file
 * Timing decorator at the MemPolicy boundary: forwards every hook to
 * the wrapped policy and folds alloc/free/tick/pin into the tracer.
 * installTimedPolicies() re-registers the "vanilla" and
 * "contiguitas" registry entries with this wrapper around their own
 * factories, so servers and kernels built by name afterwards are
 * timed without any change to the simulator.
 */

#ifndef PERFBENCH_TIMED_POLICY_HH
#define PERFBENCH_TIMED_POLICY_HH

#include <memory>
#include <utility>

#include "base/logging.hh"
#include "contiguitas/policy_registry.hh"
#include "kernel/policy.hh"
#include "tracer.hh"

namespace perfbench
{

class TimedPolicy final : public ctg::MemPolicy
{
  public:
    explicit TimedPolicy(std::unique_ptr<ctg::MemPolicy> inner)
        : inner_(std::move(inner))
    {}

    ctg::Pfn
    alloc(const ctg::AllocRequest &req) override
    {
        const HotScope timed(Hot::PolicyAlloc);
        const ctg::Pfn pfn = inner_->alloc(req);
        if (pfn == ctg::invalidPfn)
            Tracer::instance().countAllocFail();
        return pfn;
    }

    void
    free(ctg::Pfn head) override
    {
        const HotScope timed(Hot::PolicyFree);
        inner_->free(head);
    }

    ctg::Pfn
    allocGigantic(ctg::AllocSource src, std::uint64_t owner) override
    {
        return inner_->allocGigantic(src, owner);
    }

    ctg::Pfn
    pin(ctg::Pfn head) override
    {
        const HotScope timed(Hot::PolicyPin);
        return inner_->pin(head);
    }

    void unpin(ctg::Pfn head) override { inner_->unpin(head); }

    void
    tick(std::uint32_t now_seconds) override
    {
        const HotScope timed(Hot::PolicyTick);
        inner_->tick(now_seconds);
    }

    ctg::AddrPref
    placementPref(const ctg::AllocRequest &req) const override
    {
        return inner_->placementPref(req);
    }
    ctg::AddrPref
    pinPlacementPref() const override
    {
        return inner_->pinPlacementPref();
    }
    unsigned
    compactUntilTarget(unsigned requested) const override
    {
        return inner_->compactUntilTarget(requested);
    }
    std::uint64_t
    defragBudgetPerTick() const override
    {
        return inner_->defragBudgetPerTick();
    }
    bool
    hasPendingMaintenance() const override
    {
        return inner_->hasPendingMaintenance();
    }
    std::uint64_t
    freeUserPages() const override
    {
        return inner_->freeUserPages();
    }
    std::uint64_t
    freeKernelPages() const override
    {
        return inner_->freeKernelPages();
    }
    std::pair<ctg::Pfn, ctg::Pfn>
    unmovableRegion() const override
    {
        return inner_->unmovableRegion();
    }
    ctg::BuddyAllocator &
    movableAllocator() override
    {
        return inner_->movableAllocator();
    }
    ctg::PhysMem &mem() override { return inner_->mem(); }
    void
    regStats(ctg::StatGroup group) const override
    {
        inner_->regStats(group);
    }
    void
    attachAuditorChecks(ctg::MemAuditor &auditor) override
    {
        inner_->attachAuditorChecks(auditor);
    }
    void
    saveTo(ctg::serde::Writer &out) const override
    {
        inner_->saveTo(out);
    }

  private:
    std::unique_ptr<ctg::MemPolicy> inner_;
};

/** Re-add the "vanilla" and "contiguitas" entries wrapped in
 * TimedPolicy (make and restore alike). */
inline void
installTimedPolicies()
{
    ctg::PolicyRegistry &registry = ctg::PolicyRegistry::instance();
    for (const char *name : {"vanilla", "contiguitas"}) {
        ctg::PolicyRegistry::Entry entry;
        if (!registry.find(name, &entry))
            ctg::fatal("policy '%s' is not registered", name);
        ctg::PolicyRegistry::Entry timed = entry;
        timed.make = [make = entry.make](ctg::Kernel &kernel,
                                         const ctg::PolicyConfig &c) {
            return std::unique_ptr<ctg::MemPolicy>(
                std::make_unique<TimedPolicy>(make(kernel, c)));
        };
        timed.restore = [restore = entry.restore](
                            ctg::Kernel &kernel,
                            const ctg::PolicyConfig &c,
                            ctg::serde::Reader &in) {
            return std::unique_ptr<ctg::MemPolicy>(
                std::make_unique<TimedPolicy>(restore(kernel, c, in)));
        };
        registry.add(std::move(timed));
    }
}

} // namespace perfbench

#endif // PERFBENCH_TIMED_POLICY_HH
