#include "mem/auditor.hh"

#include <algorithm>

#include "mem/scanner.hh"

namespace ctg
{

std::string
AuditReport::summary(std::size_t limit) const
{
    if (violations.empty())
        return "audit clean";
    std::string out = detail::formatMessage(
        "%zu violation(s):", violations.size());
    const std::size_t shown = std::min(limit, violations.size());
    for (std::size_t i = 0; i < shown; ++i) {
        out += "\n  ";
        out += violations[i];
    }
    if (shown < violations.size())
        out += "\n  ...";
    return out;
}

MemAuditor::MemAuditor(const PhysMem &mem)
    : mem_(mem)
{
}

void
MemAuditor::addAllocator(const BuddyAllocator *alloc)
{
    ctg_assert(alloc != nullptr);
    allocators_.push_back(alloc);
}

void
MemAuditor::addCheck(std::string name, Check check)
{
    ctg_assert(check != nullptr);
    checks_.emplace_back(std::move(name), std::move(check));
}

void
MemAuditor::auditCoverage(const BuddyAllocator &alloc,
                          AuditReport &report) const
{
    const FrameArray &frames = mem_.frames();
    const char *name = alloc.name().c_str();
    const Pfn end = alloc.endPfn();
    std::uint64_t walk_free = 0;

    Pfn pfn = alloc.startPfn();
    while (pfn < end) {
        const auto head = frames.frame(pfn);
        if (!head.isHead()) {
            // Resync at the next head so one corrupt frame does not
            // cascade into a violation per page.
            const Pfn gap_start = pfn;
            while (pfn < end && !frames.frame(pfn).isHead())
                ++pfn;
            report.violation(
                "%s: frames [%llu, %llu) belong to no block head",
                name, static_cast<unsigned long long>(gap_start),
                static_cast<unsigned long long>(pfn));
            continue;
        }

        Pfn span = Pfn{1} << head.order();
        if (pfn + span > end) {
            report.violation(
                "%s: block at %llu order %u overruns coverage end "
                "%llu", name, static_cast<unsigned long long>(pfn),
                unsigned(head.order()),
                static_cast<unsigned long long>(end));
            span = end - pfn;
        }

        if (head.isFree()) {
            walk_free += span;
            if (head.isPinned())
                report.violation("%s: free head %llu is pinned", name,
                                 static_cast<unsigned long long>(pfn));
            for (Pfn p = pfn + 1; p < pfn + span; ++p) {
                const auto f = frames.frame(p);
                if (!f.isFree() || f.isHead() || f.isPinned()) {
                    report.violation(
                        "%s: member %llu of free block %llu has "
                        "flags %u", name,
                        static_cast<unsigned long long>(p),
                        static_cast<unsigned long long>(pfn),
                        unsigned(f.flags()));
                }
            }
            // MIGRATE_ISOLATE coherence: a free block sits on the
            // Isolate list exactly when its pageblocks are tagged
            // Isolate. (General list-vs-pageblock tag agreement is
            // NOT an invariant — frees list by the head's pageblock
            // and order-10 blocks span two pageblocks — but
            // isolation boundaries are maxOrder-aligned, so Isolate
            // tagging is uniform across any free block.)
            std::uint64_t isolated_blocks = 0, total_blocks = 0;
            for (Pfn p = pfn; p < pfn + span; p += pagesPerHuge) {
                ++total_blocks;
                if (mem_.blockMt(p) == MigrateType::Isolate)
                    ++isolated_blocks;
            }
            if (span >= pagesPerHuge && isolated_blocks != 0 &&
                isolated_blocks != total_blocks) {
                report.violation(
                    "%s: free block %llu straddles the isolation "
                    "boundary", name,
                    static_cast<unsigned long long>(pfn));
            }
            const bool on_isolate_list =
                head.migrateType() == MigrateType::Isolate;
            const bool in_isolated_block =
                mem_.blockMt(pfn) == MigrateType::Isolate;
            if (on_isolate_list != in_isolated_block) {
                report.violation(
                    "%s: free block %llu on %s list but pageblock "
                    "tagged %s", name,
                    static_cast<unsigned long long>(pfn),
                    migrateTypeName(head.migrateType()),
                    migrateTypeName(mem_.blockMt(pfn)));
            }
        } else {
            for (Pfn p = pfn + 1; p < pfn + span; ++p) {
                const auto f = frames.frame(p);
                if (f.isFree() || f.isHead() ||
                    f.order() != head.order()) {
                    report.violation(
                        "%s: member %llu of allocated block %llu "
                        "disagrees with its head (flags %u order %u)",
                        name, static_cast<unsigned long long>(p),
                        static_cast<unsigned long long>(pfn),
                        unsigned(f.flags()), unsigned(f.order()));
                }
            }
        }
        pfn += span;
    }

    // Page conservation: the frame walk and the free lists must
    // account the same number of free pages.
    if (walk_free != alloc.freePageCount()) {
        report.violation(
            "%s: frame walk sees %llu free pages but free lists "
            "account %llu", name,
            static_cast<unsigned long long>(walk_free),
            static_cast<unsigned long long>(alloc.freePageCount()));
    }
}

void
MemAuditor::auditTiling(AuditReport &report) const
{
    std::vector<std::pair<Pfn, Pfn>> spans;
    for (const BuddyAllocator *alloc : allocators_) {
        if (alloc->startPfn() != alloc->endPfn())
            spans.emplace_back(alloc->startPfn(), alloc->endPfn());
    }
    std::sort(spans.begin(), spans.end());

    Pfn cursor = 0;
    for (const auto &[lo, hi] : spans) {
        if (lo < cursor) {
            report.violation(
                "coverages overlap at [%llu, %llu)",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(std::min(cursor, hi)));
        } else if (requireFullCoverage_ && lo != cursor) {
            report.violation(
                "frames [%llu, %llu) belong to no allocator",
                static_cast<unsigned long long>(cursor),
                static_cast<unsigned long long>(lo));
        }
        cursor = std::max(cursor, hi);
    }
    if (cursor > mem_.numFrames()) {
        report.violation(
            "coverage end %llu exceeds physical memory %llu",
            static_cast<unsigned long long>(cursor),
            static_cast<unsigned long long>(mem_.numFrames()));
    } else if (requireFullCoverage_ && cursor != mem_.numFrames()) {
        report.violation(
            "frames [%llu, %llu) belong to no allocator",
            static_cast<unsigned long long>(cursor),
            static_cast<unsigned long long>(mem_.numFrames()));
    }
}

void
MemAuditor::auditContigIndex(AuditReport &report) const
{
    const ContigIndex &index = mem_.contigIndex();
    const Pfn n = mem_.numFrames();

    // Machine-wide page counters against one reference frame walk.
    std::uint64_t free_pages = 0, unmovable = 0, pinned = 0;
    std::array<std::uint64_t, numAllocSources> by_source{};
    for (Pfn pfn = 0; pfn < n; ++pfn) {
        const auto f = mem_.frame(pfn);
        if (f.isFree()) {
            ++free_pages;
            continue;
        }
        if (f.isPinned())
            ++pinned;
        if (f.isUnmovableAllocation()) {
            ++unmovable;
            ++by_source[static_cast<unsigned>(f.source())];
        }
    }
    const auto mismatch = [&report](const char *what,
                                    std::uint64_t index_value,
                                    std::uint64_t scan_value) {
        if (index_value == scan_value)
            return;
        report.violation(
            "contig index %s = %llu but reference scan sees %llu",
            what, static_cast<unsigned long long>(index_value),
            static_cast<unsigned long long>(scan_value));
    };
    mismatch("free_pages", index.freePages(), free_pages);
    mismatch("unmovable_pages", index.unmovablePages(), unmovable);
    mismatch("pinned_pages", index.pinnedPages(), pinned);
    for (unsigned src = 0; src < numAllocSources; ++src) {
        mismatch(allocSourceName(static_cast<AllocSource>(src)),
                 index.unmovableBySource()[src], by_source[src]);
    }

    // Per-order block counters: every order below the pageblock
    // (1-6 come from the bit-plane words, 7-8 from the tree levels
    // folded straight from them) plus the orders the figures report.
    const unsigned orders[] = {1, 2, 3, 4, 5, 6, 7, 8, scan::order2M,
                               scan::order4M, scan::order32M,
                               scan::order1G};
    for (const unsigned order : orders) {
        mismatch("fully_free_blocks",
                 index.fullyFreeBlocks(order),
                 scan::reference::freeAlignedBlocks(mem_, 0, n,
                                                    order));
        mismatch("tainted_blocks", index.taintedBlocks(order),
                 scan::reference::unmovableAlignedBlocks(mem_, 0, n,
                                                         order));
    }

    // One interior subrange, exercising the tree-node query path.
    const Pfn span = Pfn{1} << scan::order2M;
    const Pfn lo = (n / 4) & ~(span - 1);
    const Pfn hi = (3 * n / 4) & ~(span - 1);
    if (lo < hi) {
        mismatch("subrange fully_free_blocks",
                 index.fullyFreeBlocksIn(lo, hi, scan::order2M),
                 scan::reference::freeAlignedBlocks(mem_, lo, hi,
                                                    scan::order2M));
        mismatch("subrange free_pages", index.freePagesIn(lo, hi),
                 scan::reference::freePages(mem_, lo, hi));
    }

    // Descent-query cross-check (DESIGN.md §12): the mixed-pageblock
    // enumeration the compaction hot path relies on must agree with a
    // reference classification of every pageblock, and the per-block
    // class counts must re-derive from the frames.
    std::uint64_t mixed_blocks = 0;
    Pfn enumerated = index.firstMixedBlock(0, n);
    for (Pfn block = 0; block < n; block += pagesPerHuge) {
        const Pfn block_end = std::min<Pfn>(block + pagesPerHuge, n);
        std::uint64_t b_free = 0, b_unmov = 0, b_pinned = 0;
        for (Pfn pfn = block; pfn < block_end; ++pfn) {
            const auto f = mem_.frame(pfn);
            if (f.isFree())
                ++b_free;
            else if (f.isUnmovableAllocation())
                ++b_unmov;
            if (!f.isFree() && f.isPinned())
                ++b_pinned;
        }
        const std::uint64_t b_movable =
            (block_end - block) - b_free - b_unmov;
        const ContigIndex::BlockClass cls = index.blockClass(block);
        mismatch("blockClass.free", cls.free, b_free);
        mismatch("blockClass.unmovable", cls.unmovable, b_unmov);
        mismatch("blockClass.pinned", cls.pinned, b_pinned);
        mismatch("blockClass.movableAlloc", cls.movableAlloc,
                 b_movable);
        if (b_free > 0 && b_movable > 0) {
            ++mixed_blocks;
            if (enumerated != block) {
                report.violation(
                    "contig index mixed-block enumeration yields "
                    "%llu where reference scan sees mixed block %llu",
                    static_cast<unsigned long long>(enumerated),
                    static_cast<unsigned long long>(block));
            }
            if (enumerated != invalidPfn)
                enumerated = index.nextMixedBlock(enumerated, n);
        }
    }
    if (enumerated != invalidPfn) {
        report.violation(
            "contig index mixed-block enumeration continues at %llu "
            "past the last reference mixed block",
            static_cast<unsigned long long>(enumerated));
    }
    mismatch("mixed_blocks", index.mixedBlocksIn(0, n), mixed_blocks);
}

AuditReport
MemAuditor::audit() const
{
    AuditReport report;

    for (const BuddyAllocator *alloc : allocators_) {
        std::vector<std::string> list_violations;
        alloc->auditFreeLists(list_violations);
        for (std::string &msg : list_violations) {
            if (report.violations.size() < AuditReport::maxViolations)
                report.violations.push_back(std::move(msg));
        }
        ++report.checksRun;

        auditCoverage(*alloc, report);
        ++report.checksRun;
    }

    auditTiling(report);
    ++report.checksRun;

    auditContigIndex(report);
    ++report.checksRun;

    for (const auto &[name, check] : checks_) {
        const std::size_t before = report.violations.size();
        check(report);
        ++report.checksRun;
        // Attribute new violations to the check that found them.
        for (std::size_t i = before; i < report.violations.size(); ++i)
            report.violations[i] = name + ": " + report.violations[i];
    }

    ++stats_.audits;
    stats_.violations += report.violations.size();
    return report;
}

void
MemAuditor::auditOrDie() const
{
    const AuditReport report = audit();
    if (!report.ok())
        panic("memory audit failed: %s", report.summary().c_str());
}

void
MemAuditor::schedulePeriodic(EventQueue &eventq, Tick period,
                             std::uint64_t count)
{
    if (count == 0)
        return;
    eventq.schedule(
        period,
        [this, &eventq, period, count] {
            auditOrDie();
            schedulePeriodic(eventq, period, count - 1);
        },
        EventPriority::Maintenance);
}

void
MemAuditor::regStats(StatGroup group) const
{
    group.gauge("audits", [this] { return double(stats_.audits); },
                "system-wide invariant audits run");
    group.gauge("violations",
                [this] { return double(stats_.violations); },
                "cumulative violations found (0 in a healthy run)");
}

} // namespace ctg
