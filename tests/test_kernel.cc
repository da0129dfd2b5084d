/**
 * @file
 * Kernel substrate tests: PSI, slab, page tables, address spaces,
 * compaction, churn pools, netstack and reclaim.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "base/rng.hh"
#include "base/serde.hh"
#include "base/units.hh"
#include "kernel/addrspace.hh"
#include "kernel/churn.hh"
#include "kernel/compaction.hh"
#include "kernel/fsbuffers.hh"
#include "kernel/kernel.hh"
#include "kernel/netstack.hh"
#include "kernel/pagetable.hh"
#include "kernel/psi.hh"
#include "kernel/slab.hh"
#include "kernel/vanilla_policy.hh"
#include "mem/mem_stats.hh"
#include "mem/scanner.hh"

namespace ctg
{
namespace
{

KernelConfig
smallConfig()
{
    KernelConfig config;
    config.memBytes = 256_MiB;
    config.kernelTextBytes = 4_MiB;
    return config;
}

TEST(Psi, NoStallMeansZeroPressure)
{
    Psi psi;
    psi.advanceTo(1e6);
    EXPECT_DOUBLE_EQ(psi.pressure(), 0.0);
}

TEST(Psi, FullStallSaturatesNearHundred)
{
    Psi psi;
    for (int i = 1; i <= 20; ++i) {
        psi.recordStall(1e6);
        psi.advanceTo(i * 1e6);
    }
    EXPECT_GT(psi.pressure(), 95.0);
    EXPECT_LE(psi.pressure(), 100.0);
}

TEST(Psi, PressureDecaysAfterStallStops)
{
    Psi psi;
    psi.recordStall(5e5);
    psi.advanceTo(1e6);
    const double peak = psi.pressure();
    EXPECT_GT(peak, 0.0);
    psi.advanceTo(61e6); // a minute of calm
    EXPECT_LT(psi.pressure(), peak / 4.0);
}

TEST(Psi, StallClampedToInterval)
{
    Psi psi;
    psi.recordStall(10e6); // more stall than wall-clock
    psi.advanceTo(1e6);
    EXPECT_LE(psi.pressure(), 100.0);
}

TEST(KernelFacade, BootPlacesKernelText)
{
    Kernel kernel(smallConfig());
    const auto counts = kernel.mem().stats().unmovableBySource(
        0, kernel.mem().numFrames());
    const auto text_pages =
        counts[static_cast<unsigned>(AllocSource::KernelText)];
    EXPECT_EQ(text_pages, (4_MiB) / pageBytes);
}

TEST(KernelFacade, ReclaimInvokedOnFailure)
{
    class CountingShrinker : public Shrinker
    {
      public:
        std::uint64_t calls = 0;

        std::uint64_t
        shrink(std::uint64_t) override
        {
            ++calls;
            return 0;
        }
    };

    Kernel kernel(smallConfig());
    CountingShrinker shrinker;
    kernel.registerShrinker(&shrinker);

    // Exhaust memory.
    std::vector<Pfn> held;
    while (true) {
        AllocRequest req;
        req.order = maxOrder;
        req.mt = MigrateType::Movable;
        const Pfn p = kernel.allocPages(req);
        if (p == invalidPfn)
            break;
        held.push_back(p);
    }
    EXPECT_GT(shrinker.calls, 0u);
    EXPECT_GT(kernel.counters().allocFailures, 0u);
    for (const Pfn p : held)
        kernel.freePages(p);
}

TEST(Slab, ObjectRoundTrip)
{
    Kernel kernel(smallConfig());
    SlabAllocator slab(kernel);
    const auto handle = slab.allocObject(100);
    ASSERT_NE(handle, 0u);
    EXPECT_EQ(slab.liveObjects(), 1u);
    EXPECT_GE(slab.backingPages(), 1u);
    slab.freeObject(handle);
    EXPECT_EQ(slab.liveObjects(), 0u);
}

TEST(Slab, PacksObjectsOntoOnePage)
{
    Kernel kernel(smallConfig());
    SlabAllocator slab(kernel);
    std::vector<SlabAllocator::ObjHandle> handles;
    for (int i = 0; i < 32; ++i)
        handles.push_back(slab.allocObject(64));
    // 32 64-byte objects fit in one 4 KB page.
    EXPECT_EQ(slab.backingPages(), 1u);
    for (const auto h : handles)
        slab.freeObject(h);
}

TEST(Slab, OneLiveObjectPinsThePage)
{
    Kernel kernel(smallConfig());
    SlabAllocator slab(kernel);
    std::vector<SlabAllocator::ObjHandle> handles;
    for (int i = 0; i < 64; ++i)
        handles.push_back(slab.allocObject(64));
    const std::uint64_t pages_before = slab.backingPages();
    // Free all but one object: the backing page must stay.
    for (std::size_t i = 1; i < handles.size(); ++i)
        slab.freeObject(handles[i]);
    EXPECT_EQ(slab.backingPages(), pages_before);
    slab.freeObject(handles[0]);
}

TEST(Slab, ShrinkerReleasesCachedSlabs)
{
    Kernel kernel(smallConfig());
    SlabAllocator slab(kernel);
    std::vector<SlabAllocator::ObjHandle> handles;
    for (int i = 0; i < 4096; ++i)
        handles.push_back(slab.allocObject(512));
    for (const auto h : handles)
        slab.freeObject(h);
    // Empty slabs are cached until shrunk.
    EXPECT_GT(slab.backingPages(), 0u);
    slab.shrink(~std::uint64_t{0});
    EXPECT_EQ(slab.backingPages(), 0u);
}

TEST(Slab, DistinctHandlesWhileLive)
{
    Kernel kernel(smallConfig());
    SlabAllocator slab(kernel);
    std::set<SlabAllocator::ObjHandle> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto h = slab.allocObject(192);
        EXPECT_TRUE(seen.insert(h).second);
    }
}

TEST(PageTablesTest, MapTranslateUnmap)
{
    Kernel kernel(smallConfig());
    PageTables tables(kernel);
    ASSERT_TRUE(tables.map(0x1000, 777, 0));
    const Translation t = tables.translate(0x1000);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.pfn, 777u);
    EXPECT_EQ(t.order, 0u);
    EXPECT_TRUE(tables.unmap(0x1000));
    EXPECT_FALSE(tables.translate(0x1000).valid);
}

TEST(PageTablesTest, HugeLeafCoversRange)
{
    Kernel kernel(smallConfig());
    PageTables tables(kernel);
    ASSERT_TRUE(tables.map(0, 4096, hugeOrder));
    const Translation t = tables.translate(300);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.order, hugeOrder);
    EXPECT_EQ(t.pfn, 4096u + 300u);
}

TEST(PageTablesTest, GiganticLeaf)
{
    Kernel kernel(smallConfig());
    PageTables tables(kernel);
    ASSERT_TRUE(tables.map(0, 0, gigaOrder));
    const Translation t = tables.translate(pagesPerGiga - 1);
    ASSERT_TRUE(t.valid);
    EXPECT_EQ(t.order, gigaOrder);
    EXPECT_EQ(t.pfn, pagesPerGiga - 1);
}

TEST(PageTablesTest, TablePagesAreUnmovableAllocations)
{
    Kernel kernel(smallConfig());
    const auto before = kernel.mem().stats().unmovableBySource(
        0, kernel.mem().numFrames());
    PageTables tables(kernel);
    // Map sparse addresses to force distinct table paths.
    for (Vpn vpn = 0; vpn < 8; ++vpn)
        ASSERT_TRUE(tables.map(vpn << 27, 1, 0));
    const auto after = kernel.mem().stats().unmovableBySource(
        0, kernel.mem().numFrames());
    const auto idx = static_cast<unsigned>(AllocSource::PageTables);
    EXPECT_GT(after[idx], before[idx]);
    EXPECT_EQ(after[idx] - before[idx], tables.tablePages());
}

TEST(PageTablesTest, WalkDepthVariesWithPageSize)
{
    Kernel kernel(smallConfig());
    PageTables tables(kernel);
    ASSERT_TRUE(tables.map(0, 1, 0));
    ASSERT_TRUE(tables.map(pagesPerGiga, 4096, hugeOrder));
    EXPECT_EQ(tables.walk(0).depth, 4u);
    EXPECT_EQ(tables.walk(pagesPerGiga).depth, 3u);
}

// ---------------------------------------------------------------
// PageTables against a plain reference model
// ---------------------------------------------------------------

/** What the radix tree should map at one head vpn. */
struct RefLeaf
{
    Pfn pfn;
    unsigned order;
};

/**
 * Reference model of one PageTables: the leaves by head vpn, plus the
 * table pages a 4-level radix tree must hold for them. A PUD, PMD or
 * PT page is keyed by the vpn prefix it covers (vpn >> 27, >> 18,
 * >> 9); it lives from the first map beneath it until a huge map over
 * its empty range retires it in place (unmap never frees one).
 */
struct RefTables
{
    std::map<Vpn, RefLeaf> leaves;
    std::set<Vpn> pud, pmd, pt;

    std::map<Vpn, RefLeaf>::iterator
    covering(Vpn vpn)
    {
        auto it = leaves.upper_bound(vpn);
        if (it == leaves.begin())
            return leaves.end();
        --it;
        return vpn - it->first < (Vpn{1} << it->second.order)
                   ? it
                   : leaves.end();
    }

    bool
    anyLeafIn(Vpn lo, Vpn hi) const
    {
        const auto it = leaves.lower_bound(lo);
        return it != leaves.end() && it->first < hi;
    }

    /** Legal map: nothing mapped in the way, and any table the leaf
     * replaces is empty. */
    bool
    canMap(Vpn vpn, unsigned order)
    {
        const Vpn span = Vpn{1} << order;
        if (covering(vpn) != leaves.end() || anyLeafIn(vpn, vpn + span))
            return false;
        if (order == gigaOrder && pmd.count(vpn >> gigaOrder)) {
            const Vpn lo = vpn >> hugeOrder;
            const auto it = pt.lower_bound(lo);
            return it == pt.end() || *it >= lo + pagesPerHuge;
        }
        return true;
    }

    void
    map(Vpn vpn, Pfn pfn, unsigned order)
    {
        pud.insert(vpn >> 27);
        if (order <= hugeOrder)
            pmd.insert(vpn >> gigaOrder);
        if (order == 0)
            pt.insert(vpn >> hugeOrder);
        else if (order == hugeOrder)
            pt.erase(vpn >> hugeOrder);
        else
            pmd.erase(vpn >> gigaOrder);
        leaves[vpn] = RefLeaf{pfn, order};
    }

    std::uint64_t
    tablePages() const
    {
        return 1 + pud.size() + pmd.size() + pt.size();
    }

    /** Levels a hardware walk of vpn must read. */
    unsigned
    walkDepth(Vpn vpn)
    {
        const auto it = covering(vpn);
        if (it != leaves.end())
            return 4 - it->second.order / PageTables::bitsPerLevel;
        return 1 + pud.count(vpn >> 27) + pmd.count(vpn >> gigaOrder) +
               pt.count(vpn >> hugeOrder);
    }
};

KernelConfig
gigaConfig()
{
    // Room for 1 GB leaves: the loader rejects leaves past the end of
    // memory.
    KernelConfig config;
    config.memBytes = 1_GiB + 64_MiB;
    config.kernelTextBytes = 4_MiB;
    return config;
}

/** saveTo bytes of `tables` after a load into a restored copy of
 * `kernel` (whose frame table holds the same live table pages, so
 * the copy's teardown frees them legally). */
std::vector<std::uint8_t>
reloadedImage(const Kernel &kernel, const PageTables &tables)
{
    serde::Writer kernelImage;
    kernel.saveTo(kernelImage);
    serde::Reader kernelIn(kernelImage.bytes());
    Kernel copy(
        kernel.config(),
        [&kernelIn](Kernel &k) -> std::unique_ptr<MemPolicy> {
            return std::make_unique<VanillaPolicy>(k.mem(), kernelIn);
        },
        kernelIn);

    serde::Writer image;
    tables.saveTo(image);
    serde::Reader in(image.bytes());
    const PageTables loaded(copy, in);
    EXPECT_TRUE(in.atEnd());
    serde::Writer again;
    loaded.saveTo(again);
    return again.take();
}

TEST(PageTablesProperty, MatchesReferenceModelUnderRandomOps)
{
    Kernel kernel(gigaConfig());
    const Pfn frames = kernel.mem().numFrames();
    PageTables tables(kernel);
    RefTables ref;
    Rng rng(0x9a9e7ab1e5);

    // A few gigabytes under two root slots, with few 2 MB ranges per
    // gigabyte so maps, unmaps and retirements collide often. 4 KB
    // leaves stay in the first three, so the others empty out now
    // and then and take 1 GB leaves.
    const Vpn gigas[] = {0, 512, 1, 2, 3, 513};
    auto randomVpn = [&](unsigned order) {
        const std::size_t choices = order == 0 ? 3 : std::size(gigas);
        const Vpn giga = gigas[rng.below(choices)] << gigaOrder;
        const Vpn huge = rng.below(4) << hugeOrder;
        return giga + huge + rng.below(pagesPerHuge);
    };
    // Mostly a vpn inside a mapped leaf, else anywhere.
    auto targetVpn = [&]() {
        if (ref.leaves.empty() || rng.chance(0.25))
            return randomVpn(hugeOrder);
        auto it = ref.leaves.begin();
        std::advance(it, rng.below(ref.leaves.size()));
        return it->first + rng.below(Vpn{1} << it->second.order);
    };
    // Backing frame of each live table page, keyed by (level, key).
    std::map<std::pair<unsigned, Vpn>, Pfn> backingOf;

    auto check = [&](Vpn probe) {
        for (unsigned i = 0; i < 4; ++i) {
            const Vpn vpn = i == 0 ? probe : randomVpn(hugeOrder);
            const Translation tr = tables.translate(vpn);
            const auto it = ref.covering(vpn);
            ASSERT_EQ(tr.valid, it != ref.leaves.end()) << vpn;
            const PageTables::Walk walk = tables.walk(vpn);
            EXPECT_EQ(walk.translation.valid, tr.valid);
            if (tr.valid) {
                EXPECT_EQ(tr.order, it->second.order);
                EXPECT_EQ(tr.pfn, it->second.pfn + (vpn - it->first));
                EXPECT_EQ(tr.level, 1 + tr.order / 9);
                EXPECT_EQ(walk.translation.pfn, tr.pfn);
                EXPECT_EQ(walk.translation.order, tr.order);
                EXPECT_EQ(walk.translation.level, tr.level);
            }
            ASSERT_EQ(walk.depth, ref.walkDepth(vpn)) << vpn;
            for (unsigned d = 0; d < walk.depth; ++d) {
                const unsigned shift = 27 - 9 * d;
                const Addr idx = (vpn >> shift) & 0x1ff;
                EXPECT_EQ(walk.addrs[d] & (pageBytes - 1), idx * 8);
                const Pfn backing = addrToPfn(walk.addrs[d]);
                const auto key = std::make_pair(
                    d, d == 0 ? Vpn{0} : vpn >> (shift + 9));
                const auto [known, fresh] =
                    backingOf.emplace(key, backing);
                EXPECT_EQ(known->second, backing);
                EXPECT_FALSE(kernel.mem().frame(backing).isFree());
                EXPECT_EQ(kernel.mem().frame(backing).source(),
                          AllocSource::PageTables);
            }
        }
        EXPECT_EQ(tables.mappings(), ref.leaves.size());
        EXPECT_EQ(tables.tablePages(), ref.tablePages());
        // Distinct live table pages sit on distinct frames.
        std::set<Pfn> backings;
        for (const auto &[key, pfn] : backingOf)
            backings.insert(pfn);
        EXPECT_EQ(backings.size(), backingOf.size());
    };
    auto forgetRetired = [&]() {
        for (auto it = backingOf.begin(); it != backingOf.end();) {
            const auto [level, key] = it->first;
            const bool live = level == 0 ||
                              (level == 1 && ref.pud.count(key)) ||
                              (level == 2 && ref.pmd.count(key)) ||
                              (level == 3 && ref.pt.count(key));
            it = live ? std::next(it) : backingOf.erase(it);
        }
    };

    unsigned maps[3] = {}, unmaps = 0, repoints = 0, retires = 0;
    for (int op = 0; op < 400; ++op) {
        const unsigned kind = static_cast<unsigned>(rng.below(10));
        Vpn vpn = targetVpn();
        if (kind < 5) {
            // Map 4K (most), 2M or 1G.
            const unsigned pick = static_cast<unsigned>(rng.below(10));
            const unsigned order =
                pick < 5 ? 0 : pick < 8 ? hugeOrder : gigaOrder;
            vpn = randomVpn(order) & ~((Vpn{1} << order) - 1);
            if (order != 0 && rng.chance(0.5)) {
                // Aim at a table page this leaf would retire.
                const std::set<Vpn> &nodes =
                    order == hugeOrder ? ref.pt : ref.pmd;
                std::vector<Vpn> retirable;
                for (const Vpn key : nodes) {
                    if (ref.canMap(key << order, order))
                        retirable.push_back(key << order);
                }
                if (!retirable.empty())
                    vpn = retirable[rng.below(retirable.size())];
            }
            if (!ref.canMap(vpn, order))
                continue;
            const Pfn pfn = rng.below(frames - (Pfn{1} << order) + 1);
            const std::uint64_t tablesBefore = tables.tablePages();
            const bool retiring =
                (order == hugeOrder && ref.pt.count(vpn >> 9)) ||
                (order == gigaOrder && ref.pmd.count(vpn >> 18));
            ASSERT_TRUE(tables.map(vpn, pfn, order));
            ref.map(vpn, pfn, order);
            if (retiring) {
                ++retires;
                EXPECT_EQ(tables.tablePages(), tablesBefore - 1);
                forgetRetired();
            }
            ++maps[order / 9];
        } else if (kind < 8) {
            // Unmap the leaf covering any vpn (huge leaves included).
            const auto it = ref.covering(vpn);
            const bool expected = it != ref.leaves.end();
            if (expected)
                ref.leaves.erase(it);
            ASSERT_EQ(tables.unmap(vpn), expected);
            unmaps += expected;
        } else {
            const Pfn to = rng.below(frames - pagesPerGiga);
            const auto it = ref.covering(vpn);
            const bool expected = it != ref.leaves.end();
            if (expected)
                it->second.pfn = to;
            ASSERT_EQ(tables.repoint(vpn, to), expected);
            repoints += expected;
        }
        ASSERT_NO_FATAL_FAILURE(check(vpn));

        serde::Writer image;
        tables.saveTo(image);
        ASSERT_EQ(reloadedImage(kernel, tables), image.bytes())
            << "op " << op;
    }
    // The run exercised every path it claims to.
    EXPECT_GT(maps[0], 40u);
    EXPECT_GT(maps[1], 20u);
    EXPECT_GE(maps[2], 3u);
    EXPECT_GT(unmaps, 50u);
    EXPECT_GT(repoints, 30u);
    EXPECT_GT(retires, 10u);
}

TEST(PageTablesTest, RetiringAnEmptiedTableFreesItsPage)
{
    Kernel kernel(smallConfig());
    const auto idx = static_cast<unsigned>(AllocSource::PageTables);
    auto liveTablePages = [&kernel, idx]() {
        return kernel.mem().stats().unmovableBySource(
            0, kernel.mem().numFrames())[idx];
    };
    PageTables tables(kernel);
    ASSERT_TRUE(tables.map(5, 1, 0));
    const std::uint64_t withPt = tables.tablePages();
    const auto liveWithPt = liveTablePages();
    ASSERT_TRUE(tables.unmap(5));
    EXPECT_EQ(tables.leaves4kIn(5), 0u);
    EXPECT_EQ(tables.walk(5).depth, 4u); // the empty PT page stays
    ASSERT_TRUE(tables.map(0, 4096, hugeOrder));
    EXPECT_EQ(tables.tablePages(), withPt - 1);
    EXPECT_EQ(liveTablePages(), liveWithPt - 1);
    EXPECT_EQ(tables.walk(5).depth, 3u);
}

TEST(AddressSpaceTest, RangeCountsAndPromotionOrderMatchRecount)
{
    Kernel kernel(smallConfig());
    AddressSpace space(kernel, 1);
    Rng rng(0xc0ffee);
    const std::uint64_t regionBytes = 8_MiB;
    std::vector<Addr> regions;

    // 4 KB leaves per 2 MB range, by brute force over every region.
    auto recount = [&]() {
        std::map<Vpn, unsigned> counts;
        for (const Addr base : regions) {
            const Vpn lo = addrToPfn(base);
            for (Vpn vpn = lo; vpn < lo + regionBytes / pageBytes;
                 ++vpn) {
                const Translation tr = space.pageTables().translate(vpn);
                if (tr.valid && tr.order == 0)
                    ++counts[vpn >> hugeOrder];
            }
        }
        return counts;
    };

    unsigned promotedTotal = 0, partialRanges = 0, munmaps = 0;
    unsigned holes = 0;
    std::vector<Vpn> lastFull;
    for (int round = 0; round < 400; ++round) {
        const unsigned action = static_cast<unsigned>(rng.below(12));
        if (regions.empty() || action == 0) {
            regions.push_back(space.mmap(regionBytes));
        } else if (action == 1 && regions.size() > 1) {
            const std::size_t i = rng.below(regions.size());
            space.munmap(regions[i]);
            regions.erase(regions.begin() +
                          static_cast<std::ptrdiff_t>(i));
            ++munmaps;
        } else if (action < 4) {
            const Addr base = regions[rng.below(regions.size())];
            space.releaseRange(base, regionBytes, 1 + rng.below(300),
                               rng);
        } else if (action < 6 && !lastFull.empty()) {
            // One hole in a full range: 511 leaves is not a
            // khugepaged candidate.
            const Vpn range = lastFull[rng.below(lastFull.size())];
            const Vpn vpn = (range << hugeOrder) + rng.below(pagesPerHuge);
            space.releaseRange(pfnToAddr(vpn), pageBytes, 1, rng);
            ++holes;
        } else {
            // Page-granular touches back 4 KB pages, so whole 2 MB
            // ranges fill up one page at a time.
            const Addr base = regions[rng.below(regions.size())];
            const std::uint64_t pages = 1 + rng.below(700);
            const std::uint64_t first = rng.below(
                regionBytes / pageBytes - pages + 1);
            space.touchRange(base + first * pageBytes,
                             pages * pageBytes);
        }

        const std::map<Vpn, unsigned> counts = recount();
        std::vector<Vpn> full;
        for (const auto &[range, used] : counts) {
            EXPECT_EQ(space.pageTables().leaves4kIn(range << hugeOrder),
                      used);
            if (used == pagesPerHuge)
                full.push_back(range);
            else
                ++partialRanges;
        }
        for (const Addr base : regions) {
            const Vpn lo = addrToPfn(base);
            for (Vpn vpn = lo; vpn < lo + regionBytes / pageBytes;
                 vpn += pagesPerHuge) {
                if (!counts.count(vpn >> hugeOrder)) {
                    EXPECT_EQ(space.pageTables().leaves4kIn(vpn), 0u);
                }
            }
        }
        for (const std::size_t limit : {std::size_t{1}, std::size_t{3},
                                        full.size() + 1}) {
            std::vector<Vpn> prefix(
                full.begin(),
                full.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(limit, full.size())));
            EXPECT_EQ(space.pageTables().fullHugeRanges(limit), prefix);
        }

        // khugepaged collapses the lowest full ranges first.
        if (round % 8 == 7 && !full.empty()) {
            const std::uint64_t budget = 1 + rng.below(2);
            const std::uint64_t promoted =
                space.promoteHugeRanges(budget);
            EXPECT_EQ(promoted, std::min<std::uint64_t>(budget,
                                                        full.size()));
            for (std::size_t i = 0; i < full.size(); ++i) {
                const Translation tr = space.pageTables().translate(
                    full[i] << hugeOrder);
                EXPECT_EQ(tr.order, i < promoted ? hugeOrder : 0u);
            }
            promotedTotal += static_cast<unsigned>(promoted);
            full.erase(full.begin(),
                       full.begin() + static_cast<std::ptrdiff_t>(promoted));
        }
        lastFull = full;
    }
    EXPECT_GT(promotedTotal, 5u);
    EXPECT_GT(partialRanges, 0u);
    EXPECT_GT(munmaps, 3u);
    EXPECT_GT(holes, 3u);
    for (const Addr base : regions)
        space.munmap(base);
    EXPECT_EQ(space.backedPages(), 0u);
    EXPECT_EQ(space.pageTables().mappings(), 0u);
}

TEST(AddressSpaceTest, TouchBacksWithThp)
{
    Kernel kernel(smallConfig());
    AddressSpace space(kernel, 1);
    const Addr base = space.mmap(8_MiB);
    const std::uint64_t backed = space.touchRange(base, 8_MiB);
    EXPECT_EQ(backed, (8_MiB) / pageBytes);
    // Fresh memory: THP should back everything with 2 MB chunks.
    EXPECT_EQ(space.chunks2m(), 4u);
    EXPECT_EQ(space.pages4k(), 0u);
}

TEST(AddressSpaceTest, ThpDisabledUses4k)
{
    KernelConfig config = smallConfig();
    config.thpEnabled = false;
    Kernel kernel(config);
    AddressSpace space(kernel, 1);
    const Addr base = space.mmap(2_MiB);
    space.touchRange(base, 2_MiB);
    EXPECT_EQ(space.chunks2m(), 0u);
    EXPECT_EQ(space.pages4k(), pagesPerHuge);
}

TEST(AddressSpaceTest, MunmapReleasesEverything)
{
    Kernel kernel(smallConfig());
    const std::uint64_t free_before =
        kernel.policy().freeUserPages();
    AddressSpace space(kernel, 1);
    const Addr base = space.mmap(16_MiB);
    space.touchRange(base, 16_MiB);
    space.munmap(base);
    // Page-table pages may remain; user pages must all be back.
    EXPECT_EQ(space.backedPages(), 0u);
    const std::uint64_t free_after = kernel.policy().freeUserPages();
    EXPECT_GE(free_after + 64, free_before); // tables tolerance
}

TEST(AddressSpaceTest, RelocateUpdatesTranslation)
{
    Kernel kernel(smallConfig());
    AddressSpace space(kernel, 1);
    const Addr base = space.mmap(1_MiB);
    space.touchRange(base, 1_MiB);
    const Translation before = space.translate(base);
    ASSERT_TRUE(before.valid);

    // Simulate what compaction does.
    AllocRequest req;
    req.order = before.order;
    req.mt = MigrateType::Movable;
    const Pfn fresh = kernel.allocPages(req);
    ASSERT_NE(fresh, invalidPfn);
    const std::uint64_t owner =
        kernel.mem().frame(before.pfn).owner();
    ASSERT_TRUE(kernel.owners().relocate(owner, before.pfn, fresh));
    EXPECT_EQ(space.translate(base).pfn, fresh);
}

TEST(CompactionTest, FormsHugeBlockFromFragmentedMemory)
{
    Kernel kernel(smallConfig());
    AddressSpace space(kernel, 1);

    // Back a large range with 4 KB pages (thp off via odd sizes),
    // then punch holes: memory is fragmented but fully movable.
    const Addr base = space.mmap(128_MiB);
    space.touchRange(base, 128_MiB);
    space.releasePages((64_MiB) / pageBytes, kernel.rng());

    // Consume the naturally coalesced large blocks so compaction has
    // real work to do.
    std::vector<Pfn> hogs;
    while (true) {
        const Pfn p = kernel.policy().movableAllocator().allocPages(
            hugeOrder, MigrateType::Movable, AllocSource::User, 0,
            AddrPref::None, false);
        if (p == invalidPfn)
            break;
        hogs.push_back(p);
    }
    for (const Pfn p : hogs)
        kernel.freePages(p);

    const CompactionResult r = kernel.compact(hugeOrder);
    EXPECT_TRUE(r.targetReached);
}

TEST(CompactionTest, UnmovablePageBlocksPageblock)
{
    Kernel kernel(smallConfig());
    // A lone kernel page inside a pageblock makes it unmovable for
    // compaction purposes.
    AllocRequest req;
    req.order = 0;
    req.mt = MigrateType::Unmovable;
    req.source = AllocSource::Slab;
    const Pfn p = kernel.allocPages(req);
    ASSERT_NE(p, invalidPfn);
    const CompactionResult r = compactRange(
        kernel.policy().movableAllocator(), kernel.owners(),
        0, kernel.mem().numFrames(), 1u << 20);
    EXPECT_GT(r.blockedPageblocks, 0u);
    kernel.freePages(p);
}

TEST(CompactionTest, CompactUntilBlockedPageblocksIsSnapshot)
{
    // THP would back the range with whole pageblocks (never mixed),
    // leaving compaction nothing to migrate — use 4 KB pages.
    KernelConfig kconfig = smallConfig();
    kconfig.thpEnabled = false;
    Kernel kernel(kconfig);
    AddressSpace space(kernel, 1);

    // Scatter some unmovable pages so pageblocks are blocked, then
    // fragment movable memory so the first pass has real migrations
    // and a second pass runs.
    std::vector<Pfn> slabs;
    for (int i = 0; i < 6; ++i) {
        AllocRequest req;
        req.order = 0;
        req.mt = MigrateType::Unmovable;
        req.source = AllocSource::Slab;
        const Pfn p = kernel.allocPages(req);
        ASSERT_NE(p, invalidPfn);
        slabs.push_back(p);
    }
    const Addr base = space.mmap(48_MiB);
    space.touchRange(base, 48_MiB);
    space.releasePages((16_MiB) / pageBytes, kernel.rng());

    BuddyAllocator &alloc = kernel.policy().movableAllocator();
    // An order the buddy lists can never satisfy (> maxOrder), so
    // compaction always runs its full multi-pass loop.
    const CompactionResult total =
        compactUntil(alloc, kernel.owners(), gigaOrder, 1u << 20);
    EXPECT_GT(total.migrated, 0u);
    EXPECT_FALSE(total.targetReached);

    // blockedPageblocks is a final-pass *snapshot*: it must equal
    // the number of pageblocks currently containing an unmovable
    // page — not that count summed once per pass.
    const Pfn lo = alloc.startPfn();
    const Pfn hi =
        lo + ((alloc.endPfn() - lo) / pagesPerHuge) * pagesPerHuge;
    std::uint64_t tainted = 0;
    for (Pfn block = lo; block < hi; block += pagesPerHuge) {
        for (Pfn pfn = block; pfn < block + pagesPerHuge; ++pfn) {
            if (kernel.mem().frame(pfn).isUnmovableAllocation()) {
                ++tainted;
                break;
            }
        }
    }
    EXPECT_GT(tainted, 0u);
    EXPECT_EQ(total.blockedPageblocks, tainted);
}

TEST(ChurnPoolTest, SteadyStateMatchesLittlesLaw)
{
    Kernel kernel(smallConfig());
    ChurnPool::Config config;
    config.ratePerSec = 2000;
    config.meanLifeSec = 0.5;
    config.longLivedFrac = 0.0;
    config.burstSigma = 0.0; // steady Poisson for Little's law
    ChurnPool pool(kernel, config, 7);
    pool.advanceTo(30.0);
    // Little's law: live ~= rate * mean life = 1000 pages (order 0).
    EXPECT_GT(pool.livePages(), 700u);
    EXPECT_LT(pool.livePages(), 1300u);
    pool.drain();
    EXPECT_EQ(pool.livePages(), 0u);
}

TEST(NetStackTest, RingsAndSkbsAreNetworkingUnmovable)
{
    Kernel kernel(smallConfig());
    NetStack::Config config;
    config.queues = 4;
    config.skbRatePerSec = 5000;
    NetStack net(kernel, config, 3);
    net.start();
    net.advanceTo(5.0);
    const auto counts = kernel.mem().stats().unmovableBySource(
        0, kernel.mem().numFrames());
    const auto idx = static_cast<unsigned>(AllocSource::Networking);
    EXPECT_GT(counts[idx], 0u);
    EXPECT_GE(counts[idx], net.livePages() / 2);
}

TEST(NetStackTest, PinsUserPages)
{
    Kernel kernel(smallConfig());
    AddressSpace space(kernel, 1);
    const Addr base = space.mmap(4_MiB);
    space.touchRange(base, 4_MiB);
    // Release THP chunking by touching with 4K: instead, just pin.
    NetStack net(kernel, {}, 3);
    // Force 4K pages by disabling THP at touch time is not possible
    // here; mmap another region with sub-huge size.
    const Addr small = space.mmap(64_KiB);
    space.touchRange(small, 64_KiB);
    const std::uint64_t pinned = net.pinUserPages(space, 8);
    EXPECT_GT(pinned, 0u);
    EXPECT_EQ(net.pinnedPages(), pinned);
    net.unpinAll();
    EXPECT_EQ(net.pinnedPages(), 0u);
}

TEST(FsBuffersTest, CacheGrowsAndShrinks)
{
    Kernel kernel(smallConfig());
    FsBuffers::Config config;
    config.cacheGrowthPagesPerSec = 1000;
    FsBuffers fs(kernel, config, 11);
    fs.advanceTo(10.0);
    EXPECT_GT(fs.cachePages(), 5000u);
    const std::uint64_t freed = fs.shrink(1000);
    EXPECT_EQ(freed, 1000u);
}

} // namespace
} // namespace ctg
