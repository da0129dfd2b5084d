/**
 * @file
 * ContigIndex exactness properties: after ANY sequence of allocator
 * operations, every index counter must equal a fresh full scan of
 * the frame array (scan::reference), and the MemStats index read
 * path must be bit-identical to the reference read path — including
 * every double-valued metric (DESIGN.md §11).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <vector>

#include "base/rng.hh"
#include "base/units.hh"
#include "fleet/fleet.hh"
#include "mem/buddy.hh"
#include "mem/contig_index.hh"
#include "mem/mem_stats.hh"
#include "mem/scanner.hh"

namespace ctg
{
namespace
{

/** Orders checked against the reference scanner (order1G included:
 * trivially zero blocks on small rigs, exercised on the 1 GiB rig).
 */
constexpr unsigned checkOrders[] = {1, scan::order2M, scan::order4M,
                                    scan::order32M, scan::order1G};

/** Frame-walk ground truth independent of both the index and the
 * reference scanner's own arithmetic. */
struct WalkCounts
{
    std::uint64_t free = 0;
    std::uint64_t unmovable = 0;
    std::uint64_t pinned = 0;
};

WalkCounts
walkFrames(const PhysMem &mem)
{
    WalkCounts counts;
    for (Pfn p = 0; p < mem.numFrames(); ++p) {
        const auto f = mem.frame(p);
        counts.free += f.isFree();
        counts.unmovable += f.isUnmovableAllocation();
        counts.pinned += !f.isFree() && f.isPinned();
    }
    return counts;
}

/** Every index counter and every MemStats index read must equal the
 * reference scan of the current frame array — exactly. */
void
expectIndexExact(const PhysMem &mem, Rng &rng)
{
    ASSERT_TRUE(mem.contigIndexReads());
    const ContigIndex &idx = mem.contigIndex();
    const Pfn n = mem.numFrames();

    const WalkCounts truth = walkFrames(mem);
    EXPECT_EQ(idx.freePages(), truth.free);
    EXPECT_EQ(idx.unmovablePages(), truth.unmovable);
    EXPECT_EQ(idx.pinnedPages(), truth.pinned);
    EXPECT_EQ(idx.freePages(), scan::reference::freePages(mem, 0, n));
    EXPECT_EQ(idx.unmovableBySource(),
              scan::reference::unmovableBySource(mem, 0, n));

    for (const unsigned order : checkOrders) {
        EXPECT_EQ(idx.fullyFreeBlocks(order),
                  scan::reference::freeAlignedBlocks(mem, 0, n, order))
            << "order " << order;
        EXPECT_EQ(
            idx.taintedBlocks(order),
            scan::reference::unmovableAlignedBlocks(mem, 0, n, order))
            << "order " << order;
    }

    // The double-valued metrics must be bit-identical, not just
    // close: the index path reproduces the reference arithmetic from
    // identical integer counts.
    const MemStats stats = mem.stats();
    EXPECT_EQ(stats.unmovablePageRatio(),
              scan::reference::unmovablePageRatio(mem, 0, n));
    EXPECT_EQ(stats.meanFreeShareOfUnmovableBlocks(),
              scan::reference::meanFreeShareOfUnmovableBlocks(mem, 0,
                                                              n));
    for (const unsigned order : checkOrders) {
        EXPECT_EQ(
            stats.freeContiguityFraction(order),
            scan::reference::freeContiguityFraction(mem, 0, n, order))
            << "order " << order;
        EXPECT_EQ(
            stats.unmovableBlockFraction(order),
            scan::reference::unmovableBlockFraction(mem, 0, n, order))
            << "order " << order;
        EXPECT_EQ(stats.potentialContiguityFraction(order),
                  scan::reference::potentialContiguityFraction(
                      mem, 0, n, order))
            << "order " << order;
    }

    // A random order-aligned subrange, through the range queries.
    const unsigned order =
        checkOrders[rng.below(std::size(checkOrders))];
    const Pfn span = Pfn{1} << order;
    if (n >= span) {
        const Pfn blocks = n >> order;
        const Pfn lo = rng.below(blocks) << order;
        const Pfn hi = (rng.range(lo >> order, blocks - 1) + 1)
                       << order;
        EXPECT_EQ(idx.freePagesIn(lo, hi),
                  scan::reference::freePages(mem, lo, hi));
        EXPECT_EQ(idx.fullyFreeBlocksIn(lo, hi, order),
                  scan::reference::freeAlignedBlocks(mem, lo, hi,
                                                     order));
        EXPECT_EQ(idx.taintedBlocksIn(lo, hi, order),
                  scan::reference::unmovableAlignedBlocks(mem, lo, hi,
                                                          order));
    }
}

/**
 * The descent queries (DESIGN.md §12) against a fresh linear
 * classification of the frame array: every hot-path building block
 * must agree with the walk it replaces.
 */
void
expectDescentQueriesExact(const PhysMem &mem, Rng &rng)
{
    const ContigIndex &idx = mem.contigIndex();
    const Pfn n = mem.numFrames();

    // Per-pageblock classification and the mixed-block enumeration.
    std::uint64_t mixed_blocks = 0;
    Pfn enumerated = idx.firstMixedBlock(0, n);
    for (Pfn block = 0; block < n; block += pagesPerHuge) {
        std::uint64_t free = 0, unmov = 0, pinned = 0;
        for (Pfn pfn = block; pfn < block + pagesPerHuge; ++pfn) {
            const auto f = mem.frame(pfn);
            free += f.isFree();
            unmov += f.isUnmovableAllocation();
            pinned += !f.isFree() && f.isPinned();
        }
        const std::uint64_t movable = pagesPerHuge - free - unmov;
        const ContigIndex::BlockClass cls = idx.blockClass(block);
        ASSERT_EQ(cls.free, free) << "block " << block;
        ASSERT_EQ(cls.unmovable, unmov) << "block " << block;
        ASSERT_EQ(cls.pinned, pinned) << "block " << block;
        ASSERT_EQ(cls.movableAlloc, movable) << "block " << block;
        if (free > 0 && movable > 0) {
            ++mixed_blocks;
            ASSERT_EQ(enumerated, block);
            enumerated = idx.nextMixedBlock(enumerated, n);
        }
    }
    ASSERT_EQ(enumerated, invalidPfn);
    EXPECT_EQ(idx.mixedBlocksIn(0, n), mixed_blocks);

    // First-frame queries on a random subrange, against linear
    // search with the same predicates.
    const Pfn lo = rng.below(n);
    const Pfn hi = rng.range(lo, n - 1) + 1;
    Pfn first_alloc = invalidPfn;
    Pfn first_unmov = invalidPfn;
    Pfn first_movmt = invalidPfn;
    std::uint64_t movmt_pages = 0;
    for (Pfn pfn = lo; pfn < hi; ++pfn) {
        const auto f = mem.frame(pfn);
        if (!f.isFree() && first_alloc == invalidPfn)
            first_alloc = pfn;
        if (f.isUnmovableAllocation() && first_unmov == invalidPfn)
            first_unmov = pfn;
        if (!f.isFree() && f.migrateType() == MigrateType::Movable) {
            if (first_movmt == invalidPfn)
                first_movmt = pfn;
            ++movmt_pages;
        }
    }
    EXPECT_EQ(idx.firstAllocatedFrame(lo, hi), first_alloc);
    EXPECT_EQ(idx.firstUnmovableFrame(lo, hi), first_unmov);
    EXPECT_EQ(idx.firstMovableMtFrame(lo, hi), first_movmt);
    EXPECT_EQ(idx.movableMtPagesIn(lo, hi), movmt_pages);

    // Fully-free span search, both address preferences, against a
    // linear scan over aligned candidates.
    for (const unsigned order : checkOrders) {
        const Pfn span = Pfn{1} << order;
        const Pfn a = (lo + span - 1) & ~(span - 1);
        const Pfn b = hi & ~(span - 1);
        Pfn lowest = invalidPfn;
        Pfn highest = invalidPfn;
        for (Pfn base = a; base + span <= b; base += span) {
            bool all_free = true;
            for (Pfn pfn = base; pfn < base + span; ++pfn) {
                if (!mem.frame(pfn).isFree()) {
                    all_free = false;
                    break;
                }
            }
            if (all_free) {
                if (lowest == invalidPfn)
                    lowest = base;
                highest = base;
            }
        }
        EXPECT_EQ(idx.firstFullyFreeSpan(order, lo, hi,
                                         AddrPref::None),
                  lowest)
            << "order " << order;
        EXPECT_EQ(idx.firstFullyFreeSpan(order, lo, hi, AddrPref::Low),
                  lowest)
            << "order " << order;
        EXPECT_EQ(idx.firstFullyFreeSpan(order, lo, hi,
                                         AddrPref::High),
                  highest)
            << "order " << order;
    }
}

MigrateType
randomMt(Rng &rng)
{
    switch (rng.below(3)) {
      case 0:
        return MigrateType::Movable;
      case 1:
        return MigrateType::Unmovable;
      default:
        return MigrateType::Reclaimable;
    }
}

AllocSource
randomSource(Rng &rng)
{
    return static_cast<AllocSource>(rng.below(numAllocSources));
}

TEST(ContigIndexProperty, RandomAllocFreePinSequencesStayExact)
{
    PhysMem mem(64_MiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "prop");
    Rng rng(0xc0117);

    struct Live
    {
        Pfn head;
        unsigned order;
        bool pinned;
    };
    std::vector<Live> live;

    for (int step = 0; step < 400; ++step) {
        const unsigned op = rng.below(100);
        if (op < 45) {
            const unsigned order = rng.below(5);
            const Pfn head = buddy.allocPages(order, randomMt(rng),
                                              randomSource(rng));
            if (head != invalidPfn)
                live.push_back({head, order, false});
        } else if (op < 75 && !live.empty()) {
            const std::size_t victim = rng.below(live.size());
            Live block = live[victim];
            live.erase(live.begin() + victim);
            if (block.pinned) {
                mem.setRangePinned(
                    block.head,
                    block.head + (Pfn{1} << block.order), false);
            }
            buddy.freePages(block.head);
        } else if (op < 90 && !live.empty()) {
            Live &block = live[rng.below(live.size())];
            block.pinned = !block.pinned;
            mem.setRangePinned(block.head,
                               block.head + (Pfn{1} << block.order),
                               block.pinned);
        } else if (!live.empty()) {
            const Live &block = live[rng.below(live.size())];
            mem.setBlockPinned(block.head, rng.chance(0.5));
            // Reflect the pin bit so the eventual free unpins it.
            Live &entry =
                *std::find_if(live.begin(), live.end(),
                              [&](const Live &l) {
                                  return l.head == block.head;
                              });
            entry.pinned = mem.frame(entry.head).isPinned();
        }
        if (step % 4 == 0)
            expectIndexExact(mem, rng);
        if (::testing::Test::HasFailure())
            FAIL() << "diverged at step " << step;
    }
    expectIndexExact(mem, rng);
}

TEST(ContigIndexProperty, GiganticAndRangeOpsStayExact)
{
    PhysMem mem(1_GiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "giga");
    Rng rng(0x916a);

    // Fragment a little first so gigantic allocation has to work.
    std::vector<Pfn> singles;
    for (int i = 0; i < 200; ++i) {
        const Pfn p = buddy.allocPages(rng.below(4), randomMt(rng),
                                       randomSource(rng));
        if (p != invalidPfn)
            singles.push_back(p);
    }
    expectIndexExact(mem, rng);

    const Pfn giant =
        buddy.allocGigantic(MigrateType::Unmovable, AllocSource::User);
    if (giant != invalidPfn)
        expectIndexExact(mem, rng);

    // Region-resize style ops: isolate, detach, re-attach a 32 MB
    // aligned window at the top of memory.
    const Pfn span = Pfn{1} << scan::order32M;
    const Pfn lo = mem.numFrames() - span;
    const Pfn hi = mem.numFrames();
    if (buddy.rangeFullyFree(lo, hi)) {
        buddy.isolateRange(lo, hi);
        expectIndexExact(mem, rng);
        buddy.detachRange(lo, hi);
        expectIndexExact(mem, rng);
        buddy.attachRange(lo, hi, MigrateType::Movable);
        expectIndexExact(mem, rng);
    }

    if (giant != invalidPfn) {
        buddy.freePages(giant);
        expectIndexExact(mem, rng);
    }
    for (const Pfn p : singles)
        buddy.freePages(p);
    expectIndexExact(mem, rng);
    EXPECT_EQ(mem.contigIndex().freePages(), mem.numFrames());
}

TEST(ContigIndexProperty, DescentQueriesMatchLinearClassification)
{
    PhysMem mem(64_MiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "descent");
    Rng rng(0xdec3);

    struct Live
    {
        Pfn head;
        unsigned order;
        bool pinned;
    };
    std::vector<Live> live;

    for (int step = 0; step < 300; ++step) {
        const unsigned op = rng.below(100);
        if (op < 50) {
            const unsigned order = rng.below(6);
            const Pfn head = buddy.allocPages(order, randomMt(rng),
                                              randomSource(rng));
            if (head != invalidPfn)
                live.push_back({head, order, false});
        } else if (op < 80 && !live.empty()) {
            const std::size_t victim = rng.below(live.size());
            Live block = live[victim];
            live.erase(live.begin() + victim);
            if (block.pinned) {
                mem.setRangePinned(
                    block.head,
                    block.head + (Pfn{1} << block.order), false);
            }
            buddy.freePages(block.head);
        } else if (!live.empty()) {
            Live &block = live[rng.below(live.size())];
            block.pinned = !block.pinned;
            mem.setRangePinned(block.head,
                               block.head + (Pfn{1} << block.order),
                               block.pinned);
        }
        if (step % 10 == 0)
            expectDescentQueriesExact(mem, rng);
        if (::testing::Test::HasFailure())
            FAIL() << "diverged at step " << step;
    }
    expectDescentQueriesExact(mem, rng);
}

/** Exact index-backed AddrPref placement must pick the same block an
 * uncapped free-list scan would: both select the extreme-address
 * entry of the (mt, order) list, so two machines driven by the same
 * operation sequence stay bit-identical. */
TEST(ContigIndexProperty, ExactPrefMatchesUncappedScan)
{
    PhysMem exact_mem(64_MiB);
    PhysMem scan_mem(64_MiB);
    BuddyAllocator exact_buddy(exact_mem, 0, exact_mem.numFrames(),
                               "exact");
    BuddyAllocator scan_buddy(scan_mem, 0, scan_mem.numFrames(),
                              "scan");
    exact_mem.setExactAddrPref(true);
    // An effectively unbounded scan cap examines every list entry,
    // so the capped scan also finds the true extreme.
    scan_buddy.setPrefScanCap(1u << 30);

    Rng rng(0xeac7);
    std::vector<std::pair<Pfn, Pfn>> live; // exact head, scan head
    for (int step = 0; step < 600; ++step) {
        if (rng.below(100) < 60 || live.empty()) {
            const unsigned order = rng.below(6);
            const MigrateType mt = randomMt(rng);
            const AllocSource src = randomSource(rng);
            const AddrPref pref =
                rng.below(2) ? AddrPref::Low : AddrPref::High;
            const Pfn a = exact_buddy.allocPages(order, mt, src, 0,
                                                 pref);
            const Pfn b = scan_buddy.allocPages(order, mt, src, 0,
                                                pref);
            ASSERT_EQ(a, b) << "step " << step;
            if (a != invalidPfn)
                live.push_back({a, b});
        } else {
            const std::size_t victim = rng.below(live.size());
            const auto [a, b] = live[victim];
            live.erase(live.begin() + victim);
            ASSERT_EQ(a, b);
            exact_buddy.freePages(a);
            scan_buddy.freePages(b);
        }
    }
    EXPECT_EQ(exact_mem.contigIndex().freePages(),
              scan_mem.contigIndex().freePages());
}

// ---------------------------------------------------------------
// Deferred fold: resync() diffs leaves eagerly and queues tree
// nodes; the first tree read folds the queue (DESIGN.md §11).
// ---------------------------------------------------------------

/** A block a random driver holds. */
struct Held
{
    Pfn head;
    unsigned order;
    bool pinned;
};

/** One random mutation that reads nothing from the index: allocate,
 * free, toggle a pin, or allocate a block and free it again at once
 * (the frames change twice and end where they started). */
void
randomMutation(PhysMem &mem, BuddyAllocator &buddy, Rng &rng,
               std::vector<Held> &held)
{
    const unsigned op = rng.below(100);
    if (op < 40 || held.empty()) {
        const Pfn head = buddy.allocPages(
            rng.below(hugeOrder + 1), randomMt(rng), randomSource(rng));
        if (head != invalidPfn)
            held.push_back({head, mem.frame(head).order(), false});
    } else if (op < 75) {
        const std::size_t victim = rng.below(held.size());
        const Held block = held[victim];
        held.erase(held.begin() + victim);
        if (block.pinned)
            mem.setBlockPinned(block.head, false);
        buddy.freePages(block.head);
    } else if (op < 90) {
        Held &block = held[rng.below(held.size())];
        block.pinned = !block.pinned;
        mem.setBlockPinned(block.head, block.pinned);
    } else {
        const Pfn head = buddy.allocPages(
            rng.below(4), randomMt(rng), randomSource(rng));
        if (head != invalidPfn) {
            mem.setBlockPinned(head, true);
            mem.setBlockPinned(head, false);
            buddy.freePages(head);
        }
    }
}

TEST(ContigIndexProperty, LongUnreadBatchesFoldExactly)
{
    PhysMem mem(64_MiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "batches");
    Rng rng(0xba7c4);
    std::vector<Held> held;
    const ContigIndex &idx = mem.contigIndex();

    for (int batch = 0; batch < 6; ++batch) {
        const std::uint64_t folds = idx.folds();
        for (int op = 0; op < 1500; ++op)
            randomMutation(mem, buddy, rng, held);
        // Nothing read the tree during the batch...
        ASSERT_EQ(idx.folds(), folds) << "batch " << batch;
        // ...so this comparison folds 1500 operations at once, and
        // must match an index built from scratch over the same
        // frames, node for node.
        EXPECT_TRUE(idx == ContigIndex(mem.frames()))
            << "batch " << batch;
        EXPECT_EQ(idx.folds(), folds + 1);
        expectIndexExact(mem, rng);
        expectDescentQueriesExact(mem, rng);
        if (::testing::Test::HasFailure())
            FAIL() << "diverged after batch " << batch;
    }
}

TEST(ContigIndexFold, SingleFrameAllocsFoldOnceOnRead)
{
    PhysMem mem(64_MiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "folds");
    const ContigIndex &idx = mem.contigIndex();
    idx.fullyFreeBlocks(1); // fold the boot-time state
    const std::uint64_t folds = idx.folds();
    const std::uint64_t nodes = idx.nodesFolded();
    const std::uint64_t resyncs = idx.resyncCalls();

    constexpr int allocs = 64;
    for (int i = 0; i < allocs; ++i) {
        ASSERT_NE(buddy.allocPages(0, MigrateType::Unmovable,
                                   AllocSource::Slab),
                  invalidPfn);
    }
    EXPECT_GE(idx.resyncCalls(), resyncs + allocs);
    // Nothing read the index during the allocations.
    EXPECT_EQ(idx.folds(), folds);
    EXPECT_EQ(idx.nodesFolded(), nodes);

    // A totals read folds everything dirty, once.
    EXPECT_EQ(idx.unmovablePages(), std::uint64_t{allocs});
    EXPECT_EQ(idx.folds(), folds + 1);
    EXPECT_GT(idx.nodesFolded(), nodes);
    // 64 frames sit under at most 64 level-7 nodes, and each level
    // above holds at most as many dirty nodes as the one below.
    EXPECT_LE(idx.nodesFolded() - nodes,
              std::uint64_t{allocs} * ContigIndex::topLevel);

    // A read with nothing dirty folds nothing.
    EXPECT_GT(idx.taintedBlocks(scan::order2M), 0u);
    idx.firstUnmovableFrame(0, mem.numFrames());
    EXPECT_EQ(idx.folds(), folds + 1);
}

/** Several mutations inside one 64-frame word between two reads cost
 * one re-derivation of that word, and one node per tree level. */
TEST(ContigIndexFold, WithinWordChurnRederivesTheWordOnce)
{
    PhysMem mem(64_MiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "churn");
    const ContigIndex &idx = mem.contigIndex();
    constexpr Pfn word = Pfn{1} << ContigIndex::wordOrder;
    // An order-7 block is exactly two words.
    const Pfn head = buddy.allocPages(ContigIndex::wordOrder + 1,
                                      MigrateType::Movable,
                                      AllocSource::User);
    ASSERT_NE(head, invalidPfn);
    ASSERT_EQ(head % word, 0u);
    idx.fullyFreeBlocks(1);

    const auto churn = [&](Pfn lo, Pfn hi, int mutations) {
        const std::uint64_t resyncs = idx.resyncCalls();
        const std::uint64_t frames = idx.framesRescanned();
        const std::uint64_t folds = idx.folds();
        const std::uint64_t nodes = idx.nodesFolded();
        Rng rng(lo);
        for (int i = 0; i < mutations; ++i) {
            const Pfn a = lo + rng.below(hi - lo);
            const Pfn b = a + 1 + rng.below(std::min<Pfn>(8, hi - a));
            mem.setRangePinned(a, std::min(b, hi), rng.chance(0.5));
        }
        EXPECT_EQ(idx.resyncCalls(), resyncs + mutations);
        EXPECT_EQ(idx.framesRescanned(), frames);
        EXPECT_EQ(idx.folds(), folds);

        EXPECT_EQ(idx.pinnedPages(), walkFrames(mem).pinned);
        EXPECT_EQ(idx.folds(), folds + 1);
        // Every word the mutations touched is re-read exactly once.
        const Pfn words = (hi - 1) / word - lo / word + 1;
        EXPECT_EQ(idx.framesRescanned() - frames, words * word);
        EXPECT_LE(idx.nodesFolded() - nodes,
                  std::uint64_t{words} *
                      (ContigIndex::topLevel - ContigIndex::wordOrder));
        EXPECT_TRUE(idx == ContigIndex(mem.frames()));
    };
    churn(head, head + word, 12);              // inside one word
    churn(head + 3, head + 40, 9);             // a sub-range of it
    churn(head + word - 5, head + word + 7, 6); // straddling two
    mem.setRangePinned(head, head + 2 * word, false);
    buddy.freePages(head);
}

/** Small by design: a 64-byte word per 64 frames plus tree nodes
 * from level 7 up, ~1.5 bytes per frame once folds have grown their
 * queues (the per-frame leaf layout it replaced took ~32). */
TEST(ContigIndexFold, FootprintStaysUnderOnePointSixBytesPerFrame)
{
    for (const std::uint64_t size : {64_MiB, 1_GiB}) {
        PhysMem mem(size);
        BuddyAllocator buddy(mem, 0, mem.numFrames(), "bytes");
        Rng rng(size);
        std::vector<Held> held;
        const ContigIndex &idx = mem.contigIndex();
        for (int op = 0; op < 2000; ++op)
            randomMutation(mem, buddy, rng, held);
        idx.fullyFreeBlocks(1);
        const double per_frame =
            double(idx.bytes()) / double(idx.numFrames());
        EXPECT_GT(per_frame, 1.0) << size;
        EXPECT_LT(per_frame, 1.6) << size;
    }
}

/** Per-frame predicates of a machine, for linear answers to every
 * tree read. */
struct FrameTruth
{
    std::vector<bool> free, alloc, unmov, pinned, movableMt;
    std::array<std::uint64_t, numAllocSources> bySource{};

    explicit FrameTruth(const FrameArray &frames)
    {
        for (Pfn p = 0; p < frames.size(); ++p) {
            const auto f = frames.frame(p);
            free.push_back(f.isFree());
            alloc.push_back(!f.isFree());
            unmov.push_back(f.isUnmovableAllocation());
            pinned.push_back(!f.isFree() && f.isPinned());
            movableMt.push_back(!f.isFree() &&
                                f.migrateType() == MigrateType::Movable);
            if (f.isUnmovableAllocation())
                ++bySource[static_cast<unsigned>(f.source())];
        }
    }

    explicit FrameTruth(const PhysMem &mem) : FrameTruth(mem.frames())
    {
    }

    static std::uint64_t
    count(const std::vector<bool> &bits, Pfn lo, Pfn hi)
    {
        return std::count(bits.begin() + lo, bits.begin() + hi, true);
    }

    static Pfn
    first(const std::vector<bool> &bits, Pfn lo, Pfn hi)
    {
        for (Pfn p = lo; p < hi; ++p) {
            if (bits[p])
                return p;
        }
        return invalidPfn;
    }

    /** Aligned order-blocks in [lo, hi) that are fully free
     * (needFree) or hold at least one unmovable frame. */
    std::uint64_t
    blocks(Pfn lo, Pfn hi, unsigned order, bool needFree) const
    {
        const Pfn span = Pfn{1} << order;
        std::uint64_t total = 0;
        for (Pfn b = lo; b + span <= hi; b += span) {
            total += needFree ? count(free, b, b + span) == span
                              : count(unmov, b, b + span) > 0;
        }
        return total;
    }

    bool
    mixed(Pfn block) const
    {
        const Pfn end = block + pagesPerHuge;
        return count(free, block, end) > 0 &&
               count(alloc, block, end) > count(unmov, block, end);
    }

    Pfn
    span(unsigned order, Pfn lo, Pfn hi, bool highest) const
    {
        const Pfn size = Pfn{1} << order;
        lo = (lo + size - 1) & ~(size - 1);
        hi &= ~(size - 1);
        Pfn hit = invalidPfn;
        for (Pfn b = lo; b + size <= hi; b += size) {
            if (count(free, b, b + size) == size) {
                hit = b;
                if (!highest)
                    break;
            }
        }
        return hit;
    }
};

using Answers = std::vector<std::uint64_t>;

/** One public tree read, swept over many arguments: `index` asks
 * the index, `truth` answers the same questions linearly. */
struct TreeRead
{
    const char *name;
    std::function<Answers(const ContigIndex &, Pfn)> index;
    std::function<Answers(const FrameTruth &, Pfn)> truth;
};

/** Random [lo, hi) ranges, none of them the whole machine (whole-
 * machine range queries answer from the page totals, which have
 * reads of their own below). */
std::vector<std::pair<Pfn, Pfn>>
probeRanges(Pfn n)
{
    Rng rng(0x9a4e);
    std::vector<std::pair<Pfn, Pfn>> ranges;
    while (ranges.size() < 48) {
        const Pfn lo = rng.below(n);
        const Pfn hi = rng.range(lo, n - 1) + 1;
        if (lo != 0 || hi != n)
            ranges.push_back({lo, hi});
    }
    return ranges;
}

std::vector<TreeRead>
treeReads()
{
    using Idx = const ContigIndex &;
    using Tru = const FrameTruth &;
    constexpr unsigned top = ContigIndex::topLevel;
    /** Align [lo, hi) inward to order. */
    const auto trim = [](std::pair<Pfn, Pfn> r, unsigned order) {
        const Pfn span = Pfn{1} << order;
        const Pfn lo = (r.first + span - 1) & ~(span - 1);
        const Pfn hi = std::max(lo, r.second & ~(span - 1));
        return std::pair<Pfn, Pfn>{lo, hi};
    };
    /** Sweep fn(lo, hi) over the probe ranges. */
    const auto sweep = [](Pfn n, auto fn) {
        Answers out;
        for (const auto &r : probeRanges(n))
            out.push_back(fn(r.first, r.second));
        return out;
    };
    /** Sweep fn(lo, hi, order) over the probe ranges trimmed to
     * every order up to the pageblock. */
    const auto sweepAligned = [trim](Pfn n, auto fn) {
        Answers out;
        for (unsigned order = 1; order <= hugeOrder; ++order) {
            for (const auto &r : probeRanges(n)) {
                const auto [lo, hi] = trim(r, order);
                out.push_back(fn(lo, hi, order));
            }
        }
        return out;
    };
    /** Sweep fn(order, index) over every node of every level. */
    const auto sweepNodes = [](Pfn n, auto fn) {
        Answers out;
        for (unsigned order = 1; order <= top; ++order) {
            for (std::uint64_t i = 0; i < (n >> order); ++i)
                out.push_back(fn(order, i));
        }
        return out;
    };
    /** Sweep fn(block) over every pageblock base. */
    const auto sweepBlocks = [](Pfn n, auto fn) {
        Answers out;
        for (Pfn b = 0; b < n; b += pagesPerHuge)
            out.push_back(fn(b));
        return out;
    };
    const auto orders = [](auto fn) {
        Answers out;
        for (unsigned order = 1; order <= top; ++order)
            out.push_back(fn(order));
        return out;
    };
    const auto spans = [](Pfn n, auto fn) {
        Answers out;
        for (unsigned order = 0; order <= hugeOrder; ++order) {
            for (const auto &r : probeRanges(n)) {
                out.push_back(fn(order, r.first, r.second, false));
                out.push_back(fn(order, r.first, r.second, true));
            }
        }
        return out;
    };
    const auto pageblockRanges = [trim](Pfn n, auto fn) {
        Answers out;
        for (const auto &r : probeRanges(n)) {
            const auto [lo, hi] = trim(r, hugeOrder);
            out.push_back(fn(lo, hi));
        }
        return out;
    };

    const auto one = [](std::uint64_t v) { return Answers{v}; };

    return {
        {"freePages", [=](Idx x, Pfn) { return one(x.freePages()); },
         [=](Tru t, Pfn n) { return one(t.count(t.free, 0, n)); }},
        {"unmovablePages",
         [=](Idx x, Pfn) { return one(x.unmovablePages()); },
         [=](Tru t, Pfn n) { return one(t.count(t.unmov, 0, n)); }},
        {"pinnedPages", [=](Idx x, Pfn) { return one(x.pinnedPages()); },
         [=](Tru t, Pfn n) { return one(t.count(t.pinned, 0, n)); }},
        {"unmovableBySource",
         [](Idx x, Pfn) {
             const auto &by = x.unmovableBySource();
             return Answers(by.begin(), by.end());
         },
         [](Tru t, Pfn) {
             return Answers(t.bySource.begin(), t.bySource.end());
         }},
        {"fullyFreeBlocks",
         [=](Idx x, Pfn) {
             return orders([&](unsigned o) {
                 return x.fullyFreeBlocks(o);
             });
         },
         [=](Tru t, Pfn n) {
             return orders([&](unsigned o) {
                 return t.blocks(0, n, o, true);
             });
         }},
        {"taintedBlocks",
         [=](Idx x, Pfn) {
             return orders([&](unsigned o) {
                 return x.taintedBlocks(o);
             });
         },
         [=](Tru t, Pfn n) {
             return orders([&](unsigned o) {
                 return t.blocks(0, n, o, false);
             });
         }},
        {"freePagesIn",
         [=](Idx x, Pfn n) {
             return sweep(n, [&](Pfn lo, Pfn hi) {
                 return x.freePagesIn(lo, hi);
             });
         },
         [=](Tru t, Pfn n) {
             return sweep(n, [&](Pfn lo, Pfn hi) {
                 return t.count(t.free, lo, hi);
             });
         }},
        {"unmovablePagesIn",
         [=](Idx x, Pfn n) {
             return sweep(n, [&](Pfn lo, Pfn hi) {
                 return x.unmovablePagesIn(lo, hi);
             });
         },
         [=](Tru t, Pfn n) {
             return sweep(n, [&](Pfn lo, Pfn hi) {
                 return t.count(t.unmov, lo, hi);
             });
         }},
        {"fullyFreeBlocksIn",
         [=](Idx x, Pfn n) {
             return sweepAligned(n, [&](Pfn lo, Pfn hi, unsigned o) {
                 return x.fullyFreeBlocksIn(lo, hi, o);
             });
         },
         [=](Tru t, Pfn n) {
             return sweepAligned(n, [&](Pfn lo, Pfn hi, unsigned o) {
                 return t.blocks(lo, hi, o, true);
             });
         }},
        {"taintedBlocksIn",
         [=](Idx x, Pfn n) {
             return sweepAligned(n, [&](Pfn lo, Pfn hi, unsigned o) {
                 return x.taintedBlocksIn(lo, hi, o);
             });
         },
         [=](Tru t, Pfn n) {
             return sweepAligned(n, [&](Pfn lo, Pfn hi, unsigned o) {
                 return t.blocks(lo, hi, o, false);
             });
         }},
        {"nodeFreePages",
         [=](Idx x, Pfn n) {
             return sweepNodes(n, [&](unsigned o, std::uint64_t i) {
                 return std::uint64_t{x.nodeFreePages(o, i)};
             });
         },
         [=](Tru t, Pfn n) {
             return sweepNodes(n, [&](unsigned o, std::uint64_t i) {
                 return t.count(t.free, i << o, (i + 1) << o);
             });
         }},
        {"nodeUnmovablePages",
         [=](Idx x, Pfn n) {
             return sweepNodes(n, [&](unsigned o, std::uint64_t i) {
                 return std::uint64_t{x.nodeUnmovablePages(o, i)};
             });
         },
         [=](Tru t, Pfn n) {
             return sweepNodes(n, [&](unsigned o, std::uint64_t i) {
                 return t.count(t.unmov, i << o, (i + 1) << o);
             });
         }},
        {"blockClass",
         [=](Idx x, Pfn n) {
             Answers out;
             for (Pfn b = 0; b < n; b += pagesPerHuge) {
                 const ContigIndex::BlockClass c =
                     x.blockClass(b + pagesPerHuge / 2);
                 out.insert(out.end(), {c.free, c.unmovable, c.pinned,
                                        c.movableAlloc});
             }
             return out;
         },
         [=](Tru t, Pfn n) {
             Answers out;
             for (Pfn b = 0; b < n; b += pagesPerHuge) {
                 const Pfn e = b + pagesPerHuge;
                 const std::uint64_t unmov = t.count(t.unmov, b, e);
                 out.insert(out.end(),
                            {t.count(t.free, b, e), unmov,
                             t.count(t.pinned, b, e),
                             t.count(t.alloc, b, e) - unmov});
             }
             return out;
         }},
        {"firstMixedBlock",
         [=](Idx x, Pfn n) {
             return sweepBlocks(n, [&](Pfn b) {
                 return x.firstMixedBlock(b, n);
             });
         },
         [=](Tru t, Pfn n) {
             return sweepBlocks(n, [&](Pfn b) {
                 for (; b < n; b += pagesPerHuge) {
                     if (t.mixed(b))
                         return b;
                 }
                 return invalidPfn;
             });
         }},
        {"nextMixedBlock",
         [=](Idx x, Pfn n) {
             return sweepBlocks(n, [&](Pfn b) {
                 return x.nextMixedBlock(b, n);
             });
         },
         [=](Tru t, Pfn n) {
             return sweepBlocks(n, [&](Pfn b) {
                 for (b += pagesPerHuge; b < n; b += pagesPerHuge) {
                     if (t.mixed(b))
                         return b;
                 }
                 return invalidPfn;
             });
         }},
        {"mixedBlocksIn",
         [=](Idx x, Pfn n) {
             return pageblockRanges(n, [&](Pfn lo, Pfn hi) {
                 return x.mixedBlocksIn(lo, hi);
             });
         },
         [=](Tru t, Pfn n) {
             return pageblockRanges(n, [&](Pfn lo, Pfn hi) {
                 std::uint64_t total = 0;
                 for (Pfn b = lo; b < hi; b += pagesPerHuge)
                     total += t.mixed(b);
                 return total;
             });
         }},
        {"firstFullyFreeSpan",
         [=](Idx x, Pfn n) {
             return spans(n, [&](unsigned o, Pfn lo, Pfn hi, bool high) {
                 return x.firstFullyFreeSpan(
                     o, lo, hi, high ? AddrPref::High : AddrPref::Low);
             });
         },
         [=](Tru t, Pfn n) {
             return spans(n, [&](unsigned o, Pfn lo, Pfn hi, bool high) {
                 return t.span(o, lo, hi, high);
             });
         }},
        {"firstAllocatedFrame",
         [=](Idx x, Pfn n) {
             return sweep(n, [&](Pfn lo, Pfn hi) {
                 return x.firstAllocatedFrame(lo, hi);
             });
         },
         [=](Tru t, Pfn n) {
             return sweep(n, [&](Pfn lo, Pfn hi) {
                 return t.first(t.alloc, lo, hi);
             });
         }},
        {"firstUnmovableFrame",
         [=](Idx x, Pfn n) {
             return sweep(n, [&](Pfn lo, Pfn hi) {
                 return x.firstUnmovableFrame(lo, hi);
             });
         },
         [=](Tru t, Pfn n) {
             return sweep(n, [&](Pfn lo, Pfn hi) {
                 return t.first(t.unmov, lo, hi);
             });
         }},
        {"firstMovableMtFrame",
         [=](Idx x, Pfn n) {
             return sweep(n, [&](Pfn lo, Pfn hi) {
                 return x.firstMovableMtFrame(lo, hi);
             });
         },
         [=](Tru t, Pfn n) {
             return sweep(n, [&](Pfn lo, Pfn hi) {
                 return t.first(t.movableMt, lo, hi);
             });
         }},
        {"movableMtPagesIn",
         [=](Idx x, Pfn n) {
             return sweep(n, [&](Pfn lo, Pfn hi) {
                 return x.movableMtPagesIn(lo, hi);
             });
         },
         [=](Tru t, Pfn n) {
             return sweep(n, [&](Pfn lo, Pfn hi) {
                 return t.count(t.movableMt, lo, hi);
             });
         }},
    };
}

/** Every public tree read must fold the queue before answering: a
 * read that skipped the fold would answer from the tree as it was
 * before the last batch of mutations. Each read runs first after a
 * batch on a machine of its own, so no other read can fold for it,
 * and the batch is checked to have moved the read's answers. */
TEST(ContigIndexFold, EveryTreeReadFoldsFirst)
{
    for (const TreeRead &read : treeReads()) {
        PhysMem mem(64_MiB);
        BuddyAllocator buddy(mem, 0, mem.numFrames(), "guard");
        Rng rng(0xf1a5);
        std::vector<Held> held;
        const ContigIndex &idx = mem.contigIndex();
        const Pfn n = mem.numFrames();

        for (int op = 0; op < 400; ++op)
            randomMutation(mem, buddy, rng, held);
        ASSERT_TRUE(idx == ContigIndex(mem.frames())) << read.name;
        const Answers before = read.truth(FrameTruth(mem), n);
        ASSERT_EQ(read.index(idx, n), before) << read.name;

        const std::uint64_t folds = idx.folds();
        for (int op = 0; op < 400; ++op)
            randomMutation(mem, buddy, rng, held);
        const Answers after = read.truth(FrameTruth(mem), n);
        ASSERT_NE(before, after)
            << read.name << ": the batch must move the answers";
        EXPECT_EQ(read.index(idx, n), after) << read.name;
        EXPECT_EQ(idx.folds(), folds + 1) << read.name;
    }
}

// ---------------------------------------------------------------
// Bit-plane words: orders 0..wordOrder are answered inside 64-frame
// words, the tree starts one level above (DESIGN.md §11).
// ---------------------------------------------------------------

/** Write random frame states straight into a frame array (no
 * allocator in the way, so any pattern is reachable) in runs: free
 * (with stale pin, migratetype and source bits), mixed-migratetype,
 * movable, pinned, or free/allocated interleaved frame by frame.
 * Each run is published with one resync. */
void
scribble(FrameArray &frames, ContigIndex &idx, Rng &rng, int runs)
{
    const Pfn n = frames.size();
    for (int r = 0; r < runs; ++r) {
        const Pfn lo = rng.below(n);
        const Pfn len = 1 + rng.below(rng.chance(0.4) ? 700 : 40);
        const Pfn hi = std::min<Pfn>(n, lo + len);
        const unsigned kind = rng.below(5);
        for (Pfn p = lo; p < hi; ++p) {
            auto f = frames.frame(p);
            f.reset();
            if (kind == 0 || (kind == 4 && rng.chance(0.5))) {
                // Stale allocation-era bits on a free frame must not
                // leak into any plane.
                f.setFree(true);
                f.setPinned(rng.chance(0.1));
                f.setMigrateType(randomMt(rng));
                f.setSource(randomSource(rng));
                continue;
            }
            const MigrateType mt =
                kind == 2 ? MigrateType::Movable : randomMt(rng);
            f.stampAllocated(0, mt, randomSource(rng), false);
            f.setPinned(kind == 3 || rng.chance(0.05));
        }
        idx.resync(lo, hi);
    }
}

/** Ranges that probe the word layer of an n-frame machine: inside
 * one word, exactly one word, on word edges, straddling words, two
 * frames across an edge, and the machine's ends. */
std::vector<std::pair<Pfn, Pfn>>
wordEdgeRanges(Pfn n, Rng &rng)
{
    constexpr Pfn word = Pfn{1} << ContigIndex::wordOrder;
    const Pfn words = (n + word - 1) / word;
    std::vector<std::pair<Pfn, Pfn>> out;
    const auto add = [&](Pfn lo, Pfn hi) {
        hi = std::min(hi, n);
        out.push_back({std::min(lo, hi), hi});
    };
    for (int i = 0; i < 16; ++i) {
        const Pfn base = rng.below(words) * word;
        const Pfn a = rng.below(word);
        const Pfn b = a + 1 + rng.below(word - a);
        const Pfn far = base + word * (1 + rng.below(12));
        add(base + a, base + b);
        add(base, base + word);
        add(base, far);
        add(base + a, far + rng.below(word));
        add(base + word - 1, base + word + 1);
    }
    add(0, n);
    add(0, 1);
    add(n - 1, n);
    add(n - word, n);
    return out;
}

/** Every query at orders 0..8 against the linear classification of
 * the frames, over the given ranges, plus every node and pageblock. */
void
expectWordLayerExact(const ContigIndex &idx, const FrameArray &frames,
                     const std::vector<std::pair<Pfn, Pfn>> &ranges)
{
    constexpr unsigned maxOrder = 8;
    const FrameTruth t(frames);
    const Pfn n = frames.size();

    EXPECT_EQ(idx.freePages(), t.count(t.free, 0, n));
    EXPECT_EQ(idx.unmovablePages(), t.count(t.unmov, 0, n));
    EXPECT_EQ(idx.pinnedPages(), t.count(t.pinned, 0, n));
    EXPECT_EQ(idx.unmovableBySource(), t.bySource);
    for (unsigned o = 0; o <= maxOrder; ++o) {
        EXPECT_EQ(idx.fullyFreeBlocks(o), t.blocks(0, n, o, true))
            << "order " << o;
        EXPECT_EQ(idx.taintedBlocks(o), t.blocks(0, n, o, false))
            << "order " << o;
    }

    for (const auto &[lo, hi] : ranges) {
        SCOPED_TRACE(::testing::Message()
                     << "[" << lo << ", " << hi << ")");
        EXPECT_EQ(idx.freePagesIn(lo, hi), t.count(t.free, lo, hi));
        EXPECT_EQ(idx.unmovablePagesIn(lo, hi),
                  t.count(t.unmov, lo, hi));
        EXPECT_EQ(idx.movableMtPagesIn(lo, hi),
                  t.count(t.movableMt, lo, hi));
        EXPECT_EQ(idx.firstAllocatedFrame(lo, hi),
                  t.first(t.alloc, lo, hi));
        EXPECT_EQ(idx.firstUnmovableFrame(lo, hi),
                  t.first(t.unmov, lo, hi));
        EXPECT_EQ(idx.firstMovableMtFrame(lo, hi),
                  t.first(t.movableMt, lo, hi));
        for (unsigned o = 0; o <= maxOrder; ++o) {
            const Pfn span = Pfn{1} << o;
            const Pfn b = hi & ~(span - 1);
            const Pfn a = std::min(b, (lo + span - 1) & ~(span - 1));
            EXPECT_EQ(idx.fullyFreeBlocksIn(a, b, o),
                      t.blocks(a, b, o, true))
                << "order " << o;
            EXPECT_EQ(idx.taintedBlocksIn(a, b, o),
                      t.blocks(a, b, o, false))
                << "order " << o;
            EXPECT_EQ(idx.firstFullyFreeSpan(o, lo, hi, AddrPref::Low),
                      t.span(o, lo, hi, false))
                << "order " << o;
            EXPECT_EQ(idx.firstFullyFreeSpan(o, lo, hi, AddrPref::High),
                      t.span(o, lo, hi, true))
                << "order " << o;
        }
    }

    // Every node of orders 1..8, the partial tail node included.
    for (unsigned o = 1; o <= maxOrder; ++o) {
        const Pfn span = Pfn{1} << o;
        for (std::uint64_t i = 0; i < (n + span - 1) / span; ++i) {
            const Pfn lo = i * span;
            const Pfn hi = std::min(n, lo + span);
            ASSERT_EQ(idx.nodeFreePages(o, i), t.count(t.free, lo, hi))
                << "order " << o << " node " << i;
            ASSERT_EQ(idx.nodeUnmovablePages(o, i),
                      t.count(t.unmov, lo, hi))
                << "order " << o << " node " << i;
        }
    }

    // Pageblocks: classification (tail clamped) and the mixed ones.
    for (Pfn b = 0; b < n; b += pagesPerHuge) {
        const Pfn e = std::min<Pfn>(n, b + pagesPerHuge);
        const std::uint64_t unmov = t.count(t.unmov, b, e);
        const ContigIndex::BlockClass c = idx.blockClass(b);
        EXPECT_EQ(c.free, t.count(t.free, b, e)) << "block " << b;
        EXPECT_EQ(c.unmovable, unmov) << "block " << b;
        EXPECT_EQ(c.pinned, t.count(t.pinned, b, e)) << "block " << b;
        EXPECT_EQ(c.movableAlloc, t.count(t.alloc, b, e) - unmov)
            << "block " << b;
    }
    const Pfn whole = n & ~Pfn{pagesPerHuge - 1};
    std::uint64_t mixed = 0;
    Pfn next = idx.firstMixedBlock(0, whole);
    for (Pfn b = 0; b < whole; b += pagesPerHuge) {
        if (!t.mixed(b))
            continue;
        ++mixed;
        EXPECT_EQ(next, b);
        next = idx.nextMixedBlock(b, whole);
    }
    EXPECT_EQ(next, invalidPfn);
    EXPECT_EQ(idx.mixedBlocksIn(0, whole), mixed);
}

/** Every query at orders 0..8 stays exact under random frame states,
 * on machines whose last word and last tree nodes are partial as
 * well as on a whole number of pageblocks. */
TEST(ContigIndexProperty, WordLayerMatchesLinearClassification)
{
    for (const Pfn n : {Pfn{4096}, Pfn{4096 + 37}, Pfn{1000}}) {
        FrameArray frames(n);
        ContigIndex idx(frames);
        Rng rng(0x3d0 + n);
        for (int round = 0; round < 16; ++round) {
            scribble(frames, idx, rng, 1 + rng.below(12));
            if (round % 4 == 3) {
                EXPECT_TRUE(idx == ContigIndex(frames)) << "n " << n;
            }
            expectWordLayerExact(idx, frames, wordEdgeRanges(n, rng));
            if (::testing::Test::HasFailure())
                FAIL() << "n " << n << " diverged at round " << round;
        }
    }
}

/** The read-path toggle must not change a single bit of any fleet
 * study output, at any thread count (fig04/05/11/12 all consume
 * ServerScan). */
TEST(ContigIndexProperty, FleetScansBitIdenticalIndexOnVsOff)
{
    const auto runFleet = [](bool index_reads, unsigned threads) {
        Fleet::Config config;
        config.servers = 8;
        config.memBytes = std::uint64_t{512} << 20;
        config.minUptimeSec = 4.0;
        config.maxUptimeSec = 10.0;
        config.prefragmentFrac = 0.25;
        config.seed = 0xb17;
        config.threads = threads;
        config.contigIndexReads = index_reads;
        Fleet fleet(config);
        return fleet.run();
    };

    const std::vector<ServerScan> baseline = runFleet(true, 1);
    for (const unsigned threads : {1u, 4u, 8u}) {
        for (const bool index_reads : {true, false}) {
            const std::vector<ServerScan> scans =
                runFleet(index_reads, threads);
            ASSERT_EQ(scans.size(), baseline.size());
            for (std::size_t i = 0; i < scans.size(); ++i) {
                EXPECT_EQ(std::memcmp(&scans[i], &baseline[i],
                                      sizeof(ServerScan)),
                          0)
                    << "server " << i << " threads " << threads
                    << " index " << index_reads;
            }
        }
    }
}

/** Same contract with Contiguitas enabled, which drives the
 * index-rewritten region-resize, defrag, and contig-alloc hot paths
 * on every server (DESIGN.md §12). */
TEST(ContigIndexProperty, ContiguitasFleetBitIdenticalIndexOnVsOff)
{
    const auto runFleet = [](bool index_reads, unsigned threads) {
        Fleet::Config config;
        config.servers = 6;
        config.memBytes = std::uint64_t{512} << 20;
        config.policy.name = "contiguitas";
        config.minUptimeSec = 4.0;
        config.maxUptimeSec = 10.0;
        config.prefragmentFrac = 0.25;
        config.seed = 0xc716;
        config.threads = threads;
        config.contigIndexReads = index_reads;
        Fleet fleet(config);
        return fleet.run();
    };

    const std::vector<ServerScan> baseline = runFleet(true, 1);
    for (const unsigned threads : {1u, 4u, 8u}) {
        for (const bool index_reads : {true, false}) {
            const std::vector<ServerScan> scans =
                runFleet(index_reads, threads);
            ASSERT_EQ(scans.size(), baseline.size());
            for (std::size_t i = 0; i < scans.size(); ++i) {
                EXPECT_EQ(std::memcmp(&scans[i], &baseline[i],
                                      sizeof(ServerScan)),
                          0)
                    << "server " << i << " threads " << threads
                    << " index " << index_reads;
            }
        }
    }
}

} // namespace
} // namespace ctg
