/**
 * @file
 * Buddy allocator unit and property tests: alloc/free round trips,
 * splitting, coalescing, migratetype fallback and pageblock
 * stealing, gigantic allocation, isolation, and range attach/detach.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/serde.hh"
#include "base/units.hh"
#include "mem/buddy.hh"
#include "mem/mem_stats.hh"
#include "mem/physmem.hh"
#include "mem/scanner.hh"

namespace ctg
{
namespace
{

class BuddyTest : public ::testing::Test
{
  protected:
    BuddyTest()
        : mem(256_MiB),
          buddy(mem, 0, mem.numFrames(), "test")
    {}

    PhysMem mem;
    BuddyAllocator buddy;
};

TEST_F(BuddyTest, StartsFullyFree)
{
    EXPECT_EQ(buddy.freePageCount(), mem.numFrames());
    EXPECT_EQ(buddy.largestFreeOrder(), static_cast<int>(maxOrder));
    buddy.checkInvariants();
}

TEST_F(BuddyTest, SinglePageRoundTrip)
{
    const Pfn pfn = buddy.allocPages(0, MigrateType::Movable,
                                     AllocSource::User);
    ASSERT_NE(pfn, invalidPfn);
    EXPECT_FALSE(mem.frame(pfn).isFree());
    EXPECT_TRUE(mem.frame(pfn).isHead());
    EXPECT_EQ(buddy.freePageCount(), mem.numFrames() - 1);
    buddy.freePages(pfn);
    EXPECT_EQ(buddy.freePageCount(), mem.numFrames());
    buddy.checkInvariants();
}

TEST_F(BuddyTest, FreeCoalescesBackToMaxOrder)
{
    std::vector<Pfn> pages;
    for (int i = 0; i < 1024; ++i) {
        pages.push_back(buddy.allocPages(0, MigrateType::Movable,
                                         AllocSource::User));
    }
    // All max-order blocks should be consumed or split.
    for (const Pfn p : pages)
        buddy.freePages(p);
    EXPECT_EQ(buddy.freePageCount(), mem.numFrames());
    // After freeing everything, coalescing must restore max-order
    // blocks covering all memory.
    std::uint64_t max_blocks = 0;
    for (unsigned mi = 0; mi < numMigrateTypes; ++mi) {
        max_blocks += buddy.freeBlocks(static_cast<MigrateType>(mi),
                                       maxOrder);
    }
    EXPECT_EQ(max_blocks, mem.numFrames() >> maxOrder);
    buddy.checkInvariants();
}

TEST_F(BuddyTest, OrderAllocationIsAligned)
{
    for (unsigned order = 0; order <= maxOrder; ++order) {
        const Pfn pfn = buddy.allocPages(order, MigrateType::Movable,
                                         AllocSource::User);
        ASSERT_NE(pfn, invalidPfn);
        EXPECT_EQ(pfn % (Pfn{1} << order), 0u)
            << "order " << order;
        EXPECT_EQ(mem.frame(pfn).order(), order);
        buddy.freePages(pfn);
    }
    buddy.checkInvariants();
}

TEST_F(BuddyTest, FallbackStealsPageblockAndRetags)
{
    // Exhaust the native unmovable lists (there are none initially:
    // all pageblocks start movable), forcing a fallback that steals
    // and retags a whole pageblock.
    const Pfn pfn = buddy.allocPages(0, MigrateType::Unmovable,
                                     AllocSource::Slab);
    ASSERT_NE(pfn, invalidPfn);
    EXPECT_GE(buddy.stats().fallbackAllocs, 1u);
    EXPECT_GE(buddy.stats().pageblockSteals, 1u);
    EXPECT_EQ(mem.blockMt(pfn), MigrateType::Unmovable);
    buddy.freePages(pfn);
}

TEST_F(BuddyTest, FreeReturnsToPageblockList)
{
    // Steal a pageblock for unmovable, then free: the pages must go
    // back to the *unmovable* list (pageblock ownership), as in
    // Linux.
    const Pfn pfn = buddy.allocPages(0, MigrateType::Unmovable,
                                     AllocSource::Slab);
    ASSERT_NE(pfn, invalidPfn);
    buddy.freePages(pfn);
    EXPECT_GT(buddy.freePageCount(MigrateType::Unmovable), 0u);
    buddy.checkInvariants();
}

TEST_F(BuddyTest, NoFallbackFailsCleanly)
{
    const Pfn pfn = buddy.allocPages(
        0, MigrateType::Unmovable, AllocSource::Slab, 0,
        AddrPref::None, /*allow_fallback=*/false);
    EXPECT_EQ(pfn, invalidPfn);
    EXPECT_EQ(buddy.stats().failedAllocs, 1u);
}

TEST_F(BuddyTest, AddrPrefBiasesPlacement)
{
    // Fragment the free lists a little so there is a choice.
    std::vector<Pfn> held;
    for (int i = 0; i < 4096; ++i) {
        held.push_back(buddy.allocPages(0, MigrateType::Movable,
                                        AllocSource::User));
    }
    for (std::size_t i = 0; i < held.size(); i += 2)
        buddy.freePages(held[i]);

    const Pfn low = buddy.allocPages(0, MigrateType::Movable,
                                     AllocSource::User, 0,
                                     AddrPref::Low);
    const Pfn high = buddy.allocPages(0, MigrateType::Movable,
                                      AllocSource::User, 0,
                                      AddrPref::High);
    EXPECT_LT(low, high);
}

TEST_F(BuddyTest, GiganticAllocationFromEmptyMemory)
{
    const Pfn head = buddy.allocGigantic(MigrateType::Movable,
                                         AllocSource::User);
    // 256 MiB machine: no 1 GB range exists.
    EXPECT_EQ(head, invalidPfn);
}

TEST(BuddyGigantic, AllocAndFree)
{
    PhysMem mem(2_GiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "big");
    const Pfn head = buddy.allocGigantic(MigrateType::Movable,
                                         AllocSource::User);
    ASSERT_NE(head, invalidPfn);
    EXPECT_EQ(head % pagesPerGiga, 0u);
    EXPECT_EQ(buddy.freePageCount(),
              mem.numFrames() - pagesPerGiga);
    EXPECT_EQ(mem.frame(head).order(), gigaOrder);
    buddy.freePages(head);
    EXPECT_EQ(buddy.freePageCount(), mem.numFrames());
    buddy.checkInvariants();
}

TEST(BuddyGigantic, FailsWhenSinglePageInTheWay)
{
    PhysMem mem(1_GiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "blocked");
    // One allocation anywhere blocks the only aligned 1 GB range —
    // the paper's "a single unmovable 4KB page can render a 1GB
    // region unmovable".
    const Pfn page = buddy.allocPages(0, MigrateType::Unmovable,
                                      AllocSource::Slab);
    ASSERT_NE(page, invalidPfn);
    EXPECT_EQ(buddy.allocGigantic(MigrateType::Movable,
                                  AllocSource::User),
              invalidPfn);
    buddy.freePages(page);
    EXPECT_NE(buddy.allocGigantic(MigrateType::Movable,
                                  AllocSource::User),
              invalidPfn);
}

TEST_F(BuddyTest, IsolationExcludesRangeFromAllocation)
{
    const Pfn lo = 0;
    const Pfn hi = Pfn{1} << maxOrder; // first 4 MB
    buddy.isolateRange(lo, hi);
    buddy.checkInvariants();

    // Allocations must avoid the isolated range entirely.
    std::vector<Pfn> pages;
    for (int i = 0; i < 2000; ++i) {
        const Pfn p = buddy.allocPages(0, MigrateType::Movable,
                                       AllocSource::User);
        ASSERT_NE(p, invalidPfn);
        EXPECT_GE(p, hi);
        pages.push_back(p);
    }
    for (const Pfn p : pages)
        buddy.freePages(p);

    buddy.unisolateRange(lo, hi, MigrateType::Movable);
    buddy.checkInvariants();
    EXPECT_EQ(buddy.freePageCount(MigrateType::Isolate), 0u);
}

TEST_F(BuddyTest, FreeInsideIsolatedRangeStaysIsolated)
{
    // Allocate within the low range first, then isolate; the free
    // must land on the Isolate list, draining the range.
    const Pfn page = buddy.allocPages(0, MigrateType::Movable,
                                      AllocSource::User, 0,
                                      AddrPref::Low);
    ASSERT_LT(page, Pfn{1} << maxOrder);
    buddy.isolateRange(0, Pfn{1} << maxOrder);
    buddy.freePages(page);
    EXPECT_GT(buddy.freePageCount(MigrateType::Isolate), 0u);
    EXPECT_TRUE(buddy.rangeFullyFree(0, Pfn{1} << maxOrder));
    buddy.unisolateRange(0, Pfn{1} << maxOrder,
                         MigrateType::Movable);
    buddy.checkInvariants();
}

TEST_F(BuddyTest, DetachAttachRangeMovesCoverage)
{
    const Pfn cut = Pfn{1} << maxOrder;
    buddy.detachRange(0, cut);
    EXPECT_EQ(buddy.startPfn(), cut);
    EXPECT_EQ(buddy.freePageCount(), mem.numFrames() - cut);

    BuddyAllocator second(mem, 0, 0, "second");
    second.attachRange(0, cut, MigrateType::Unmovable);
    EXPECT_EQ(second.freePageCount(), cut);
    second.checkInvariants();
    buddy.checkInvariants();

    const Pfn p = second.allocPages(3, MigrateType::Unmovable,
                                    AllocSource::Slab);
    ASSERT_NE(p, invalidPfn);
    EXPECT_LT(p, cut);
    second.freePages(p);
}

/** Property test: random alloc/free sequences keep all invariants. */
class BuddyFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(BuddyFuzzTest, RandomOpsPreserveInvariants)
{
    PhysMem mem(64_MiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "fuzz");
    Rng rng(GetParam());

    std::vector<Pfn> live;
    std::uint64_t live_pages = 0;
    for (int step = 0; step < 6000; ++step) {
        if (live.empty() || rng.chance(0.55)) {
            const auto order =
                static_cast<unsigned>(rng.below(maxOrder + 1));
            const auto mt = static_cast<MigrateType>(rng.below(3));
            const Pfn head = buddy.allocPages(order, mt,
                                              AllocSource::User);
            if (head != invalidPfn) {
                live.push_back(head);
                live_pages += Pfn{1} << order;
            }
        } else {
            const std::size_t idx = rng.below(live.size());
            const Pfn head = live[idx];
            live_pages -= Pfn{1} << mem.frame(head).order();
            buddy.freePages(head);
            live[idx] = live.back();
            live.pop_back();
        }
        if (step % 500 == 0)
            buddy.checkInvariants();
        ASSERT_EQ(buddy.freePageCount(),
                  mem.numFrames() - live_pages);
    }
    for (const Pfn head : live)
        buddy.freePages(head);
    buddy.checkInvariants();
    EXPECT_EQ(buddy.freePageCount(), mem.numFrames());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyFuzzTest,
                         ::testing::Values(1, 2, 3, 17, 101, 9999));

/**
 * Brute-force reference for BuddyAllocator: every free list is an
 * explicit vector (front = list head) and every order search probes
 * the lists one by one, exactly as the allocator's policy reads —
 * smallest native order first, then the largest block of each
 * fallback victim in turn. The allocator must hand out the same head
 * PFN for every request.
 */
class ListModel
{
  public:
    ListModel(std::vector<MigrateType> &block_mt, Pfn start, Pfn end,
              MigrateType initial, unsigned scan_cap, bool claim_small)
        : start(start), end(end), blockMt_(block_mt),
          scanCap_(scan_cap), claimSmall_(claim_small)
    {
        for (Pfn p = start; p < end; p += pagesPerHuge)
            blockMt_[p / pagesPerHuge] = initial;
        freeRange(start, end, initial);
    }

    Pfn
    alloc(unsigned order, MigrateType mt, AddrPref pref, bool fallback)
    {
        for (unsigned o = order; o <= maxOrder; ++o) {
            if (list(mt, o).empty())
                continue;
            const Pfn head = pop(mt, o, pref);
            split(head, o, order, mt);
            allocated_[head] = order;
            return head;
        }
        if (!fallback)
            return invalidPfn;
        static const MigrateType victims[3][2] = {
            {MigrateType::Reclaimable, MigrateType::Unmovable},
            {MigrateType::Reclaimable, MigrateType::Movable},
            {MigrateType::Unmovable, MigrateType::Movable},
        };
        for (const MigrateType victim :
             victims[static_cast<unsigned>(mt)]) {
            for (int o = maxOrder; o >= static_cast<int>(order); --o) {
                if (list(victim, o).empty())
                    continue;
                const Pfn head = pop(victim, o, pref);
                const bool claim =
                    claimSmall_ || static_cast<unsigned>(o) >= hugeOrder;
                if (claim) {
                    for (Pfn p = head; p < head + (Pfn{1} << o);
                         p += pagesPerHuge)
                        blockMt_[p / pagesPerHuge] = mt;
                }
                split(head, o, order, claim ? mt : victim);
                allocated_[head] = order;
                return head;
            }
        }
        return invalidPfn;
    }

    void
    free(Pfn head)
    {
        unsigned order = allocated_.at(head);
        allocated_.erase(head);
        const MigrateType list_mt = blockMt_[head / pagesPerHuge];
        Pfn curr = head;
        while (order < maxOrder) {
            const Pfn buddy = curr ^ (Pfn{1} << order);
            if (buddy < start || buddy >= end ||
                buddy + (Pfn{1} << order) > end)
                break;
            const auto it = free_.find(buddy);
            if (it == free_.end() || it->second.second != order)
                break;
            remove(buddy);
            curr = std::min(curr, buddy);
            ++order;
        }
        push(curr, order, list_mt);
    }

    void
    isolate(Pfn lo, Pfn hi)
    {
        splitAt(lo);
        splitAt(hi);
        for (Pfn p = lo; p < hi; p += pagesPerHuge)
            blockMt_[p / pagesPerHuge] = MigrateType::Isolate;
        relist(lo, hi, MigrateType::Isolate);
    }

    void
    unisolate(Pfn lo, Pfn hi, MigrateType mt)
    {
        for (Pfn p = lo; p < hi; p += pagesPerHuge)
            blockMt_[p / pagesPerHuge] = mt;
        relist(lo, hi, mt);
    }

    void
    detach(Pfn lo, Pfn hi)
    {
        splitAt(lo);
        splitAt(hi);
        while (true) {
            const auto it = free_.lower_bound(lo);
            if (it == free_.end() || it->first >= hi)
                break;
            remove(it->first);
        }
        if (lo == start)
            start = hi;
        else
            end = lo;
    }

    void
    attach(Pfn lo, Pfn hi, MigrateType mt)
    {
        for (Pfn p = lo; p < hi; p += pagesPerHuge)
            blockMt_[p / pagesPerHuge] = mt;
        freeRange(lo, hi, mt);
        if (hi == start)
            start = lo;
        else
            end = hi;
    }

    /** No live allocation overlaps [lo, hi). */
    bool
    fullyFree(Pfn lo, Pfn hi) const
    {
        for (const auto &[head, order] : allocated_)
            if (head < hi && head + (Pfn{1} << order) > lo)
                return false;
        return true;
    }

    std::uint64_t
    blocks(MigrateType mt, unsigned order) const
    {
        return lists_[static_cast<unsigned>(mt)][order].size();
    }

    std::uint64_t
    freePages(MigrateType mt) const
    {
        std::uint64_t pages = 0;
        for (unsigned o = 0; o <= maxOrder; ++o)
            pages += blocks(mt, o) << o;
        return pages;
    }

    int
    largestFreeOrder() const
    {
        int best = -1;
        for (const auto &[head, where] : free_)
            best = std::max(best, static_cast<int>(where.second));
        return best;
    }

    Pfn start;
    Pfn end;

  private:
    std::vector<Pfn> &
    list(MigrateType mt, unsigned order)
    {
        return lists_[static_cast<unsigned>(mt)][order];
    }

    void
    push(Pfn head, unsigned order, MigrateType mt)
    {
        std::vector<Pfn> &l = list(mt, order);
        l.insert(l.begin(), head);
        free_[head] = {mt, order};
    }

    void
    remove(Pfn head)
    {
        const auto [mt, order] = free_.at(head);
        std::vector<Pfn> &l = list(mt, order);
        l.erase(std::find(l.begin(), l.end(), head));
        free_.erase(head);
    }

    Pfn
    pop(MigrateType mt, unsigned order, AddrPref pref)
    {
        const std::vector<Pfn> &l = list(mt, order);
        Pfn best = l.front();
        for (std::size_t i = 0;
             pref != AddrPref::None && i < l.size() && i < scanCap_;
             ++i) {
            if ((pref == AddrPref::Low && l[i] < best) ||
                (pref == AddrPref::High && l[i] > best))
                best = l[i];
        }
        remove(best);
        return best;
    }

    void
    split(Pfn head, unsigned have, unsigned want, MigrateType mt)
    {
        while (have > want) {
            --have;
            push(head + (Pfn{1} << have), have, mt);
        }
    }

    void
    freeRange(Pfn lo, Pfn hi, MigrateType mt)
    {
        for (Pfn p = lo; p < hi;) {
            unsigned order = maxOrder;
            while (order > 0 && ((p & ((Pfn{1} << order) - 1)) != 0 ||
                                 p + (Pfn{1} << order) > hi))
                --order;
            push(p, order, mt);
            p += Pfn{1} << order;
        }
    }

    /** The nearest block head at or below `cut`, free or allocated:
     * if it is a free block reaching past `cut`, it is taken off its
     * list and re-pushed as the aligned blocks on either side (a
     * block starting exactly at `cut` is re-pushed whole). */
    void
    splitAt(Pfn cut)
    {
        if (cut <= start || cut >= end)
            return;
        auto fit = free_.upper_bound(cut);
        auto ait = allocated_.upper_bound(cut);
        if (fit == free_.begin())
            return;
        --fit;
        if (ait != allocated_.begin() && std::prev(ait)->first > fit->first)
            return;
        const Pfn head = fit->first;
        const auto [mt, order] = fit->second;
        const Pfn blk_end = head + (Pfn{1} << order);
        if (blk_end <= cut)
            return;
        remove(head);
        freeRange(head, cut, mt);
        freeRange(cut, blk_end, mt);
    }

    void
    relist(Pfn lo, Pfn hi, MigrateType mt)
    {
        std::vector<std::pair<Pfn, unsigned>> moving;
        for (auto it = free_.lower_bound(lo);
             it != free_.end() && it->first < hi; ++it)
            moving.push_back({it->first, it->second.second});
        for (const auto &[head, order] : moving) {
            if (free_.at(head).first == mt)
                continue;
            remove(head);
            push(head, order, mt);
        }
    }

    std::vector<MigrateType> &blockMt_;
    unsigned scanCap_;
    bool claimSmall_;
    std::vector<Pfn> lists_[numMigrateTypes][maxOrder + 1];
    /** Free list heads: PFN -> (list migratetype, order). */
    std::map<Pfn, std::pair<MigrateType, unsigned>> free_;
    /** Live allocations: head PFN -> order. */
    std::map<Pfn, unsigned> allocated_;
};

/** Reserialize an allocator and adopt the copy, as a checkpoint
 * restore would (the frame table is shared and already current). */
std::unique_ptr<BuddyAllocator>
restoredCopy(PhysMem &mem, const BuddyAllocator &buddy)
{
    serde::Writer out;
    buddy.saveTo(out);
    serde::Reader in(out.bytes());
    auto copy = std::make_unique<BuddyAllocator>(mem, in);
    EXPECT_TRUE(in.atEnd());
    return copy;
}

class BuddyProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(BuddyProperty, MatchesListModelUnderRandomOps)
{
    // Two allocators split one machine the way the Contiguitas
    // region manager does, with a movable boundary between them.
    // Random alloc (native and stealing), free, isolate/unisolate
    // and boundary moves run against both the allocators and the
    // list model; every request must return the same head PFN.
    PhysMem mem(32_MiB);
    const Pfn frames = mem.numFrames();
    std::vector<MigrateType> modelMt(mem.numPageblocks());
    std::unique_ptr<BuddyAllocator> real[2] = {
        std::make_unique<BuddyAllocator>(mem, 0, frames / 2, "low"),
        std::make_unique<BuddyAllocator>(mem, frames / 2, frames, "high",
                                         MigrateType::Unmovable)};
    real[0]->setPrefScanCap(4);
    real[1]->setClaimRemainderOnSmallSteal(true);
    ListModel model[2] = {
        ListModel(modelMt, 0, frames / 2, MigrateType::Movable, 4,
                  false),
        ListModel(modelMt, frames / 2, frames, MigrateType::Unmovable,
                  64, true)};

    Rng rng(GetParam());
    std::vector<Pfn> held;
    struct
    {
        Pfn lo = 0;
        Pfn hi = 0;
        int side = -1; //!< -1: nothing isolated
    } iso;
    std::uint64_t requests = 0;
    std::uint64_t failures = 0;
    std::uint64_t steals = 0;
    std::uint64_t moves = 0;
    std::uint64_t isolations = 0;
    const auto sideOf = [&](Pfn pfn) { return pfn < model[0].end ? 0 : 1; };
    const auto anyMt = [&] {
        return static_cast<MigrateType>(rng.below(3));
    };
    const auto freeHeld = [&](std::size_t pick) {
        const Pfn head = held[pick];
        const int side = sideOf(head);
        model[side].free(head);
        real[side]->freePages(head);
        held[pick] = held.back();
        held.pop_back();
    };

    for (int step = 0; step < 12000; ++step) {
        const double roll = rng.uniform();
        // Fill for 2000 steps, then drain for 1000, so both the
        // full-machine failure path and the coalescing path run.
        const double allocShare = step % 3000 < 2000 ? 0.75 : 0.3;
        if (roll < allocShare) {
            const auto order = static_cast<unsigned>(
                rng.chance(0.7)   ? 0
                : rng.chance(0.7) ? rng.below(4)
                                  : rng.below(maxOrder + 1));
            const MigrateType mt = anyMt();
            const auto pref = static_cast<AddrPref>(rng.below(3));
            const bool fallback = rng.chance(0.9);
            const int side = static_cast<int>(rng.below(2));
            const std::uint64_t stealsBefore =
                real[side]->stats().fallbackAllocs;
            const Pfn want = model[side].alloc(order, mt, pref, fallback);
            const Pfn got = real[side]->allocPages(
                order, mt, AllocSource::User, 0, pref, fallback);
            ASSERT_EQ(got, want) << "step " << step << " order " << order
                                 << " mt " << static_cast<int>(mt);
            ++requests;
            failures += got == invalidPfn;
            steals += real[side]->stats().fallbackAllocs - stealsBefore;
            if (got != invalidPfn)
                held.push_back(got);
        } else if (roll < 0.94) {
            if (!held.empty())
                freeHeld(rng.below(held.size()));
        } else if (roll < 0.97) {
            // Move the boundary by one pageblock, freeing what is
            // allocated in it first, unless a range is isolated.
            const int from = static_cast<int>(rng.below(2));
            ListModel &give = model[from];
            if (iso.side >= 0 ||
                give.end - give.start <= 2 * pagesPerHuge)
                continue;
            const Pfn lo = from == 0 ? give.end - pagesPerHuge
                                     : give.start;
            const Pfn hi = lo + pagesPerHuge;
            for (std::size_t i = held.size(); i-- > 0;) {
                const Pfn span = Pfn{1} << mem.frame(held[i]).order();
                if (held[i] < hi && held[i] + span > lo)
                    freeHeld(i);
            }
            ASSERT_TRUE(give.fullyFree(lo, hi));
            const MigrateType mt = anyMt();
            model[from].detach(lo, hi);
            real[from]->detachRange(lo, hi);
            model[1 - from].attach(lo, hi, mt);
            real[1 - from]->attachRange(lo, hi, mt);
            ++moves;
        } else if (iso.side < 0) {
            // Isolate one max-order chunk inside either coverage.
            const int side = static_cast<int>(rng.below(2));
            constexpr Pfn chunk = Pfn{1} << maxOrder;
            const Pfn first = (model[side].start + chunk - 1) / chunk;
            const Pfn last = model[side].end / chunk;
            if (first >= last)
                continue;
            const Pfn lo = (first + rng.below(last - first)) * chunk;
            model[side].isolate(lo, lo + chunk);
            real[side]->isolateRange(lo, lo + chunk);
            iso = {lo, lo + chunk, side};
            ++isolations;
        } else {
            const MigrateType mt = anyMt();
            model[iso.side].unisolate(iso.lo, iso.hi, mt);
            real[iso.side]->unisolateRange(iso.lo, iso.hi, mt);
            iso.side = -1;
        }

        for (int side = 0; side < 2; ++side) {
            ASSERT_EQ(real[side]->startPfn(), model[side].start);
            ASSERT_EQ(real[side]->endPfn(), model[side].end);
            for (unsigned mi = 0; mi < numMigrateTypes; ++mi) {
                const auto mt = static_cast<MigrateType>(mi);
                ASSERT_EQ(real[side]->freePageCount(mt),
                          model[side].freePages(mt))
                    << "step " << step << " side " << side << " mt "
                    << mi;
            }
        }
        if (step % 100 == 0 || step == 11999) {
            for (int side = 0; side < 2; ++side) {
                std::vector<std::string> violations;
                ASSERT_EQ(real[side]->auditFreeLists(violations), 0u)
                    << violations.front();
                for (unsigned mi = 0; mi < numMigrateTypes; ++mi)
                    for (unsigned o = 0; o <= maxOrder; ++o)
                        ASSERT_EQ(real[side]->freeBlocks(
                                      static_cast<MigrateType>(mi), o),
                                  model[side].blocks(
                                      static_cast<MigrateType>(mi), o));
                ASSERT_EQ(real[side]->largestFreeOrder(),
                          model[side].largestFreeOrder());
            }
            for (Pfn p = 0; p < frames; p += pagesPerHuge)
                ASSERT_EQ(mem.blockMt(p), modelMt[p / pagesPerHuge]);
        }
        // Halfway through, carry on with restored copies: the order
        // masks they derive from the serialized heads must steer the
        // same picks.
        if (step == 6000) {
            for (auto &buddy : real)
                buddy = restoredCopy(mem, *buddy);
        }
    }
    // The run must have exercised what it claims to check.
    EXPECT_GT(failures, requests / 40);
    EXPECT_LT(failures, requests / 2);
    EXPECT_GT(steals, 100u);
    EXPECT_GT(moves, 50u);
    EXPECT_GT(isolations, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyProperty,
                         ::testing::Values(1, 7, 2024));

/** Hand-edit one word of a serialized allocator. */
void
patchLe(std::vector<std::uint8_t> &bytes, std::size_t at,
        std::uint64_t value, unsigned width)
{
    for (unsigned i = 0; i < width; ++i)
        bytes.at(at + i) = static_cast<std::uint8_t>(value >> (8 * i));
}

TEST(BuddyRestore, HeadsAndBlockCountsMustAgree)
{
    PhysMem mem(32_MiB);
    const std::string name = "r";
    const BuddyAllocator buddy(mem, 0, mem.numFrames(), name);
    serde::Writer out;
    buddy.saveTo(out);
    const std::vector<std::uint8_t> image = out.bytes();
    // Layout: start, end, name (u64 length + bytes), claim flag,
    // scan cap, then the heads and the free and block counters.
    const std::size_t headsAt = 8 + 8 + 8 + name.size() + 1 + 4;
    const std::size_t lists = numMigrateTypes * (maxOrder + 1);
    const std::size_t countsAt = headsAt + 4 * lists + 8 * numMigrateTypes;
    const auto slot = [](MigrateType mt, unsigned order) {
        return static_cast<unsigned>(mt) * (maxOrder + 1) + order;
    };
    const auto restores = [&](const std::vector<std::uint8_t> &bytes) {
        serde::Reader in(bytes);
        try {
            const BuddyAllocator copy(mem, in);
            return copy.largestFreeOrder() == static_cast<int>(maxOrder);
        } catch (const serde::Error &) {
            return false;
        }
    };
    ASSERT_TRUE(restores(image));
    {
        // A block counted on a list with no head.
        std::vector<std::uint8_t> bytes = image;
        patchLe(bytes, countsAt + 8 * slot(MigrateType::Unmovable, 0), 1,
                8);
        EXPECT_FALSE(restores(bytes));
    }
    {
        // A head on a list that counts no blocks.
        std::vector<std::uint8_t> bytes = image;
        patchLe(bytes, headsAt + 4 * slot(MigrateType::Movable, 0), 0, 4);
        EXPECT_FALSE(restores(bytes));
    }
    {
        // The max-order movable list emptied in the counter only.
        std::vector<std::uint8_t> bytes = image;
        patchLe(bytes, countsAt + 8 * slot(MigrateType::Movable, maxOrder),
                0, 8);
        EXPECT_FALSE(restores(bytes));
    }
}

/** Scattered unmovable pages poison disproportionate 2 MB blocks —
 * the paper's amplification effect (7.6% of pages -> 34% of
 * blocks). */
TEST(BuddyScattering, UnmovableAmplification)
{
    PhysMem mem(512_MiB);
    BuddyAllocator buddy(mem, 0, mem.numFrames(), "scatter");
    Rng rng(42);

    // Reproduce the production mechanism: memory runs nearly full of
    // churning movable pages; bursts of short-lived unmovable
    // allocations steal whatever free blocks exist at the time, and
    // each burst leaves behind one long-lived survivor page. Over
    // many bursts the survivors end up sprinkled across different
    // pageblocks.
    std::vector<Pfn> movable;
    const std::uint64_t target_fill = mem.numFrames() * 96 / 100;
    while (buddy.freePageCount() > mem.numFrames() - target_fill) {
        const Pfn p = buddy.allocPages(0, MigrateType::Movable,
                                       AllocSource::User);
        ASSERT_NE(p, invalidPfn);
        movable.push_back(p);
    }

    std::vector<Pfn> survivors;
    for (int round = 0; round < 150; ++round) {
        // Movable churn rearranges the free lists between bursts.
        for (int i = 0; i < 400; ++i) {
            const std::size_t idx = rng.below(movable.size());
            buddy.freePages(movable[idx]);
            movable[idx] = movable.back();
            movable.pop_back();
        }
        for (int i = 0; i < 400; ++i) {
            const Pfn p = buddy.allocPages(0, MigrateType::Movable,
                                           AllocSource::User);
            if (p != invalidPfn)
                movable.push_back(p);
        }
        // Unmovable burst: 64 pages, one survives.
        std::vector<Pfn> burst;
        for (int i = 0; i < 64; ++i) {
            const Pfn p = buddy.allocPages(0, MigrateType::Unmovable,
                                           AllocSource::Slab);
            if (p != invalidPfn)
                burst.push_back(p);
        }
        if (!burst.empty()) {
            survivors.push_back(
                burst[rng.below(burst.size())]);
            for (const Pfn p : burst) {
                if (p != survivors.back())
                    buddy.freePages(p);
            }
        }
    }
    for (const Pfn p : movable)
        buddy.freePages(p);

    const double page_ratio = mem.stats().unmovablePageRatio(
        0, mem.numFrames());
    const double block_ratio = mem.stats().unmovableBlockFraction(
        0, mem.numFrames(), scan::order2M);
    // Scattering amplification: the block-level contamination must
    // exceed the page-level ratio by a wide margin (paper: 7.6% of
    // pages contaminate 34% of 2 MB blocks, ~4.5x).
    EXPECT_GT(page_ratio, 0.0);
    EXPECT_GT(block_ratio, 2.0 * page_ratio);
}

} // namespace
} // namespace ctg
