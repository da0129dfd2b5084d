#include "mem/contig_index.hh"

#include <algorithm>

#include "base/logging.hh"

namespace ctg
{

ContigIndex::ContigIndex(const FrameArray &frames)
    : frames_(frames), n_(frames.size()), leaf_(n_, 0),
      leafSrc_(n_, 0)
{
    for (unsigned level = 1; level <= topLevel; ++level) {
        const std::uint64_t nodes =
            (n_ + (std::uint64_t{1} << level) - 1) >> level;
        levels_[level - 1].assign(nodes, Node{});
        queued_[level - 1].assign(nodes, false);
    }
    // Default-constructed frames are neither free nor unmovable, so
    // the zeroed tree already matches them; publish the real state.
    resync(0, n_);
}

ContigIndex::Node
ContigIndex::nodeFromLeaves(std::uint64_t index) const
{
    Node node;
    const Pfn lo = index << 1;
    const Pfn hi = std::min<Pfn>(lo + 2, n_);
    for (Pfn pfn = lo; pfn < hi; ++pfn) {
        const std::uint8_t bits = leaf_[pfn];
        node.free += (bits & LeafFree) ? 1 : 0;
        node.unmov += (bits & LeafUnmovable) ? 1 : 0;
        node.pinned += (bits & LeafPinned) ? 1 : 0;
        node.movableMt += (bits & LeafMovableMt) ? 1 : 0;
    }
    // A level-1 node is a fully-free order-1 block only when both of
    // its frames exist and are free; one free frame still yields a
    // fully-free order-0 block.
    node.maxFF = node.free == 2 ? 1 : (node.free == 1 ? 0 : -1);
    return node;
}

ContigIndex::Node
ContigIndex::nodeFromChildren(unsigned level,
                              std::uint64_t index) const
{
    const std::vector<Node> &children = levels_[level - 2];
    const std::uint64_t c0 = index << 1;
    Node node = children[c0];
    std::int8_t child_max = children[c0].maxFF;
    if (c0 + 1 < children.size()) {
        const Node &c1 = children[c0 + 1];
        node.free += c1.free;
        node.unmov += c1.unmov;
        node.pinned += c1.pinned;
        node.movableMt += c1.movableMt;
        node.mixed += c1.mixed;
        child_max = std::max(child_max, c1.maxFF);
    }
    const std::uint64_t span = std::uint64_t{1} << level;
    // free == span implies the node covers span whole frames, so the
    // in-machine check is implicit.
    node.maxFF = node.free == span ? static_cast<std::int8_t>(level)
                                   : child_max;
    if (level == hugeOrder) {
        // The pageblock level defines "mixed" from its own counts
        // (children carry zero): some free space and some
        // movable-allocated frames — the compactRange evacuation
        // predicate, taint notwithstanding.
        const std::uint64_t base = index << level;
        const std::uint64_t coverage =
            std::min<std::uint64_t>(span, n_ - base);
        const std::uint64_t movable_alloc =
            coverage - node.free - node.unmov;
        node.mixed = (node.free > 0 && movable_alloc > 0) ? 1 : 0;
    }
    return node;
}

void
ContigIndex::resync(Pfn lo, Pfn hi)
{
    ctg_assert(lo <= hi && hi <= n_);
    if (lo == hi)
        return;
    ++resyncCalls_;
    framesRescanned_ += hi - lo;

    // Leaf pass: diff the frame truth against the cached snapshot,
    // apply the page-granular deltas to the machine-wide totals, and
    // queue the level-1 node of every frame whose tree bits moved (a
    // source change alone only moves bySource_).
    std::vector<bool> &queued = queued_[0];
    for (Pfn pfn = lo; pfn < hi; ++pfn) {
        const std::uint16_t m = frames_.meta(pfn);
        const std::uint8_t bits = leafBits(m);
        const std::uint8_t src = static_cast<std::uint8_t>(
            (m >> FrameArray::metaSrcShift) &
            FrameArray::metaSrcMask);
        const std::uint8_t old = leaf_[pfn];
        if (bits == old &&
            (!(bits & LeafUnmovable) || src == leafSrc_[pfn]))
            continue;
        freePages_ += static_cast<std::uint64_t>(
            int((bits & LeafFree) != 0) - int((old & LeafFree) != 0));
        unmovablePages_ += static_cast<std::uint64_t>(
            int((bits & LeafUnmovable) != 0) -
            int((old & LeafUnmovable) != 0));
        pinnedPages_ += static_cast<std::uint64_t>(
            int((bits & LeafPinned) != 0) -
            int((old & LeafPinned) != 0));
        if (old & LeafUnmovable)
            --bySource_[leafSrc_[pfn]];
        if (bits & LeafUnmovable)
            ++bySource_[src];
        leaf_[pfn] = bits;
        leafSrc_[pfn] = src;
        const std::uint64_t node = pfn >> 1;
        if (bits != old && !queued[node]) {
            queued[node] = true;
            dirty_.push_back(node);
        }
    }
}

void
ContigIndex::flush() const
{
    if (dirty_.empty())
        return;
    ++folds_;

    // Recompute each queued node from the level below; full<->partial
    // and clean<->tainted transitions of in-machine nodes adjust the
    // per-order global counters, and only a node that changed queues
    // its parent.
    for (unsigned level = 1; level <= topLevel && !dirty_.empty();
         ++level) {
        std::vector<Node> &nodes = levels_[level - 1];
        std::vector<bool> &queued = queued_[level - 1];
        const std::uint64_t span = std::uint64_t{1} << level;
        nextDirty_.clear();
        for (const std::uint64_t i : dirty_) {
            queued[i] = false;
            const Node fresh = level == 1
                                   ? nodeFromLeaves(i)
                                   : nodeFromChildren(level, i);
            Node &node = nodes[i];
            if (fresh == node)
                continue;
            if (nodeInMachine(level, i)) {
                fullFree_[level] += static_cast<std::uint64_t>(
                    int(fresh.free == span) - int(node.free == span));
                tainted_[level] += static_cast<std::uint64_t>(
                    int(fresh.unmov > 0) - int(node.unmov > 0));
            }
            node = fresh;
            if (level < topLevel && !queued_[level][i >> 1]) {
                queued_[level][i >> 1] = true;
                nextDirty_.push_back(i >> 1);
            }
        }
        nodesFolded_ += dirty_.size();
        dirty_.swap(nextDirty_);
    }
}

bool
ContigIndex::operator==(const ContigIndex &other) const
{
    flush();
    other.flush();
    return n_ == other.n_ && leaf_ == other.leaf_ &&
           leafSrc_ == other.leafSrc_ &&
           freePages_ == other.freePages_ &&
           unmovablePages_ == other.unmovablePages_ &&
           pinnedPages_ == other.pinnedPages_ &&
           bySource_ == other.bySource_ &&
           levels_ == other.levels_ && fullFree_ == other.fullFree_ &&
           tainted_ == other.tainted_;
}

std::uint64_t
ContigIndex::fullyFreeBlocks(unsigned order) const
{
    flush();
    if (order == 0)
        return freePages_;
    ctg_assert(order <= topLevel);
    return fullFree_[order];
}

std::uint64_t
ContigIndex::taintedBlocks(unsigned order) const
{
    flush();
    if (order == 0)
        return unmovablePages_;
    ctg_assert(order <= topLevel);
    return tainted_[order];
}

namespace
{

/** Greedy aligned-block decomposition of [lo, hi): invoke fn(level,
 * index) for maximal aligned power-of-two blocks covering the range.
 * Level 0 blocks are single frames (index == pfn). */
template <typename Fn>
void
decompose(Pfn lo, Pfn hi, unsigned top_level, Fn fn)
{
    Pfn pfn = lo;
    while (pfn < hi) {
        unsigned level = top_level;
        while (level > 0 &&
               ((pfn & ((Pfn{1} << level) - 1)) != 0 ||
                pfn + (Pfn{1} << level) > hi)) {
            --level;
        }
        fn(level, pfn >> level);
        pfn += Pfn{1} << level;
    }
}

} // namespace

std::uint64_t
ContigIndex::freePagesIn(Pfn lo, Pfn hi) const
{
    flush();
    ctg_assert(lo <= hi && hi <= n_);
    if (lo == 0 && hi == n_)
        return freePages_;
    std::uint64_t total = 0;
    decompose(lo, hi, topLevel,
              [&](unsigned level, std::uint64_t index) {
                  total += level == 0
                               ? ((leaf_[index] & LeafFree) ? 1 : 0)
                               : levels_[level - 1][index].free;
              });
    return total;
}

std::uint64_t
ContigIndex::unmovablePagesIn(Pfn lo, Pfn hi) const
{
    flush();
    ctg_assert(lo <= hi && hi <= n_);
    if (lo == 0 && hi == n_)
        return unmovablePages_;
    std::uint64_t total = 0;
    decompose(lo, hi, topLevel,
              [&](unsigned level, std::uint64_t index) {
                  total += level == 0
                               ? ((leaf_[index] & LeafUnmovable) ? 1
                                                                 : 0)
                               : levels_[level - 1][index].unmov;
              });
    return total;
}

std::uint64_t
ContigIndex::fullyFreeBlocksIn(Pfn lo, Pfn hi, unsigned order) const
{
    flush();
    const Pfn span = Pfn{1} << order;
    ctg_assert(lo % span == 0 && hi % span == 0);
    ctg_assert(lo <= hi && hi <= n_);
    if (lo == 0 && hi == (n_ & ~(span - 1)))
        return fullyFreeBlocks(order);
    if (order == 0)
        return freePagesIn(lo, hi);
    std::uint64_t blocks = 0;
    const std::vector<Node> &nodes = levels_[order - 1];
    for (std::uint64_t i = lo >> order; i < (hi >> order); ++i)
        blocks += nodes[i].free == span ? 1 : 0;
    return blocks;
}

std::uint64_t
ContigIndex::taintedBlocksIn(Pfn lo, Pfn hi, unsigned order) const
{
    flush();
    const Pfn span = Pfn{1} << order;
    ctg_assert(lo % span == 0 && hi % span == 0);
    ctg_assert(lo <= hi && hi <= n_);
    if (lo == 0 && hi == (n_ & ~(span - 1)))
        return taintedBlocks(order);
    if (order == 0)
        return unmovablePagesIn(lo, hi);
    std::uint64_t blocks = 0;
    const std::vector<Node> &nodes = levels_[order - 1];
    for (std::uint64_t i = lo >> order; i < (hi >> order); ++i)
        blocks += nodes[i].unmov > 0 ? 1 : 0;
    return blocks;
}

std::uint32_t
ContigIndex::nodeFreePages(unsigned order, std::uint64_t index) const
{
    flush();
    ctg_assert(order >= 1 && order <= topLevel);
    ctg_assert(index < levels_[order - 1].size());
    return levels_[order - 1][index].free;
}

std::uint32_t
ContigIndex::nodeUnmovablePages(unsigned order,
                                std::uint64_t index) const
{
    flush();
    ctg_assert(order >= 1 && order <= topLevel);
    ctg_assert(index < levels_[order - 1].size());
    return levels_[order - 1][index].unmov;
}

std::uint64_t
ContigIndex::movableMtPagesIn(Pfn lo, Pfn hi) const
{
    flush();
    ctg_assert(lo <= hi && hi <= n_);
    std::uint64_t total = 0;
    decompose(lo, hi, topLevel,
              [&](unsigned level, std::uint64_t index) {
                  total +=
                      level == 0
                          ? ((leaf_[index] & LeafMovableMt) ? 1 : 0)
                          : levels_[level - 1][index].movableMt;
              });
    return total;
}

ContigIndex::BlockClass
ContigIndex::blockClass(Pfn pfn) const
{
    flush();
    ctg_assert(pfn < n_);
    const std::uint64_t index = pfn >> hugeOrder;
    const Node &node = levels_[hugeOrder - 1][index];
    const std::uint64_t base = index << hugeOrder;
    const std::uint32_t coverage = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(pagesPerHuge, n_ - base));
    BlockClass cls;
    cls.free = node.free;
    cls.unmovable = node.unmov;
    cls.pinned = node.pinned;
    cls.movableAlloc = coverage - node.free - node.unmov;
    return cls;
}

std::uint64_t
ContigIndex::mixedBlocksIn(Pfn lo, Pfn hi) const
{
    flush();
    ctg_assert(lo % pagesPerHuge == 0 && hi % pagesPerHuge == 0);
    ctg_assert(lo <= hi && hi <= n_);
    std::uint64_t total = 0;
    decompose(lo, hi, topLevel,
              [&](unsigned level, std::uint64_t index) {
                  // Pageblock-aligned bounds decompose into blocks of
                  // level >= hugeOrder, where `mixed` is meaningful.
                  ctg_assert(level >= hugeOrder);
                  total += levels_[level - 1][index].mixed;
              });
    return total;
}

Pfn
ContigIndex::findMixedRec(unsigned level, std::uint64_t index, Pfn lo,
                          Pfn hi) const
{
    const Pfn base = Pfn{index} << level;
    const Pfn cover_end = std::min<Pfn>(base + (Pfn{1} << level), n_);
    if (std::max(base, lo) >= std::min(cover_end, hi))
        return invalidPfn;
    const Node &node = levels_[level - 1][index];
    if (node.mixed == 0)
        return invalidPfn;
    // With pageblock-aligned bounds, a level-hugeOrder node that
    // intersects the range lies fully inside it.
    if (level == hugeOrder)
        return base;
    const std::uint64_t c0 = index << 1;
    const Pfn left = findMixedRec(level - 1, c0, lo, hi);
    if (left != invalidPfn)
        return left;
    if (c0 + 1 < levels_[level - 2].size())
        return findMixedRec(level - 1, c0 + 1, lo, hi);
    return invalidPfn;
}

Pfn
ContigIndex::firstMixedBlock(Pfn lo, Pfn hi) const
{
    flush();
    ctg_assert(lo % pagesPerHuge == 0 && hi % pagesPerHuge == 0);
    ctg_assert(lo <= hi && hi <= n_);
    if (lo >= hi)
        return invalidPfn;
    const std::uint64_t t1 = (hi - 1) >> topLevel;
    for (std::uint64_t ti = lo >> topLevel; ti <= t1; ++ti) {
        const Pfn r = findMixedRec(topLevel, ti, lo, hi);
        if (r != invalidPfn)
            return r;
    }
    return invalidPfn;
}

Pfn
ContigIndex::findSpanRec(unsigned level, std::uint64_t index, Pfn lo,
                         Pfn hi, unsigned order, bool highest) const
{
    const Pfn base = Pfn{index} << level;
    const Pfn cover_end = std::min<Pfn>(base + (Pfn{1} << level), n_);
    if (std::max(base, lo) >= std::min(cover_end, hi))
        return invalidPfn;
    const Node &node = levels_[level - 1][index];
    if (node.maxFF < static_cast<std::int8_t>(order))
        return invalidPfn;
    // At the target level, maxFF >= order means this very node is a
    // fully-free aligned order-block; span-aligned bounds plus
    // intersection guarantee it lies fully inside [lo, hi).
    if (level == order)
        return base;
    const std::uint64_t c0 = index << 1;
    const std::uint64_t kids[2] = {highest ? c0 + 1 : c0,
                                   highest ? c0 : c0 + 1};
    for (const std::uint64_t ci : kids) {
        if (ci >= levels_[level - 2].size())
            continue;
        const Pfn r =
            findSpanRec(level - 1, ci, lo, hi, order, highest);
        if (r != invalidPfn)
            return r;
    }
    return invalidPfn;
}

Pfn
ContigIndex::firstFullyFreeSpan(unsigned order, Pfn lo, Pfn hi,
                                AddrPref pref) const
{
    flush();
    ctg_assert(order <= topLevel);
    ctg_assert(lo <= hi && hi <= n_);
    const Pfn span = Pfn{1} << order;
    lo = (lo + span - 1) & ~(span - 1);
    hi &= ~(span - 1);
    if (lo >= hi)
        return invalidPfn;
    const bool highest = pref == AddrPref::High;
    if (order == 0) {
        return findFrame(
            lo, hi, highest,
            [](const Node &node, Pfn) { return node.free > 0; },
            [](std::uint8_t bits) {
                return (bits & LeafFree) != 0;
            });
    }
    const std::uint64_t t0 = lo >> topLevel;
    const std::uint64_t t1 = (hi - 1) >> topLevel;
    if (!highest) {
        for (std::uint64_t ti = t0; ti <= t1; ++ti) {
            const Pfn r =
                findSpanRec(topLevel, ti, lo, hi, order, false);
            if (r != invalidPfn)
                return r;
        }
    } else {
        for (std::uint64_t ti = t1 + 1; ti > t0;) {
            const Pfn r =
                findSpanRec(topLevel, --ti, lo, hi, order, true);
            if (r != invalidPfn)
                return r;
        }
    }
    return invalidPfn;
}

template <typename NodeHas, typename LeafHas>
Pfn
ContigIndex::findFrameRec(unsigned level, std::uint64_t index, Pfn lo,
                          Pfn hi, bool highest,
                          const NodeHas &nodeHas,
                          const LeafHas &leafHas) const
{
    const Pfn base = Pfn{index} << level;
    const Pfn cover_end = std::min<Pfn>(base + (Pfn{1} << level), n_);
    const Pfn a = std::max(base, lo);
    const Pfn b = std::min(cover_end, hi);
    if (a >= b)
        return invalidPfn;
    const Node &node = levels_[level - 1][index];
    if (!nodeHas(node, cover_end - base))
        return invalidPfn;
    if (level == 1) {
        if (!highest) {
            for (Pfn p = a; p < b; ++p) {
                if (leafHas(leaf_[p]))
                    return p;
            }
        } else {
            for (Pfn p = b; p > a;) {
                if (leafHas(leaf_[--p]))
                    return p;
            }
        }
        return invalidPfn;
    }
    const std::uint64_t c0 = index << 1;
    const std::uint64_t kids[2] = {highest ? c0 + 1 : c0,
                                   highest ? c0 : c0 + 1};
    for (const std::uint64_t ci : kids) {
        if (ci >= levels_[level - 2].size())
            continue;
        const Pfn r = findFrameRec(level - 1, ci, lo, hi, highest,
                                   nodeHas, leafHas);
        if (r != invalidPfn)
            return r;
    }
    return invalidPfn;
}

template <typename NodeHas, typename LeafHas>
Pfn
ContigIndex::findFrame(Pfn lo, Pfn hi, bool highest,
                       NodeHas &&nodeHas, LeafHas &&leafHas) const
{
    ctg_assert(lo <= hi && hi <= n_);
    if (lo >= hi)
        return invalidPfn;
    const std::uint64_t t0 = lo >> topLevel;
    const std::uint64_t t1 = (hi - 1) >> topLevel;
    if (!highest) {
        for (std::uint64_t ti = t0; ti <= t1; ++ti) {
            const Pfn r = findFrameRec(topLevel, ti, lo, hi, false,
                                       nodeHas, leafHas);
            if (r != invalidPfn)
                return r;
        }
    } else {
        for (std::uint64_t ti = t1 + 1; ti > t0;) {
            const Pfn r = findFrameRec(topLevel, --ti, lo, hi, true,
                                       nodeHas, leafHas);
            if (r != invalidPfn)
                return r;
        }
    }
    return invalidPfn;
}

Pfn
ContigIndex::firstAllocatedFrame(Pfn lo, Pfn hi) const
{
    flush();
    return findFrame(
        lo, hi, /*highest=*/false,
        [](const Node &node, Pfn coverage) {
            return node.free < coverage;
        },
        [](std::uint8_t bits) { return (bits & LeafFree) == 0; });
}

Pfn
ContigIndex::firstUnmovableFrame(Pfn lo, Pfn hi) const
{
    flush();
    return findFrame(
        lo, hi, /*highest=*/false,
        [](const Node &node, Pfn) { return node.unmov > 0; },
        [](std::uint8_t bits) {
            return (bits & LeafUnmovable) != 0;
        });
}

Pfn
ContigIndex::firstMovableMtFrame(Pfn lo, Pfn hi) const
{
    flush();
    return findFrame(
        lo, hi, /*highest=*/false,
        [](const Node &node, Pfn) { return node.movableMt > 0; },
        [](std::uint8_t bits) {
            return (bits & LeafMovableMt) != 0;
        });
}

} // namespace ctg
