/**
 * @file
 * Incremental per-order contiguity accounting (DESIGN.md §11).
 *
 * The paper's fleet metrics (Figures 4, 5, 11, 12) were originally
 * computed by full scans over the frame array, re-run for four block
 * orders on every sampler tick of every server — the dominant
 * wall-clock cost of a population run. The ContigIndex replaces the
 * rescans with a buddy-style binary tree over the frame array: each
 * node at level L covers an aligned 2^L-frame block and holds the
 * number of free, unmovable and pinned frames inside it, and global
 * per-order counters track how many aligned blocks are fully free or
 * contain at least one unmovable page.
 *
 * The index is *derived state*: it never interprets allocator
 * semantics. Mutation sites re-publish the frame range they touched
 * via resync(), which re-reads the per-frame truth (PageFrame flags)
 * and diffs it against a cached per-frame snapshot. That leaf diff is
 * eager — O(range) per call, the same order as the mutation itself —
 * and keeps the machine-wide page totals current. Folding the changes
 * up the tree is deferred: resync() only queues the level-1 nodes
 * whose leaves changed, and the first read that needs the tree folds
 * the whole queue level by level, visiting each dirty node once no
 * matter how many mutations touched it. Because every counter is
 * recomputed from the same predicate the legacy scanners use
 * (PageFrame::isFree / isUnmovableAllocation), every read sees a tree
 * bit-identical to a fresh full scan, including across fault-injected
 * rollbacks; the MemAuditor cross-checks this.
 *
 * Reads: page totals are O(1) and never fold. Every read of the tree
 * or of the per-order block counters first folds whatever is queued
 * (O(dirty nodes) per level); after that, whole-machine per-order
 * queries are O(1) and arbitrary [lo, hi) ranges are answered from
 * tree nodes in O(range / 2^order + log n) without touching the frame
 * array.
 *
 * Descent queries (DESIGN.md §12): beyond counting, the tree supports
 * positional search — "first mixed pageblock at or after lo", "first
 * (lowest or highest) fully-free aligned order-o block", "first
 * allocated/unmovable/movable-migratetype frame" — by descending from
 * the top level and pruning subtrees whose aggregates rule out a hit.
 * Two extra per-node aggregates make the pruning exact: `mixed`
 * counts compaction-worthy pageblocks (>= 1 free and >= 1
 * movable-allocated frame) in the subtree, and `maxFF` is the largest
 * order j such that the subtree contains a fully-free aligned order-j
 * block. The mutation hot paths (compactRange, region resizing,
 * findContigRange, exact-AddrPref popFree) are built on these.
 */

#ifndef CTG_MEM_CONTIG_INDEX_HH
#define CTG_MEM_CONTIG_INDEX_HH

#include <array>
#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "mem/frame.hh"

namespace ctg
{

/** Hierarchical occupancy index over one FrameArray. */
class ContigIndex
{
  public:
    explicit ContigIndex(const FrameArray &frames);

    /** Highest tree level maintained (1 GB blocks). */
    static constexpr unsigned topLevel = gigaOrder;

    /**
     * Re-read frames [lo, hi) from the frame array: update the cached
     * leaves and the machine-wide page totals now, and queue the
     * touched tree nodes for the fold the next tree read performs.
     * Every code path that mutates a frame's free/unmovable/pinned/
     * source state must call this (via PhysMem::noteFramesChanged)
     * before the next metric read.
     */
    void resync(Pfn lo, Pfn hi);

    /** @{ Whole-machine counters, O(1). */
    std::uint64_t numFrames() const { return n_; }
    std::uint64_t freePages() const { return freePages_; }
    std::uint64_t unmovablePages() const { return unmovablePages_; }
    std::uint64_t pinnedPages() const { return pinnedPages_; }
    /** Aligned order-blocks fully inside the machine. */
    std::uint64_t
    alignedBlocks(unsigned order) const
    {
        return n_ >> order;
    }
    /** Fully-free aligned blocks of the given order. */
    std::uint64_t fullyFreeBlocks(unsigned order) const;
    /** Aligned blocks containing at least one unmovable page. */
    std::uint64_t taintedBlocks(unsigned order) const;
    /** Unmovable page counts keyed by AllocSource (Figure 6). */
    const std::array<std::uint64_t, numAllocSources> &
    unmovableBySource() const
    {
        return bySource_;
    }
    /** @} */

    /** @{ Range queries over [lo, hi), exact vs. a fresh scan. */
    std::uint64_t freePagesIn(Pfn lo, Pfn hi) const;
    std::uint64_t unmovablePagesIn(Pfn lo, Pfn hi) const;
    /** lo and hi must be order-aligned (callers trim like the
     * scanners do). */
    std::uint64_t fullyFreeBlocksIn(Pfn lo, Pfn hi,
                                    unsigned order) const;
    std::uint64_t taintedBlocksIn(Pfn lo, Pfn hi,
                                  unsigned order) const;
    /** @} */

    /** @{ Per-node occupancy of one aligned block (order >= 1);
     * index is the block number at that order. Used by the Section
     * 5.2 free-share metric and the auditor. */
    std::uint32_t nodeFreePages(unsigned order,
                                std::uint64_t index) const;
    std::uint32_t nodeUnmovablePages(unsigned order,
                                     std::uint64_t index) const;
    /** @} */

    /** @{ Descent queries (DESIGN.md §12). All are exact against a
     * fresh linear classification of the frame array; the mutation
     * hot paths rely on that for bit-identity with the legacy
     * walks. */

    /** Per-frame classification counts of one pageblock, matching
     * the compactRange classifier: every frame is exactly one of
     * free, unmovable-allocation, or movable-allocation. pinned is a
     * sub-count of unmovable (a pinned allocated frame is an
     * unmovable allocation by definition). */
    struct BlockClass
    {
        std::uint32_t free = 0;
        std::uint32_t unmovable = 0;
        std::uint32_t pinned = 0;
        std::uint32_t movableAlloc = 0;
    };

    /** O(1): classify the pageblock containing pfn. */
    BlockClass blockClass(Pfn pfn) const;

    /** Lowest pageblock base in [lo, hi) with at least one free AND
     * one movable-allocated frame (the blocks compaction evacuates;
     * unmovable taint does not exclude a block, mirroring
     * compactRange). lo and hi must be pageblock-aligned. Returns
     * invalidPfn when none. O(log n). */
    Pfn firstMixedBlock(Pfn lo, Pfn hi) const;

    /** firstMixedBlock after the given block: searches
     * [block + pagesPerHuge, hi). */
    Pfn
    nextMixedBlock(Pfn block, Pfn hi) const
    {
        const Pfn next = block + pagesPerHuge;
        return next >= hi ? invalidPfn : firstMixedBlock(next, hi);
    }

    /** Count of mixed pageblocks in [lo, hi) (pageblock-aligned). */
    std::uint64_t mixedBlocksIn(Pfn lo, Pfn hi) const;

    /** Base of a fully-free aligned order-block within [lo, hi) —
     * the lowest such base, or the highest when pref is
     * AddrPref::High. lo is rounded up and hi down to order
     * alignment first (the legacy scans consider exactly those
     * candidates). Returns invalidPfn when none. O(log n). */
    Pfn firstFullyFreeSpan(unsigned order, Pfn lo, Pfn hi,
                           AddrPref pref = AddrPref::None) const;

    /** Lowest allocated (non-free) frame in [lo, hi), or invalidPfn.
     * O(log n); lets range walks jump over free space. */
    Pfn firstAllocatedFrame(Pfn lo, Pfn hi) const;

    /** Lowest frame in [lo, hi) that is an unmovable allocation. */
    Pfn firstUnmovableFrame(Pfn lo, Pfn hi) const;

    /** Lowest allocated frame in [lo, hi) whose migratetype is
     * Movable (regardless of pin state — the region-confinement
     * audit predicate, not the compaction one). */
    Pfn firstMovableMtFrame(Pfn lo, Pfn hi) const;

    /** Count of allocated Movable-migratetype frames in [lo, hi). */
    std::uint64_t movableMtPagesIn(Pfn lo, Pfn hi) const;

    /** @} */

    /** Same derived state as another index: leaves, page totals,
     * every tree node and the per-order block counters (maintenance
     * counters excluded). Folds both sides first. */
    bool operator==(const ContigIndex &other) const;

    /** @{ Maintenance counters (observability). */
    /** resync() calls that diffed a non-empty range. */
    std::uint64_t resyncCalls() const { return resyncCalls_; }
    std::uint64_t framesRescanned() const { return framesRescanned_; }
    /** Deferred folds run (reads that found queued nodes). */
    std::uint64_t folds() const { return folds_; }
    /** Tree nodes recomputed by those folds, all levels. */
    std::uint64_t nodesFolded() const { return nodesFolded_; }
    /** @} */

  private:
    /** Per-block occupancy counts and search aggregates of one tree
     * node. The aggregates (mixed, maxFF) are derived bottom-up from
     * the children, so the comparison must include them: two nodes
     * with identical counts can differ in where the free frames sit,
     * and the fold relies on operator== to know when a parent's
     * aggregates may have moved. */
    struct Node
    {
        std::uint32_t free = 0;
        std::uint32_t unmov = 0;
        std::uint32_t pinned = 0;
        /** Allocated frames with MigrateType::Movable (pin state
         * ignored — the region-confinement predicate). */
        std::uint32_t movableMt = 0;
        /** Mixed pageblocks (>= 1 free, >= 1 movable-allocated
         * frame) in the subtree. Zero below level hugeOrder. */
        std::uint32_t mixed = 0;
        /** Largest order j such that the subtree contains a
         * fully-free aligned order-j block; -1 when no frame is
         * free. */
        std::int8_t maxFF = -1;

        bool
        operator==(const Node &o) const
        {
            return free == o.free && unmov == o.unmov &&
                   pinned == o.pinned && movableMt == o.movableMt &&
                   mixed == o.mixed && maxFF == o.maxFF;
        }
    };

    static constexpr std::uint8_t LeafFree = 1 << 0;
    static constexpr std::uint8_t LeafUnmovable = 1 << 1;
    static constexpr std::uint8_t LeafPinned = 1 << 2;
    static constexpr std::uint8_t LeafMovableMt = 1 << 3;

    /** Leaf predicate bits of a frame, computed straight from the
     * packed meta word (one load per frame on the resync hot path).
     * Same predicates the legacy scanners evaluate: a free frame is
     * only LeafFree; an allocated one is unmovable when its
     * migratetype is not Movable or it is pinned. */
    static std::uint8_t
    leafBits(std::uint16_t meta)
    {
        if (meta & PageFrame::FlagFree)
            return LeafFree;
        const bool pinned = meta & PageFrame::FlagPinned;
        const bool movable_mt =
            ((meta >> FrameArray::metaMtShift) &
             FrameArray::metaMtMask) ==
            static_cast<std::uint16_t>(MigrateType::Movable);
        std::uint8_t bits = 0;
        if (!movable_mt || pinned)
            bits |= LeafUnmovable;
        if (pinned)
            bits |= LeafPinned;
        if (movable_mt)
            bits |= LeafMovableMt;
        return bits;
    }

    /** Fold the queued level-1 nodes up the tree, level by level,
     * adjusting the per-order block counters. A parent is queued only
     * when a child actually changed: a parent is a function of its
     * children alone, so an unchanged child cannot move it. Every
     * public read of levels_, fullFree_ or tainted_ calls this
     * first. */
    void flush() const;

    /** Node spanned by level-1 node `index`, recomputed from leaves. */
    Node nodeFromLeaves(std::uint64_t index) const;
    /** Node at `level` >= 2 recomputed from its two children. */
    Node nodeFromChildren(unsigned level, std::uint64_t index) const;

    /** Generic first/last-frame descent: nodeHas(node, coverage)
     * says whether the subtree can contain a hit, leafHas(bits) tests
     * one frame. Exact node predicates make the pruning lossless.
     * Defined in the .cc (only instantiated there). */
    template <typename NodeHas, typename LeafHas>
    Pfn findFrame(Pfn lo, Pfn hi, bool highest, NodeHas &&nodeHas,
                  LeafHas &&leafHas) const;
    template <typename NodeHas, typename LeafHas>
    Pfn findFrameRec(unsigned level, std::uint64_t index, Pfn lo,
                     Pfn hi, bool highest, const NodeHas &nodeHas,
                     const LeafHas &leafHas) const;

    /** Subtree descent for firstMixedBlock (stops at level
     * hugeOrder). */
    Pfn findMixedRec(unsigned level, std::uint64_t index, Pfn lo,
                     Pfn hi) const;

    /** Subtree descent for firstFullyFreeSpan (stops at level
     * `order`, pruning on maxFF). */
    Pfn findSpanRec(unsigned level, std::uint64_t index, Pfn lo,
                    Pfn hi, unsigned order, bool highest) const;

    /** True when the node covers only whole in-machine frames, i.e.
     * participates in the per-order global counters (mirrors the
     * scanners' trimming of a partial tail block). */
    bool
    nodeInMachine(unsigned level, std::uint64_t index) const
    {
        return ((index + 1) << level) <= n_;
    }

    const FrameArray &frames_;
    std::uint64_t n_;

    /** Cached per-frame predicate bits (LeafFree/Unmovable/Pinned). */
    std::vector<std::uint8_t> leaf_;
    /** Cached AllocSource of each unmovable frame. */
    std::vector<std::uint8_t> leafSrc_;
    std::uint64_t freePages_ = 0;
    std::uint64_t unmovablePages_ = 0;
    std::uint64_t pinnedPages_ = 0;
    std::array<std::uint64_t, numAllocSources> bySource_{};

    // The tree and everything the deferred fold touches are mutable:
    // const reads fold the queue before answering. That is safe
    // without locking because an index belongs to one PhysMem, which
    // belongs to one server driven by one thread at a time (fleet
    // workers own whole servers); nothing reads an index concurrently
    // with another read or a resync().

    /** levels_[L-1] holds level L (block order L), L in 1..topLevel. */
    mutable std::array<std::vector<Node>, topLevel> levels_;
    /** Indexed by order 1..topLevel (entry 0 unused; order-0 queries
     * answer from the leaf totals). */
    mutable std::array<std::uint64_t, topLevel + 1> fullFree_{};
    mutable std::array<std::uint64_t, topLevel + 1> tainted_{};
    /** Level-1 nodes whose leaves changed since the last fold. */
    mutable std::vector<std::uint64_t> dirty_;
    /** Scratch for the next level's queue during a fold. */
    mutable std::vector<std::uint64_t> nextDirty_;
    /** queued_[L-1][i]: node i of level L is in the current queue,
     * so each node is queued at most once (the queue never outgrows
     * the level even when nothing reads the tree). */
    mutable std::array<std::vector<bool>, topLevel> queued_;

    std::uint64_t resyncCalls_ = 0;
    std::uint64_t framesRescanned_ = 0;
    mutable std::uint64_t folds_ = 0;
    mutable std::uint64_t nodesFolded_ = 0;
};

} // namespace ctg

#endif // CTG_MEM_CONTIG_INDEX_HH
