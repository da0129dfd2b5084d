/**
 * @file
 * Incremental per-order contiguity accounting (DESIGN.md §11).
 *
 * The paper's fleet metrics (Figures 4, 5, 11, 12) were originally
 * computed by full scans over the frame array, re-run for four block
 * orders on every sampler tick of every server — the dominant
 * wall-clock cost of a population run. The ContigIndex replaces the
 * rescans with two layers over the frame array:
 *
 *  - a *word* per 64 frames holding one bit-plane per predicate
 *    (free, unmovable, pinned, movable migratetype) plus the three
 *    AllocSource bits of each unmovable frame. Blocks of order 0-6
 *    are answered from a word with masks, AND/OR folds and popcounts;
 *  - a buddy-style binary tree from level 7 (128 frames, two words)
 *    up to the 1 GB level: each node covers an aligned 2^L-frame
 *    block and holds the number of free, unmovable, pinned and
 *    movable-migratetype frames inside it.
 *
 * Global per-order counters track how many aligned blocks are fully
 * free or contain at least one unmovable page, for every order.
 *
 * The index is *derived state*: it never interprets allocator
 * semantics. Mutation sites re-publish the frame range they touched
 * via resync(), which only marks the range's words dirty in a bitmap
 * (O(words), no frame is read). The first read folds: it re-derives
 * each dirty word once from the packed frame meta column, applies the
 * popcount deltas of its planes to the page and per-order totals, and
 * folds the changed words up the tree level by level, visiting each
 * dirty node once no matter how many mutations touched it. Because
 * every bit is recomputed from the same predicate the legacy scanners
 * use (PageFrame::isFree / isUnmovableAllocation), every read sees
 * state bit-identical to a fresh full scan, including across
 * fault-injected rollbacks; the MemAuditor cross-checks this.
 *
 * Reads: every read, page totals included, first folds whatever is
 * dirty (O(dirty words + dirty nodes)); after that, whole-machine
 * per-order queries are O(1) and arbitrary [lo, hi) ranges are
 * answered from tree nodes and word masks in O(range / 2^order +
 * log n) without touching the frame array.
 *
 * Descent queries (DESIGN.md §12): beyond counting, the tree supports
 * positional search — "first mixed pageblock at or after lo", "first
 * (lowest or highest) fully-free aligned order-o block", "first
 * allocated/unmovable/movable-migratetype frame" — by descending from
 * the top level and pruning subtrees whose aggregates rule out a hit,
 * then finishing inside a word with count-trailing/leading-zeros. Two
 * extra per-node aggregates make the pruning exact: `mixed` counts
 * compaction-worthy pageblocks (>= 1 free and >= 1 movable-allocated
 * frame) in the subtree, and `maxFF` is the largest order j such that
 * the subtree contains a fully-free aligned order-j block. The
 * mutation hot paths (compactRange, region resizing, findContigRange,
 * exact-AddrPref popFree) are built on these.
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
    /** Order of one bit-plane word (64 frames); orders 0..wordOrder
     * are answered inside words, the tree starts one level above. */
    static constexpr unsigned wordOrder = 6;

    /**
     * Mark frames [lo, hi) as changed: their words are re-derived
     * from the frame array by the fold the next read performs. Every
     * code path that mutates a frame's free/unmovable/pinned/source
     * state must call this (via PhysMem::noteFramesChanged) before
     * the next metric read. O(words in the range); reads no frame.
     */
    void resync(Pfn lo, Pfn hi);

    /** @{ Whole-machine counters: O(1) after the fold. */
    std::uint64_t numFrames() const { return n_; }
    std::uint64_t freePages() const;
    std::uint64_t unmovablePages() const;
    std::uint64_t pinnedPages() const;
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
    unmovableBySource() const;
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

    /** Same derived state as another index: words, page totals,
     * every tree node and the per-order block counters (maintenance
     * counters excluded). Folds both sides first. */
    bool operator==(const ContigIndex &other) const;

    /** Heap and object bytes the index holds (words, tree, dirty
     * bitmap, fold queues). */
    std::uint64_t bytes() const;

    /** @{ Maintenance counters (observability). */
    /** resync() calls that marked a non-empty range. */
    std::uint64_t resyncCalls() const { return resyncCalls_; }
    /** Frames re-read from the frame array by folds. */
    std::uint64_t framesRescanned() const { return framesRescanned_; }
    /** Folds run (reads that found dirty words). */
    std::uint64_t folds() const { return folds_; }
    /** Tree nodes (level 7 and up) recomputed by those folds. */
    std::uint64_t nodesFolded() const { return nodesFolded_; }
    /** @} */

  private:
    static constexpr Pfn wordFrames = Pfn{1} << wordOrder;
    /** Lowest tree level: a node spans two words. */
    static constexpr unsigned nodeLevel0 = wordOrder + 1;

    /** Bit-planes of 64 frames: bit i of a plane is frame
     * (word index * 64 + i). Frames past the end of the machine have
     * every bit clear. src holds the AllocSource of each unmovable
     * frame, one plane per source bit (clear for other frames), so
     * two words are equal exactly when their frames classify the
     * same. */
    struct alignas(64) Word
    {
        std::uint64_t free = 0;
        std::uint64_t unmov = 0;
        std::uint64_t pinned = 0;
        /** Allocated frames with MigrateType::Movable (pin state
         * ignored — the region-confinement predicate). */
        std::uint64_t movableMt = 0;
        std::array<std::uint64_t, 3> src{};

        bool operator==(const Word &) const = default;
    };
    static_assert(sizeof(Word) == 64);

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
        std::uint32_t movableMt = 0;
        /** Mixed pageblocks (>= 1 free, >= 1 movable-allocated
         * frame) in the subtree. Zero below level hugeOrder. */
        std::uint32_t mixed = 0;
        /** Largest order j such that the subtree contains a
         * fully-free aligned order-j block; -1 when no frame is
         * free. */
        std::int8_t maxFF = -1;

        bool operator==(const Node &) const = default;
    };

    /** Re-derive the dirty words from the frame array, apply their
     * deltas to the totals and the order 1..wordOrder block
     * counters, and fold the changed words up the tree level by
     * level. A parent is recomputed only when a child actually
     * changed: a parent is a function of its children alone, so an
     * unchanged child cannot move it. Every public read calls this
     * first. */
    void flush() const;

    /** Word `w` recomputed from the frame meta column. */
    Word deriveWord(std::uint64_t w) const;
    /** Apply the difference between words_[w] and `fresh` to the
     * totals and store it; true when a tree-visible plane moved. */
    bool applyWord(std::uint64_t w, const Word &fresh) const;

    /** Level-nodeLevel0 node `index` recomputed from its words. */
    Node nodeFromWords(std::uint64_t index) const;
    /** Node at `level` > nodeLevel0 recomputed from its children. */
    Node nodeFromChildren(unsigned level, std::uint64_t index) const;

    const Node &
    node(unsigned level, std::uint64_t index) const
    {
        return levels_[level - nodeLevel0][index];
    }
    std::uint64_t
    levelSize(unsigned level) const
    {
        return levels_[level - nodeLevel0].size();
    }

    /** Frames of word w that exist, as a plane mask. */
    std::uint64_t validMask(std::uint64_t w) const;
    /** Starts of the aligned order-blocks of word w that lie wholly
     * inside the machine (order <= wordOrder). */
    std::uint64_t inMachineStarts(std::uint64_t w,
                                  unsigned order) const;

    /** Call onNode(level, index) and onWord(word, mask) for a cover
     * of [lo, hi) by maximal aligned tree nodes and partial words. */
    template <typename OnNode, typename OnWord>
    void decompose(Pfn lo, Pfn hi, OnNode &&onNode,
                   OnWord &&onWord) const;

    /** Frames in [lo, hi) set in plane(word); node(n) gives the same
     * count for a whole tree node. */
    template <typename Plane, typename NodeCount>
    std::uint64_t countIn(Pfn lo, Pfn hi, Plane &&plane,
                          NodeCount &&nodeCount) const;

    /** Aligned order-blocks (1 <= order <= wordOrder) in the
     * order-aligned range [lo, hi) whose frames are all (allOf) or
     * at least one (!allOf) set in plane(word). */
    template <typename Plane>
    std::uint64_t blocksInWords(Pfn lo, Pfn hi, unsigned order,
                                bool allOf, Plane &&plane) const;

    /** Generic first/last-frame descent: nodeHas(node, coverage)
     * says whether the subtree can contain a hit, plane(word) gives
     * the hit bits of one word. Exact node predicates make the
     * pruning lossless. Defined in the .cc (only instantiated
     * there). */
    template <typename NodeHas, typename Plane>
    Pfn findFrame(Pfn lo, Pfn hi, bool highest, NodeHas &&nodeHas,
                  Plane &&plane) const;
    template <typename NodeHas, typename Plane>
    Pfn findFrameRec(unsigned level, std::uint64_t index, Pfn lo,
                     Pfn hi, bool highest, const NodeHas &nodeHas,
                     const Plane &plane) const;

    /** Subtree descent for firstMixedBlock (stops at level
     * hugeOrder). */
    Pfn findMixedRec(unsigned level, std::uint64_t index, Pfn lo,
                     Pfn hi) const;

    /** Subtree descent for firstFullyFreeSpan (stops at level
     * `order`, or in the words for order <= wordOrder, pruning on
     * maxFF). */
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

    // Everything the fold touches is mutable: const reads fold before
    // answering. That is safe without locking because an index
    // belongs to one PhysMem, which belongs to one server driven by
    // one thread at a time (fleet workers own whole servers); nothing
    // reads an index concurrently with another read or a resync().

    mutable std::vector<Word> words_;
    mutable std::uint64_t freePages_ = 0;
    mutable std::uint64_t unmovablePages_ = 0;
    mutable std::uint64_t pinnedPages_ = 0;
    mutable std::array<std::uint64_t, numAllocSources> bySource_{};

    /** levels_[L - nodeLevel0] holds tree level L. */
    mutable std::array<std::vector<Node>, topLevel - wordOrder> levels_;
    /** Indexed by order 1..topLevel (entry 0 unused; order-0 queries
     * answer from the page totals). */
    mutable std::array<std::uint64_t, topLevel + 1> fullFree_{};
    mutable std::array<std::uint64_t, topLevel + 1> tainted_{};
    /** One bit per word: changed since the last fold. */
    mutable std::vector<std::uint64_t> dirtyWords_;
    /** Some dirty bit is set. */
    mutable bool pending_ = false;
    /** Ascending tree nodes of the level being folded, and of the
     * next one (scratch kept across folds). */
    mutable std::vector<std::uint64_t> queue_;
    mutable std::vector<std::uint64_t> nextQueue_;

    std::uint64_t resyncCalls_ = 0;
    mutable std::uint64_t framesRescanned_ = 0;
    mutable std::uint64_t folds_ = 0;
    mutable std::uint64_t nodesFolded_ = 0;
};

} // namespace ctg

#endif // CTG_MEM_CONTIG_INDEX_HH
