#include "mem/contig_index.hh"

#include <algorithm>
#include <bit>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "base/logging.hh"

namespace ctg
{

namespace
{

/** Set bits of x. Without a hardware popcount in the target ISA the
 * compiler emits a libgcc call; the SWAR sum is faster inline. */
inline unsigned
popcount(std::uint64_t x)
{
#if defined(__POPCNT__)
    return static_cast<unsigned>(std::popcount(x));
#else
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
#endif
}

/** Bits [0, bits), bits <= 64. */
inline std::uint64_t
lowMask(unsigned bits)
{
    return bits >= 64 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << bits) - 1;
}

/** Bits [a, b), a <= b <= 64. */
inline std::uint64_t
rangeMask(unsigned a, unsigned b)
{
    return lowMask(b) & ~lowMask(a);
}

/** blockStarts[o]: the bit of each aligned order-o block's first
 * frame within a word. */
constexpr std::uint64_t blockStarts[] = {
    ~std::uint64_t{0},     0x5555555555555555ull, 0x1111111111111111ull,
    0x0101010101010101ull, 0x0001000100010001ull, 0x0000000100000001ull,
    0x0000000000000001ull,
};

/** Start bit of every aligned order-block whose frames are all set
 * in plane. */
inline std::uint64_t
foldAll(std::uint64_t plane, unsigned order)
{
    for (unsigned o = 0; o < order; ++o)
        plane &= plane >> (1u << o);
    return plane & blockStarts[order];
}

/** Start bit of every aligned order-block with any frame set. */
inline std::uint64_t
foldAny(std::uint64_t plane, unsigned order)
{
    for (unsigned o = 0; o < order; ++o)
        plane |= plane >> (1u << o);
    return plane & blockStarts[order];
}

/** Largest order j <= 6 with a fully-set aligned order-j block in
 * the free plane; -1 when no bit is set. */
inline std::int8_t
wordMaxFF(std::uint64_t free)
{
    if (free == 0)
        return -1;
    std::int8_t best = 0;
    for (unsigned o = 1; o <= ContigIndex::wordOrder; ++o) {
        free &= free >> (1u << (o - 1));
        if ((free & blockStarts[o]) == 0)
            break;
        best = static_cast<std::int8_t>(o);
    }
    return best;
}

/** AllocSource of frame `bit` of a word's source planes. */
inline unsigned
sourceOf(const std::array<std::uint64_t, 3> &src, unsigned bit)
{
    return static_cast<unsigned>(((src[0] >> bit) & 1) |
                                 (((src[1] >> bit) & 1) << 1) |
                                 (((src[2] >> bit) & 1) << 2));
}

static_assert(FrameArray::metaSrcMask == 0x7,
              "a word keeps three source planes");
static_assert(static_cast<unsigned>(MigrateType::Movable) == 0,
              "the plane derivation tests for migratetype zero");

} // namespace

ContigIndex::ContigIndex(const FrameArray &frames)
    : frames_(frames), n_(frames.size()),
      words_((n_ + wordFrames - 1) >> wordOrder),
      dirtyWords_((words_.size() + 63) >> 6, 0)
{
    for (unsigned level = nodeLevel0; level <= topLevel; ++level) {
        const std::uint64_t nodes =
            (n_ + (std::uint64_t{1} << level) - 1) >> level;
        levels_[level - nodeLevel0].assign(nodes, Node{});
    }
    // Every existing frame sets a bit in some plane, so no real word
    // equals the zeroed one: the first fold recomputes all of them.
    resync(0, n_);
}

ContigIndex::Word
ContigIndex::deriveWord(std::uint64_t w) const
{
    const Pfn base = w << wordOrder;
    const std::uint16_t *meta = frames_.metaColumn() + base;
    const unsigned count =
        static_cast<unsigned>(std::min<Pfn>(wordFrames, n_ - base));
    Word out;
#if defined(__SSE2__)
    if (count == wordFrames) {
        // Eight frames per vector: each predicate becomes an all-ones
        // or all-zeros 16-bit lane, two vectors pack to 16 bytes and
        // movemask gathers one bit per frame.
        const __m128i zero = _mm_setzero_si128();
        const __m128i free_bit = _mm_set1_epi16(PageFrame::FlagFree);
        const __m128i pin_bit = _mm_set1_epi16(PageFrame::FlagPinned);
        const __m128i mt_bits = _mm_set1_epi16(static_cast<short>(
            FrameArray::metaMtMask << FrameArray::metaMtShift));
        __m128i src_bit[3];
        for (unsigned k = 0; k < 3; ++k) {
            src_bit[k] = _mm_set1_epi16(static_cast<short>(
                1u << (FrameArray::metaSrcShift + k)));
        }
        struct Lanes
        {
            __m128i free, unmov, pinned, movableMt, src[3];
        };
        const auto lanes = [&](const std::uint16_t *p) {
            const __m128i m = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(p));
            Lanes l;
            l.free = _mm_cmpeq_epi16(_mm_and_si128(m, free_bit),
                                     free_bit);
            const __m128i pin =
                _mm_cmpeq_epi16(_mm_and_si128(m, pin_bit), pin_bit);
            const __m128i movable =
                _mm_cmpeq_epi16(_mm_and_si128(m, mt_bits), zero);
            l.pinned = _mm_andnot_si128(l.free, pin);
            l.movableMt = _mm_andnot_si128(l.free, movable);
            // Allocated and (not Movable or pinned).
            l.unmov = _mm_andnot_si128(
                l.free,
                _mm_or_si128(_mm_cmpeq_epi16(movable, zero), pin));
            for (unsigned k = 0; k < 3; ++k) {
                l.src[k] = _mm_and_si128(
                    l.unmov,
                    _mm_cmpeq_epi16(_mm_and_si128(m, src_bit[k]),
                                    src_bit[k]));
            }
            return l;
        };
        const auto gather = [](__m128i a, __m128i b) {
            return static_cast<std::uint64_t>(static_cast<unsigned>(
                _mm_movemask_epi8(_mm_packs_epi16(a, b))));
        };
        for (unsigned g = 0; g < wordFrames / 16; ++g) {
            const Lanes a = lanes(meta + 16 * g);
            const Lanes b = lanes(meta + 16 * g + 8);
            const unsigned shift = 16 * g;
            out.free |= gather(a.free, b.free) << shift;
            out.unmov |= gather(a.unmov, b.unmov) << shift;
            out.pinned |= gather(a.pinned, b.pinned) << shift;
            out.movableMt |= gather(a.movableMt, b.movableMt) << shift;
            for (unsigned k = 0; k < 3; ++k)
                out.src[k] |= gather(a.src[k], b.src[k]) << shift;
        }
        return out;
    }
#endif
    // Same predicates the legacy scanners evaluate: a free frame is
    // only free; an allocated one is unmovable when its migratetype
    // is not Movable or it is pinned.
    for (unsigned i = 0; i < count; ++i) {
        const std::uint64_t m = meta[i];
        const std::uint64_t free = (m & PageFrame::FlagFree) != 0;
        const std::uint64_t alloc = free ^ 1;
        const std::uint64_t pin = (m & PageFrame::FlagPinned) != 0;
        const std::uint64_t movable =
            ((m >> FrameArray::metaMtShift) & FrameArray::metaMtMask) ==
            0;
        const std::uint64_t unmov = alloc & ((movable ^ 1) | pin);
        out.free |= free << i;
        out.unmov |= unmov << i;
        out.pinned |= (alloc & pin) << i;
        out.movableMt |= (alloc & movable) << i;
        for (unsigned k = 0; k < 3; ++k) {
            out.src[k] |=
                (unmov & (m >> (FrameArray::metaSrcShift + k))) << i;
        }
    }
    return out;
}

bool
ContigIndex::applyWord(std::uint64_t w, const Word &fresh) const
{
    Word &old = words_[w];
    if (fresh == old)
        return false;
    // Totals move by popcount differences (modulo 2^64, so a
    // transient wrap is harmless); orders 1..wordOrder by the
    // differences of the folded planes.
    if (fresh.free != old.free) {
        freePages_ = freePages_ + popcount(fresh.free) -
                     popcount(old.free);
        std::uint64_t a = fresh.free, b = old.free;
        for (unsigned o = 1; o <= wordOrder; ++o) {
            const unsigned half = 1u << (o - 1);
            a &= a >> half;
            b &= b >> half;
            // Frames past the machine are never free, so a fully
            // free block always lies inside it.
            fullFree_[o] = fullFree_[o] + popcount(a & blockStarts[o]) -
                           popcount(b & blockStarts[o]);
        }
    }
    if (fresh.unmov != old.unmov) {
        unmovablePages_ = unmovablePages_ + popcount(fresh.unmov) -
                          popcount(old.unmov);
        std::uint64_t a = fresh.unmov, b = old.unmov;
        for (unsigned o = 1; o <= wordOrder; ++o) {
            const unsigned half = 1u << (o - 1);
            a |= a >> half;
            b |= b >> half;
            const std::uint64_t starts = inMachineStarts(w, o);
            tainted_[o] = tainted_[o] + popcount(a & starts) -
                          popcount(b & starts);
        }
    }
    if (fresh.pinned != old.pinned) {
        pinnedPages_ = pinnedPages_ + popcount(fresh.pinned) -
                       popcount(old.pinned);
    }
    // Per-source counts, one frame at a time over the frames whose
    // unmovable bit or source moved.
    std::uint64_t moved = (fresh.unmov ^ old.unmov) |
                          ((fresh.src[0] ^ old.src[0]) |
                           (fresh.src[1] ^ old.src[1]) |
                           (fresh.src[2] ^ old.src[2]));
    while (moved != 0) {
        const unsigned bit =
            static_cast<unsigned>(std::countr_zero(moved));
        moved &= moved - 1;
        if ((old.unmov >> bit) & 1)
            --bySource_[sourceOf(old.src, bit)];
        if ((fresh.unmov >> bit) & 1)
            ++bySource_[sourceOf(fresh.src, bit)];
    }
    const bool tree_moved = fresh.free != old.free ||
                            fresh.unmov != old.unmov ||
                            fresh.pinned != old.pinned ||
                            fresh.movableMt != old.movableMt;
    old = fresh;
    return tree_moved;
}

std::uint64_t
ContigIndex::inMachineStarts(std::uint64_t w, unsigned order) const
{
    const Pfn base = w << wordOrder;
    if (base + wordFrames <= n_)
        return blockStarts[order];
    const Pfn valid = n_ - base;
    const Pfn span = Pfn{1} << order;
    if (valid < span)
        return 0;
    return blockStarts[order] &
           lowMask(static_cast<unsigned>(valid - span + 1));
}

ContigIndex::Node
ContigIndex::nodeFromWords(std::uint64_t index) const
{
    Node node;
    std::int8_t child_max = -1;
    const std::uint64_t w0 = index << 1;
    const std::uint64_t w1 =
        std::min<std::uint64_t>(w0 + 2, words_.size());
    for (std::uint64_t w = w0; w < w1; ++w) {
        const Word &word = words_[w];
        node.free += popcount(word.free);
        node.unmov += popcount(word.unmov);
        node.pinned += popcount(word.pinned);
        node.movableMt += popcount(word.movableMt);
        child_max = std::max(child_max, wordMaxFF(word.free));
    }
    node.maxFF = node.free == (std::uint64_t{1} << nodeLevel0)
                     ? static_cast<std::int8_t>(nodeLevel0)
                     : child_max;
    return node;
}

ContigIndex::Node
ContigIndex::nodeFromChildren(unsigned level,
                              std::uint64_t index) const
{
    const std::vector<Node> &children = levels_[level - 1 - nodeLevel0];
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
    pending_ = true;
    const std::uint64_t w0 = lo >> wordOrder;
    const std::uint64_t w1 = (hi - 1) >> wordOrder;
    const std::uint64_t b0 = w0 >> 6;
    const std::uint64_t b1 = w1 >> 6;
    const unsigned first = static_cast<unsigned>(w0 & 63);
    const unsigned last = static_cast<unsigned>(w1 & 63) + 1;
    if (b0 == b1) {
        dirtyWords_[b0] |= rangeMask(first, last);
        return;
    }
    dirtyWords_[b0] |= ~lowMask(first);
    std::fill(dirtyWords_.begin() + static_cast<std::ptrdiff_t>(b0 + 1),
              dirtyWords_.begin() + static_cast<std::ptrdiff_t>(b1),
              ~std::uint64_t{0});
    dirtyWords_[b1] |= lowMask(last);
}

void
ContigIndex::flush() const
{
    if (!pending_)
        return;
    pending_ = false;
    ++folds_;

    // Re-derive each dirty word once, in ascending order, so the
    // level-nodeLevel0 queue comes out sorted and a parent shared by
    // two changed words is queued once.
    queue_.clear();
    for (std::uint64_t b = 0; b < dirtyWords_.size(); ++b) {
        std::uint64_t bits = dirtyWords_[b];
        if (bits == 0)
            continue;
        dirtyWords_[b] = 0;
        do {
            const std::uint64_t w =
                (b << 6) | static_cast<unsigned>(std::countr_zero(bits));
            bits &= bits - 1;
            framesRescanned_ +=
                std::min<Pfn>(wordFrames, n_ - (w << wordOrder));
            if (applyWord(w, deriveWord(w)) &&
                (queue_.empty() || queue_.back() != w >> 1)) {
                queue_.push_back(w >> 1);
            }
        } while (bits != 0);
    }

    // Recompute each queued node from the level below; full<->partial
    // and clean<->tainted transitions of in-machine nodes adjust the
    // per-order global counters, and only a node that changed queues
    // its parent.
    for (unsigned level = nodeLevel0;
         level <= topLevel && !queue_.empty(); ++level) {
        std::vector<Node> &nodes = levels_[level - nodeLevel0];
        const std::uint64_t span = std::uint64_t{1} << level;
        nextQueue_.clear();
        for (const std::uint64_t i : queue_) {
            const Node fresh = level == nodeLevel0
                                   ? nodeFromWords(i)
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
            if (nextQueue_.empty() || nextQueue_.back() != i >> 1)
                nextQueue_.push_back(i >> 1);
        }
        nodesFolded_ += queue_.size();
        queue_.swap(nextQueue_);
    }
}

bool
ContigIndex::operator==(const ContigIndex &other) const
{
    flush();
    other.flush();
    return n_ == other.n_ && words_ == other.words_ &&
           freePages_ == other.freePages_ &&
           unmovablePages_ == other.unmovablePages_ &&
           pinnedPages_ == other.pinnedPages_ &&
           bySource_ == other.bySource_ &&
           levels_ == other.levels_ && fullFree_ == other.fullFree_ &&
           tainted_ == other.tainted_;
}

std::uint64_t
ContigIndex::bytes() const
{
    std::uint64_t total = sizeof(*this) +
                          words_.capacity() * sizeof(Word) +
                          dirtyWords_.capacity() * sizeof(std::uint64_t) +
                          (queue_.capacity() + nextQueue_.capacity()) *
                              sizeof(std::uint64_t);
    for (const std::vector<Node> &level : levels_)
        total += level.capacity() * sizeof(Node);
    return total;
}

std::uint64_t
ContigIndex::freePages() const
{
    flush();
    return freePages_;
}

std::uint64_t
ContigIndex::unmovablePages() const
{
    flush();
    return unmovablePages_;
}

std::uint64_t
ContigIndex::pinnedPages() const
{
    flush();
    return pinnedPages_;
}

const std::array<std::uint64_t, numAllocSources> &
ContigIndex::unmovableBySource() const
{
    flush();
    return bySource_;
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

template <typename OnNode, typename OnWord>
void
ContigIndex::decompose(Pfn lo, Pfn hi, OnNode &&onNode,
                       OnWord &&onWord) const
{
    constexpr Pfn nodeFrames = Pfn{1} << nodeLevel0;
    Pfn pfn = lo;
    while (pfn < hi) {
        if ((pfn & (nodeFrames - 1)) == 0 && hi - pfn >= nodeFrames) {
            // The largest aligned node that starts here and fits
            // (pfn 0 is aligned to every level).
            const unsigned aligned = static_cast<unsigned>(
                std::countr_zero(pfn | (Pfn{1} << 63)));
            const unsigned fits =
                static_cast<unsigned>(std::bit_width(hi - pfn)) - 1;
            const unsigned level =
                std::min<unsigned>({topLevel, aligned, fits});
            onNode(level, pfn >> level);
            pfn += Pfn{1} << level;
            continue;
        }
        const Pfn base = pfn & ~(wordFrames - 1);
        const Pfn end = std::min<Pfn>(hi, base + wordFrames);
        onWord(pfn >> wordOrder,
               rangeMask(static_cast<unsigned>(pfn - base),
                         static_cast<unsigned>(end - base)));
        pfn = end;
    }
}

template <typename Plane, typename NodeCount>
std::uint64_t
ContigIndex::countIn(Pfn lo, Pfn hi, Plane &&plane,
                     NodeCount &&nodeCount) const
{
    std::uint64_t total = 0;
    decompose(
        lo, hi,
        [&](unsigned level, std::uint64_t index) {
            total += nodeCount(node(level, index));
        },
        [&](std::uint64_t w, std::uint64_t mask) {
            total += popcount(plane(words_[w]) & mask);
        });
    return total;
}

template <typename Plane>
std::uint64_t
ContigIndex::blocksInWords(Pfn lo, Pfn hi, unsigned order, bool allOf,
                           Plane &&plane) const
{
    std::uint64_t total = 0;
    for (std::uint64_t w = lo >> wordOrder;
         w < (hi + wordFrames - 1) >> wordOrder; ++w) {
        const Pfn base = w << wordOrder;
        const std::uint64_t bits = plane(words_[w]);
        const std::uint64_t starts =
            allOf ? foldAll(bits, order) : foldAny(bits, order);
        // Order-aligned bounds: a block starting in range ends in it.
        total += popcount(
            starts &
            rangeMask(static_cast<unsigned>(std::max(lo, base) - base),
                      static_cast<unsigned>(
                          std::min(hi, base + wordFrames) - base)));
    }
    return total;
}

std::uint64_t
ContigIndex::freePagesIn(Pfn lo, Pfn hi) const
{
    flush();
    ctg_assert(lo <= hi && hi <= n_);
    if (lo == 0 && hi == n_)
        return freePages_;
    return countIn(
        lo, hi, [](const Word &w) { return w.free; },
        [](const Node &node) { return node.free; });
}

std::uint64_t
ContigIndex::unmovablePagesIn(Pfn lo, Pfn hi) const
{
    flush();
    ctg_assert(lo <= hi && hi <= n_);
    if (lo == 0 && hi == n_)
        return unmovablePages_;
    return countIn(
        lo, hi, [](const Word &w) { return w.unmov; },
        [](const Node &node) { return node.unmov; });
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
    if (order <= wordOrder) {
        return blocksInWords(lo, hi, order, /*allOf=*/true,
                             [](const Word &w) { return w.free; });
    }
    std::uint64_t blocks = 0;
    for (std::uint64_t i = lo >> order; i < (hi >> order); ++i)
        blocks += node(order, i).free == span ? 1 : 0;
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
    if (order <= wordOrder) {
        return blocksInWords(lo, hi, order, /*allOf=*/false,
                             [](const Word &w) { return w.unmov; });
    }
    std::uint64_t blocks = 0;
    for (std::uint64_t i = lo >> order; i < (hi >> order); ++i)
        blocks += node(order, i).unmov > 0 ? 1 : 0;
    return blocks;
}

std::uint32_t
ContigIndex::nodeFreePages(unsigned order, std::uint64_t index) const
{
    flush();
    ctg_assert(order >= 1 && order <= topLevel);
    ctg_assert(index < ((n_ + (Pfn{1} << order) - 1) >> order));
    if (order > wordOrder)
        return node(order, index).free;
    const Pfn base = index << order;
    return popcount((words_[base >> wordOrder].free >>
                     (base & (wordFrames - 1))) &
                    lowMask(1u << order));
}

std::uint32_t
ContigIndex::nodeUnmovablePages(unsigned order,
                                std::uint64_t index) const
{
    flush();
    ctg_assert(order >= 1 && order <= topLevel);
    ctg_assert(index < ((n_ + (Pfn{1} << order) - 1) >> order));
    if (order > wordOrder)
        return node(order, index).unmov;
    const Pfn base = index << order;
    return popcount((words_[base >> wordOrder].unmov >>
                     (base & (wordFrames - 1))) &
                    lowMask(1u << order));
}

std::uint64_t
ContigIndex::movableMtPagesIn(Pfn lo, Pfn hi) const
{
    flush();
    ctg_assert(lo <= hi && hi <= n_);
    return countIn(
        lo, hi, [](const Word &w) { return w.movableMt; },
        [](const Node &node) { return node.movableMt; });
}

ContigIndex::BlockClass
ContigIndex::blockClass(Pfn pfn) const
{
    flush();
    ctg_assert(pfn < n_);
    const std::uint64_t index = pfn >> hugeOrder;
    const Node &block = node(hugeOrder, index);
    const std::uint64_t base = index << hugeOrder;
    const std::uint32_t coverage = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(pagesPerHuge, n_ - base));
    BlockClass cls;
    cls.free = block.free;
    cls.unmovable = block.unmov;
    cls.pinned = block.pinned;
    cls.movableAlloc = coverage - block.free - block.unmov;
    return cls;
}

std::uint64_t
ContigIndex::mixedBlocksIn(Pfn lo, Pfn hi) const
{
    flush();
    ctg_assert(lo % pagesPerHuge == 0 && hi % pagesPerHuge == 0);
    ctg_assert(lo <= hi && hi <= n_);
    std::uint64_t total = 0;
    decompose(
        lo, hi,
        [&](unsigned level, std::uint64_t index) {
            // Pageblock-aligned bounds decompose into blocks of
            // level >= hugeOrder, where `mixed` is meaningful.
            ctg_assert(level >= hugeOrder);
            total += node(level, index).mixed;
        },
        [](std::uint64_t, std::uint64_t) {
            ctg_assert(!"pageblock-aligned bounds reach no word");
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
    if (node(level, index).mixed == 0)
        return invalidPfn;
    // With pageblock-aligned bounds, a level-hugeOrder node that
    // intersects the range lies fully inside it.
    if (level == hugeOrder)
        return base;
    const std::uint64_t c0 = index << 1;
    const Pfn left = findMixedRec(level - 1, c0, lo, hi);
    if (left != invalidPfn)
        return left;
    if (c0 + 1 < levelSize(level - 1))
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

namespace
{

/** Lowest or highest set bit of the frames of word w (at base) that
 * `hits` marks inside [lo, hi), as a pfn; invalidPfn when none. */
inline Pfn
pickInWord(std::uint64_t hits, Pfn base, Pfn lo, Pfn hi, bool highest)
{
    constexpr Pfn frames = Pfn{1} << ContigIndex::wordOrder;
    if (lo >= base + frames || hi <= base)
        return invalidPfn;
    hits &= rangeMask(
        static_cast<unsigned>(std::max(lo, base) - base),
        static_cast<unsigned>(std::min(hi, base + frames) - base));
    if (hits == 0)
        return invalidPfn;
    return base + static_cast<Pfn>(
                      highest ? 63 - std::countl_zero(hits)
                              : std::countr_zero(hits));
}

} // namespace

Pfn
ContigIndex::findSpanRec(unsigned level, std::uint64_t index, Pfn lo,
                         Pfn hi, unsigned order, bool highest) const
{
    const Pfn base = Pfn{index} << level;
    const Pfn cover_end = std::min<Pfn>(base + (Pfn{1} << level), n_);
    if (std::max(base, lo) >= std::min(cover_end, hi))
        return invalidPfn;
    if (node(level, index).maxFF < static_cast<std::int8_t>(order))
        return invalidPfn;
    // At the target level, maxFF >= order means this very node is a
    // fully-free aligned order-block; span-aligned bounds plus
    // intersection guarantee it lies fully inside [lo, hi).
    if (level == order)
        return base;
    const std::uint64_t c0 = index << 1;
    const std::uint64_t kids[2] = {highest ? c0 + 1 : c0,
                                   highest ? c0 : c0 + 1};
    if (level == nodeLevel0) {
        // Orders below the tree: fold the words' free planes.
        for (const std::uint64_t w : kids) {
            if (w >= words_.size())
                continue;
            const Pfn r =
                pickInWord(foldAll(words_[w].free, order),
                           w << wordOrder, lo, hi, highest);
            if (r != invalidPfn)
                return r;
        }
        return invalidPfn;
    }
    for (const std::uint64_t ci : kids) {
        if (ci >= levelSize(level - 1))
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
            [](const Word &w) { return w.free; });
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

template <typename NodeHas, typename Plane>
Pfn
ContigIndex::findFrameRec(unsigned level, std::uint64_t index, Pfn lo,
                          Pfn hi, bool highest,
                          const NodeHas &nodeHas,
                          const Plane &plane) const
{
    const Pfn base = Pfn{index} << level;
    const Pfn cover_end = std::min<Pfn>(base + (Pfn{1} << level), n_);
    if (std::max(base, lo) >= std::min(cover_end, hi))
        return invalidPfn;
    if (!nodeHas(node(level, index), cover_end - base))
        return invalidPfn;
    const std::uint64_t c0 = index << 1;
    const std::uint64_t kids[2] = {highest ? c0 + 1 : c0,
                                   highest ? c0 : c0 + 1};
    if (level == nodeLevel0) {
        for (const std::uint64_t w : kids) {
            if (w >= words_.size())
                continue;
            const Pfn r = pickInWord(plane(words_[w]), w << wordOrder,
                                     lo, hi, highest);
            if (r != invalidPfn)
                return r;
        }
        return invalidPfn;
    }
    for (const std::uint64_t ci : kids) {
        if (ci >= levelSize(level - 1))
            continue;
        const Pfn r = findFrameRec(level - 1, ci, lo, hi, highest,
                                   nodeHas, plane);
        if (r != invalidPfn)
            return r;
    }
    return invalidPfn;
}

template <typename NodeHas, typename Plane>
Pfn
ContigIndex::findFrame(Pfn lo, Pfn hi, bool highest, NodeHas &&nodeHas,
                       Plane &&plane) const
{
    ctg_assert(lo <= hi && hi <= n_);
    if (lo >= hi)
        return invalidPfn;
    const std::uint64_t t0 = lo >> topLevel;
    const std::uint64_t t1 = (hi - 1) >> topLevel;
    if (!highest) {
        for (std::uint64_t ti = t0; ti <= t1; ++ti) {
            const Pfn r = findFrameRec(topLevel, ti, lo, hi, false,
                                       nodeHas, plane);
            if (r != invalidPfn)
                return r;
        }
    } else {
        for (std::uint64_t ti = t1 + 1; ti > t0;) {
            const Pfn r = findFrameRec(topLevel, --ti, lo, hi, true,
                                       nodeHas, plane);
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
    // Frames past the machine lie outside [lo, hi), so the
    // complement of the free plane needs no validity mask.
    return findFrame(
        lo, hi, /*highest=*/false,
        [](const Node &node, Pfn coverage) {
            return node.free < coverage;
        },
        [](const Word &w) { return ~w.free; });
}

Pfn
ContigIndex::firstUnmovableFrame(Pfn lo, Pfn hi) const
{
    flush();
    return findFrame(
        lo, hi, /*highest=*/false,
        [](const Node &node, Pfn) { return node.unmov > 0; },
        [](const Word &w) { return w.unmov; });
}

Pfn
ContigIndex::firstMovableMtFrame(Pfn lo, Pfn hi) const
{
    flush();
    return findFrame(
        lo, hi, /*highest=*/false,
        [](const Node &node, Pfn) { return node.movableMt > 0; },
        [](const Word &w) { return w.movableMt; });
}

} // namespace ctg
