/**
 * @file
 * Four-level x86-64 radix page tables.
 *
 * Table pages are real simulated allocations (unmovable, source
 * PageTables) so the Figure 6 breakdown and the fragmentation they
 * cause are captured. Each host-side node mirrors its 4 KB table
 * page: 512 slots indexed directly by the 9-bit radix index. A walk
 * also yields the physical addresses a hardware page walk touches at
 * each level, which the hw simulator uses to charge page-walk memory
 * accesses (Figure 3).
 *
 * Supported leaf sizes mirror x86-64: 4 KB (PTE), 2 MB (PMD leaf)
 * and 1 GB (PUD leaf).
 */

#ifndef CTG_KERNEL_PAGETABLE_HH
#define CTG_KERNEL_PAGETABLE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "kernel/kernel.hh"

namespace ctg
{

namespace serde
{
class Writer;
class Reader;
} // namespace serde

/** Result of a translation lookup. */
struct Translation
{
    bool valid = false;
    Pfn pfn = invalidPfn;   //!< head frame of the leaf mapping
    unsigned order = 0;     //!< 0 (4K), 9 (2M) or 18 (1G)
    unsigned level = 0;     //!< radix level of the leaf (1=PTE..3=PUD)
};

/**
 * One process's radix page tables.
 */
class PageTables
{
  public:
    static constexpr unsigned levels = 4;
    static constexpr unsigned bitsPerLevel = 9;

    explicit PageTables(Kernel &kernel);

    /** Checkpoint restore: adopt a serialized radix tree. Table
     * backing frames are already live in the restored frame table,
     * so this constructor performs no allocations. */
    PageTables(Kernel &kernel, serde::Reader &in);

    ~PageTables();

    PageTables(const PageTables &) = delete;
    PageTables &operator=(const PageTables &) = delete;

    /**
     * Install a leaf mapping vpn -> pfn of the given order
     * (0, hugeOrder or gigaOrder). vpn must be order-aligned.
     * @return false if a table page allocation failed.
     */
    bool map(Vpn vpn, Pfn pfn, unsigned order);

    /** Remove the leaf covering vpn; true if one existed. */
    bool unmap(Vpn vpn);

    /** Repoint an existing leaf at a new frame (migration). */
    bool repoint(Vpn vpn, Pfn new_pfn);

    /** Look up the leaf covering vpn. */
    Translation translate(Vpn vpn) const;

    /** One hardware walk: the translation plus the physical
     * addresses of the table entries read, root first. */
    struct Walk
    {
        Translation translation;
        std::array<Addr, levels> addrs{};
        /** Levels actually traversed: 4 for a 4 KB leaf, 3 for 2 MB,
         * 2 for 1 GB; a miss stops at the first empty entry. */
        unsigned depth = 0;
    };

    /** Walk the tree for vpn once, as the hardware walker does. */
    Walk walk(Vpn vpn) const;

    /** Number of 4 KB leaves in the 2 MB range holding vpn: the used
     * count of its PT page, 0 if it has none. */
    unsigned leaves4kIn(Vpn vpn) const;

    /** The first `limit` 2 MB ranges (as vpn >> hugeOrder), in
     * ascending order, whose PT page maps all 512 base pages. */
    std::vector<Vpn> fullHugeRanges(std::size_t limit) const;

    /**
     * Call fn(head_vpn, translation) for every leaf whose head lies
     * in [lo, hi), in ascending vpn order. fn may unmap or repoint
     * the leaf it is handed but must not map anything.
     */
    template <typename Fn>
    void
    forEachLeaf(Vpn lo, Vpn hi, Fn &&fn)
    {
        visitLeaves(*root_, levels, 0, lo, hi, fn);
    }

    /** Number of live table pages (unmovable PageTables frames). */
    std::uint64_t tablePages() const { return tablePages_; }

    /** Number of live leaf mappings. */
    std::uint64_t mappings() const { return mappings_; }

    /** Serialize the radix tree (checkpoint). */
    void saveTo(serde::Writer &out) const;

  private:
    static constexpr unsigned slotsPerNode = 1u << bitsPerLevel;

    struct Node;

    /** One table entry, at most 16 bytes. */
    struct Slot
    {
        enum class Kind : std::uint8_t
        {
            Empty,
            Leaf,
            Table,
        };

        union
        {
            Pfn pfn;     //!< Leaf: head frame of the mapping
            Node *child; //!< Table: owned next-level node
        };
        std::uint8_t order; //!< Leaf: 0, hugeOrder or gigaOrder
        Kind kind;
    };
    static_assert(sizeof(Slot) <= 16);

    /** Host mirror of one 4 KB table page. */
    struct Node
    {
        Node() : slots{} {}
        /** Deletes owned children (host memory only; returning the
         * backing frames to the kernel is freeNode's job). */
        ~Node();
        Node(const Node &) = delete;
        Node &operator=(const Node &) = delete;

        Pfn backing = invalidPfn; //!< frame holding this table
        unsigned used = 0;        //!< non-Empty slots
        std::array<Slot, slotsPerNode> slots;
    };

    static unsigned indexAt(Vpn vpn, unsigned level);

    std::unique_ptr<Node> allocNode();
    /** Return the node's subtree to the kernel, table pages in
     * index order (children before their parent). */
    void freeNode(std::unique_ptr<Node> node);

    static void saveNode(const Node &node, serde::Writer &out);
    std::unique_ptr<Node> loadNode(serde::Reader &in, unsigned level);

    /** Find the leaf slot covering vpn (and its level), or nullptr. */
    Slot *findLeaf(Vpn vpn, unsigned *level) const;

    static void collectFull(const Node &node, unsigned level, Vpn base,
                            std::size_t limit, std::vector<Vpn> &out);

    template <typename Fn>
    static void
    visitLeaves(const Node &node, unsigned level, Vpn base, Vpn lo,
                Vpn hi, Fn &fn)
    {
        const unsigned shift = (level - 1) * bitsPerLevel;
        const unsigned first =
            lo > base ? static_cast<unsigned>(std::min<Vpn>(
                            (lo - base) >> shift, slotsPerNode))
                      : 0;
        for (unsigned i = first; i < slotsPerNode; ++i) {
            const Vpn start = base + (Vpn{i} << shift);
            if (start >= hi)
                break;
            const Slot &slot = node.slots[i];
            if (slot.kind == Slot::Kind::Table) {
                visitLeaves(*slot.child, level - 1, start, lo, hi, fn);
            } else if (slot.kind == Slot::Kind::Leaf && start >= lo) {
                Translation tr;
                tr.valid = true;
                tr.pfn = slot.pfn;
                tr.order = slot.order;
                tr.level = level;
                fn(start, tr);
            }
        }
    }

    Kernel &kernel_;
    std::unique_ptr<Node> root_;
    std::uint64_t tablePages_ = 0;
    std::uint64_t mappings_ = 0;
};

} // namespace ctg

#endif // CTG_KERNEL_PAGETABLE_HH
