#include "kernel/pagetable.hh"

#include "base/serde.hh"

namespace ctg
{

namespace
{

/** Node level holding a leaf of the given order: 1 = PT (4 KB),
 * 2 = PMD (2 MB), 3 = PUD (1 GB). */
unsigned
leafNodeLevel(unsigned order)
{
    switch (order) {
      case 0:
        return 1;
      case hugeOrder:
        return 2;
      case gigaOrder:
        return 3;
      default:
        panic("unsupported page-table leaf order %u", order);
    }
}

/** Inverse of leafNodeLevel for levels 1-3. */
constexpr unsigned
leafOrderAt(unsigned level)
{
    return (level - 1) * PageTables::bitsPerLevel;
}

} // namespace

PageTables::Node::~Node()
{
    for (Slot &slot : slots) {
        if (slot.kind == Slot::Kind::Table)
            delete slot.child;
    }
}

unsigned
PageTables::indexAt(Vpn vpn, unsigned level)
{
    ctg_assert(level >= 1 && level <= levels);
    return static_cast<unsigned>(
        (vpn >> ((level - 1) * bitsPerLevel)) & (slotsPerNode - 1));
}

PageTables::PageTables(Kernel &kernel)
    : kernel_(kernel)
{
    root_ = allocNode();
    if (!root_)
        fatal("cannot allocate page-table root");
}

PageTables::PageTables(Kernel &kernel, serde::Reader &in)
    : kernel_(kernel)
{
    const std::uint64_t tablePages = in.getU64();
    const std::uint64_t mappings = in.getU64();
    root_ = loadNode(in, levels);
    if (tablePages_ != tablePages || mappings_ != mappings)
        throw serde::Error("pagetable: node/mapping counts disagree "
                           "with serialized tree");
}

PageTables::~PageTables()
{
    freeNode(std::move(root_));
}

void
PageTables::saveNode(const Node &node, serde::Writer &out)
{
    out.putU64(node.backing);
    out.putU32(node.used);
    for (unsigned idx = 0; idx < slotsPerNode; ++idx) {
        const Slot &slot = node.slots[idx];
        if (slot.kind == Slot::Kind::Empty)
            continue;
        const bool leaf = slot.kind == Slot::Kind::Leaf;
        out.putU16(static_cast<std::uint16_t>(idx));
        out.putBool(leaf);
        out.putU32(leaf ? slot.order : 0);
        out.putU64(leaf ? slot.pfn : invalidPfn);
        out.putBool(!leaf);
        if (!leaf)
            saveNode(*slot.child, out);
    }
}

std::unique_ptr<PageTables::Node>
PageTables::loadNode(serde::Reader &in, unsigned level)
{
    if (level == 0)
        throw serde::Error("pagetable: tree deeper than 4 levels");
    auto node = std::make_unique<Node>();
    node->backing = in.getU64();
    ++tablePages_;
    const std::uint32_t count = in.getU32();
    if (count > slotsPerNode)
        throw serde::Error("pagetable: node entry count too large");
    const std::uint64_t numFrames = kernel_.mem().numFrames();
    unsigned prev = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
        const unsigned idx = in.getU16();
        if (idx >= slotsPerNode || (i > 0 && idx <= prev))
            throw serde::Error("pagetable: entry index out of order");
        prev = idx;
        const bool leaf = in.getBool();
        const std::uint32_t order = in.getU32();
        const Pfn pfn = in.getU64();
        const bool hasChild = in.getBool();
        if (leaf == hasChild)
            throw serde::Error("pagetable: leaf/child disagreement");
        Slot &slot = node->slots[idx];
        if (hasChild) {
            if (order != 0 || pfn != invalidPfn)
                throw serde::Error(
                    "pagetable: interior entry carries a leaf target");
            slot.child = loadNode(in, level - 1).release();
            slot.kind = Slot::Kind::Table;
        } else {
            if (level == levels)
                throw serde::Error("pagetable: leaf at the root");
            if (order != leafOrderAt(level))
                throw serde::Error(
                    "pagetable: leaf order does not match its level");
            if (pfn >= numFrames ||
                numFrames - pfn < (std::uint64_t{1} << order))
                throw serde::Error(
                    "pagetable: leaf maps frames past end of memory");
            slot.pfn = pfn;
            slot.order = static_cast<std::uint8_t>(order);
            slot.kind = Slot::Kind::Leaf;
            ++mappings_;
        }
        ++node->used;
    }
    return node;
}

void
PageTables::saveTo(serde::Writer &out) const
{
    out.putU64(tablePages_);
    out.putU64(mappings_);
    saveNode(*root_, out);
}

std::unique_ptr<PageTables::Node>
PageTables::allocNode()
{
    AllocRequest req;
    req.order = 0;
    req.mt = MigrateType::Unmovable;
    req.source = AllocSource::PageTables;
    req.lifetime = Lifetime::Long;
    const Pfn backing = kernel_.allocPages(req);
    if (backing == invalidPfn)
        return nullptr;
    auto node = std::make_unique<Node>();
    node->backing = backing;
    ++tablePages_;
    return node;
}

void
PageTables::freeNode(std::unique_ptr<Node> node)
{
    if (!node)
        return;
    for (Slot &slot : node->slots) {
        if (slot.kind == Slot::Kind::Table) {
            slot.kind = Slot::Kind::Empty;
            freeNode(std::unique_ptr<Node>(slot.child));
        }
    }
    kernel_.freePages(node->backing);
    ctg_assert(tablePages_ > 0);
    --tablePages_;
}

bool
PageTables::map(Vpn vpn, Pfn pfn, unsigned order)
{
    const unsigned leaf_level = leafNodeLevel(order);
    ctg_assert((vpn & ((Vpn{1} << order) - 1)) == 0);

    Node *node = root_.get();
    for (unsigned level = levels; level > leaf_level; --level) {
        Slot &slot = node->slots[indexAt(vpn, level)];
        if (slot.kind == Slot::Kind::Leaf)
            panic("mapping conflict: leaf already present at level %u",
                  level);
        if (slot.kind == Slot::Kind::Empty) {
            std::unique_ptr<Node> child = allocNode();
            if (!child)
                return false;
            slot.child = child.release();
            slot.kind = Slot::Kind::Table;
            ++node->used;
        }
        node = slot.child;
    }

    Slot &slot = node->slots[indexAt(vpn, leaf_level)];
    if (slot.kind == Slot::Kind::Table && slot.child->used == 0) {
        // A lower-level table that was fully unmapped (e.g. before a
        // khugepaged collapse) can be retired in place.
        slot.kind = Slot::Kind::Empty;
        --node->used;
        freeNode(std::unique_ptr<Node>(slot.child));
    }
    ctg_assert(slot.kind == Slot::Kind::Empty);
    slot.pfn = pfn;
    slot.order = static_cast<std::uint8_t>(order);
    slot.kind = Slot::Kind::Leaf;
    ++node->used;
    ++mappings_;
    return true;
}

PageTables::Slot *
PageTables::findLeaf(Vpn vpn, unsigned *leaf_level) const
{
    Node *node = root_.get();
    for (unsigned level = levels; level >= 1; --level) {
        Slot &slot = node->slots[indexAt(vpn, level)];
        if (slot.kind == Slot::Kind::Leaf) {
            *leaf_level = level;
            return &slot;
        }
        if (slot.kind == Slot::Kind::Empty)
            return nullptr;
        node = slot.child;
    }
    return nullptr;
}

bool
PageTables::unmap(Vpn vpn)
{
    Node *node = root_.get();
    for (unsigned level = levels; level >= 1; --level) {
        Slot &slot = node->slots[indexAt(vpn, level)];
        if (slot.kind == Slot::Kind::Empty)
            return false;
        if (slot.kind == Slot::Kind::Leaf) {
            slot.kind = Slot::Kind::Empty;
            --node->used;
            ctg_assert(mappings_ > 0);
            --mappings_;
            return true;
        }
        node = slot.child;
    }
    return false;
}

bool
PageTables::repoint(Vpn vpn, Pfn new_pfn)
{
    unsigned level = 0;
    Slot *slot = findLeaf(vpn, &level);
    if (slot == nullptr)
        return false;
    slot->pfn = new_pfn;
    return true;
}

Translation
PageTables::translate(Vpn vpn) const
{
    Translation result;
    unsigned level = 0;
    const Slot *slot = findLeaf(vpn, &level);
    if (slot == nullptr)
        return result;
    result.valid = true;
    result.order = slot->order;
    result.level = level;
    // Offset within the huge leaf.
    const Vpn mask = (Vpn{1} << slot->order) - 1;
    result.pfn = slot->pfn + (vpn & mask);
    return result;
}

PageTables::Walk
PageTables::walk(Vpn vpn) const
{
    Walk result;
    const Node *node = root_.get();
    for (unsigned level = levels; level >= 1; --level) {
        const unsigned idx = indexAt(vpn, level);
        result.addrs[result.depth++] =
            pfnToAddr(node->backing) + static_cast<Addr>(idx) * 8;
        const Slot &slot = node->slots[idx];
        if (slot.kind == Slot::Kind::Leaf) {
            Translation &tr = result.translation;
            tr.valid = true;
            tr.order = slot.order;
            tr.level = level;
            tr.pfn = slot.pfn + (vpn & ((Vpn{1} << slot.order) - 1));
            break;
        }
        if (slot.kind == Slot::Kind::Empty)
            break;
        node = slot.child;
    }
    return result;
}

unsigned
PageTables::leaves4kIn(Vpn vpn) const
{
    const Node *node = root_.get();
    for (unsigned level = levels; level > 1; --level) {
        const Slot &slot = node->slots[indexAt(vpn, level)];
        if (slot.kind != Slot::Kind::Table)
            return 0;
        node = slot.child;
    }
    return node->used;
}

void
PageTables::collectFull(const Node &node, unsigned level, Vpn base,
                        std::size_t limit, std::vector<Vpn> &out)
{
    const unsigned shift = (level - 1) * bitsPerLevel;
    unsigned seen = 0;
    for (unsigned idx = 0; idx < slotsPerNode && seen < node.used;
         ++idx) {
        const Slot &slot = node.slots[idx];
        if (slot.kind == Slot::Kind::Empty)
            continue;
        ++seen;
        if (slot.kind != Slot::Kind::Table)
            continue;
        const Vpn start = base + (Vpn{idx} << shift);
        if (level == 2) {
            if (slot.child->used == slotsPerNode)
                out.push_back(start >> hugeOrder);
        } else {
            collectFull(*slot.child, level - 1, start, limit, out);
        }
        if (out.size() >= limit)
            return;
    }
}

std::vector<Vpn>
PageTables::fullHugeRanges(std::size_t limit) const
{
    std::vector<Vpn> out;
    if (limit > 0)
        collectFull(*root_, levels, 0, limit, out);
    return out;
}

} // namespace ctg
