// Copy-on-write B+tree: MiniRDB's one index container (DESIGN.md §15).
//
// An ordered set of (key, row id) entries, ordered by key under `Order`
// (a three-way comparison) with ties broken by row id.  A multimap from
// key to rows is therefore a set, and erase() names exactly one entry.
// The primary-key index (int64 → RowId) and both secondary-index kinds
// (Value → RowId under Value::index_order) are instances of it.
//
// Structural sharing follows RowStore: nodes live behind shared_ptrs and
// every child slot carries a writer-private `owned` flag.  publish()
// marks the root shared and returns a tree that shares every node.  The
// writer copies a shared node the first time a mutation passes through
// it, so the first insert or erase after a publish copies only the nodes
// on its root-to-leaf path — O(log n), never the index — and no node a
// published tree can reach is ever written.
//
// A full node splits at the insertion point, keeping at least half the
// node on the left, not always in the middle.  Appends at the right edge
// (surrogate keys, `pre` labels) and at the end of a run of equal keys
// (row ids ascend) then leave full nodes behind them instead of half-full
// ones, so trees stay shallow and the first append after a publish copies
// one short spine.
//
// Deletion is lazy: an emptied node is unlinked, underfull nodes are not
// merged (separators stay valid lower bounds).  Bulk builds — index
// creation, rebuilds, snapshot restore — pack sorted entries bottom-up.
//
// Thread-safety: one writer; any number of readers of published trees.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <vector>

namespace xr::rdb {

using RowId = std::uint32_t;

template <typename Key, typename Order>
class CowBTree {
public:
    static constexpr std::size_t kMaxEntries = 64;   ///< per leaf
    static constexpr std::size_t kMaxChildren = 64;  ///< per inner node

    struct Entry {
        Key key;
        RowId id = 0;
    };

    CowBTree() = default;
    CowBTree(CowBTree&&) noexcept = default;
    CowBTree& operator=(CowBTree&&) noexcept = default;
    // A copy would make two trees believe they own the same nodes;
    // publish() is the only way to share.
    CowBTree(const CowBTree&) = delete;
    CowBTree& operator=(const CowBTree&) = delete;

    [[nodiscard]] std::size_t size() const { return size_; }
    /// Nodes copied on write since construction (MVCC metric).
    [[nodiscard]] std::uint64_t nodes_cowed() const { return nodes_cowed_; }
    /// Levels from the root to the leaves (0 when empty).
    [[nodiscard]] std::size_t height() const {
        std::size_t h = 0;
        for (const Node* n = root_.node.get(); n != nullptr;
             n = n->leaf ? nullptr : n->kids.front().node.get())
            ++h;
        return h;
    }

    /// Insert (key, id); false, with the contents unchanged, when that
    /// exact entry is already present.
    bool insert(Key key, RowId id) {
        if (root_.node == nullptr) root_ = Child{new_node(true), true};
        bool inserted = false;
        std::optional<Split> split =
            insert_into(own(root_), std::move(key), id, inserted);
        if (split) {
            auto top = new_node(false);
            top->entries.push_back(std::move(split->separator));
            top->kids.push_back(std::move(root_));
            top->kids.push_back(Child{std::move(split->right), true});
            root_ = Child{std::move(top), true};
        }
        if (inserted) ++size_;
        return inserted;
    }

    /// Remove (key, id); false when absent.
    bool erase(const Key& key, RowId id) {
        if (root_.node == nullptr || !erase_from(own(root_), key, id))
            return false;
        --size_;
        if (size_ == 0) {
            root_ = Child{};
            return true;
        }
        while (!root_.node->leaf && root_.node->kids.size() == 1) {
            Child only = std::move(root_.node->kids.front());
            root_ = std::move(only);
        }
        return true;
    }

    /// Replace the contents with `entries` (any order, no duplicates),
    /// packed bottom-up into full nodes.  Shared nodes are not copied,
    /// just released.
    void build(std::vector<Entry> entries) {
        auto lt = [](const Entry& a, const Entry& b) {
            return compare(a, b.key, b.id) < 0;
        };
        if (!std::is_sorted(entries.begin(), entries.end(), lt))
            std::sort(entries.begin(), entries.end(), lt);
        root_ = Child{};
        size_ = entries.size();
        if (entries.empty()) return;
        std::vector<Child> level;
        std::vector<Entry> lows;  ///< first entry under each node of `level`
        for (std::size_t i = 0; i < entries.size(); i += kMaxEntries) {
            auto leaf = new_node(true);
            auto first = entries.begin() + static_cast<std::ptrdiff_t>(i);
            auto last = entries.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(i + kMaxEntries,
                                                       entries.size()));
            leaf->entries.assign(std::make_move_iterator(first),
                                 std::make_move_iterator(last));
            lows.push_back(leaf->entries.front());
            level.push_back(Child{std::move(leaf), true});
        }
        while (level.size() > 1) {
            std::vector<Child> up;
            std::vector<Entry> up_lows;
            for (std::size_t i = 0; i < level.size(); i += kMaxChildren) {
                auto inner = new_node(false);
                std::size_t end = std::min(i + kMaxChildren, level.size());
                for (std::size_t j = i; j < end; ++j) {
                    if (j > i) inner->entries.push_back(std::move(lows[j]));
                    inner->kids.push_back(std::move(level[j]));
                }
                up_lows.push_back(std::move(lows[i]));
                up.push_back(Child{std::move(inner), true});
            }
            level = std::move(up);
            lows = std::move(up_lows);
        }
        root_ = std::move(level.front());
    }

    /// Mark every node shared and return a tree sharing all of them, for
    /// a frozen version.  Writer-side only.
    [[nodiscard]] CowBTree publish() {
        root_.owned = false;
        CowBTree out;
        out.root_ = Child{root_.node, false};
        out.size_ = size_;
        return out;
    }

    /// Visit entries in order, starting at the first one `before` rejects,
    /// until `fn` returns false.  `before(entry)` must hold on a prefix of
    /// the order (e.g. "key < k"); inner nodes are skipped by the same
    /// test on their separators.
    template <typename Before, typename Fn>
    void scan(const Before& before, Fn&& fn) const {
        if (root_.node != nullptr) scan_node(*root_.node, before, fn, true);
    }

    /// Visit every entry in order until `fn` returns false.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        scan([](const Entry&) { return false; }, fn);
    }

    /// Row id of the first entry whose key equals `key`.  One descent;
    /// only when an equal key may begin the next leaf does it fall back to
    /// a scan.
    [[nodiscard]] std::optional<RowId> find(const Key& key) const {
        auto before = [&](const Entry& e) { return Order{}(e.key, key) < 0; };
        const Node* n = root_.node.get();
        const Entry* bound = nullptr;  ///< nearest separator right of `n`
        if (n == nullptr) return std::nullopt;
        while (!n->leaf) {
            std::size_t i = count_before(n->entries, before);
            if (i < n->entries.size()) bound = &n->entries[i];
            n = n->kids[i].node.get();
        }
        std::size_t pos = count_before(n->entries, before);
        if (pos < n->entries.size()) {
            const Entry& e = n->entries[pos];
            if (Order{}(e.key, key) != 0) return std::nullopt;
            return e.id;
        }
        // Every entry here sorts before `key`, and everything after this
        // leaf sorts at or after `bound`.
        if (bound == nullptr || Order{}(bound->key, key) != 0)
            return std::nullopt;
        std::optional<RowId> out;
        scan(before, [&](const Entry& e) {
            if (Order{}(e.key, key) == 0) out = e.id;
            return false;
        });
        return out;
    }

private:
    struct Node;
    struct Child {
        std::shared_ptr<Node> node;
        bool owned = true;  ///< writer-private: no published tree reaches it
    };
    struct Node {
        bool leaf = true;
        /// Leaf: the entries, sorted.  Inner: separators — entries[i] is
        /// a lower bound of every entry under kids[i + 1] and an upper
        /// bound (exclusive) of every entry under kids[i].
        std::vector<Entry> entries;
        std::vector<Child> kids;  ///< inner nodes only
    };
    struct Split {
        Entry separator;  ///< lower bound of `right`
        std::shared_ptr<Node> right;
    };

    static std::strong_ordering compare(const Entry& e, const Key& key,
                                        RowId id) {
        std::strong_ordering c = Order{}(e.key, key);
        return c != 0 ? c : e.id <=> id;
    }

    static std::shared_ptr<Node> new_node(bool leaf) {
        auto n = std::make_shared<Node>();
        n->leaf = leaf;
        if (leaf) {
            n->entries.reserve(kMaxEntries + 1);
        } else {
            n->entries.reserve(kMaxChildren);
            n->kids.reserve(kMaxChildren + 1);
        }
        return n;
    }

    /// The node behind `c`, copied first when a published tree shares
    /// it.  The copy's children become shared (two parents reach them).
    Node& own(Child& c) {
        if (!c.owned) {
            auto copy = new_node(c.node->leaf);
            copy->entries.assign(c.node->entries.begin(), c.node->entries.end());
            copy->kids.assign(c.node->kids.begin(), c.node->kids.end());
            for (Child& k : copy->kids) k.owned = false;
            c.node = std::move(copy);
            c.owned = true;
            ++nodes_cowed_;
        }
        return *c.node;
    }

    /// Length of the prefix of `v` on which `before` holds (a binary
    /// search whose steps select instead of branch).
    template <typename Before>
    static std::size_t count_before(const std::vector<Entry>& v,
                                    const Before& before) {
        if (v.empty()) return 0;
        const Entry* base = v.data();
        for (std::size_t n = v.size(); n > 1;) {
            std::size_t half = n / 2;
            base = before(base[half]) ? base + half : base;
            n -= half;
        }
        return static_cast<std::size_t>(base - v.data()) + (before(*base) ? 1 : 0);
    }

    /// Number of entries (or separators) in `v` that sort before (key,
    /// id) — or, with `inclusive`, at or before it.
    static std::size_t rank(const std::vector<Entry>& v, const Key& key,
                            RowId id, bool inclusive) {
        return count_before(v, [&](const Entry& e) {
            std::strong_ordering c = compare(e, key, id);
            return inclusive ? c <= 0 : c < 0;
        });
    }

    std::optional<Split> insert_into(Node& n, Key&& key, RowId id,
                                     bool& inserted) {
        if (n.leaf) {
            std::size_t pos = rank(n.entries, key, id, false);
            if (pos < n.entries.size() &&
                compare(n.entries[pos], key, id) == 0)
                return std::nullopt;
            n.entries.insert(n.entries.begin() + static_cast<std::ptrdiff_t>(pos),
                             Entry{std::move(key), id});
            inserted = true;
            if (n.entries.size() <= kMaxEntries) return std::nullopt;
            std::size_t cut = std::max(pos, n.entries.size() / 2);
            Split split{Entry{}, new_node(true)};
            auto first = n.entries.begin() + static_cast<std::ptrdiff_t>(cut);
            split.right->entries.assign(std::make_move_iterator(first),
                                        std::make_move_iterator(n.entries.end()));
            n.entries.erase(first, n.entries.end());
            split.separator = split.right->entries.front();
            return split;
        }
        std::size_t i = rank(n.entries, key, id, true);
        std::optional<Split> below =
            insert_into(own(n.kids[i]), std::move(key), id, inserted);
        if (!below) return std::nullopt;
        n.entries.insert(n.entries.begin() + static_cast<std::ptrdiff_t>(i),
                         std::move(below->separator));
        n.kids.insert(n.kids.begin() + static_cast<std::ptrdiff_t>(i + 1),
                      Child{std::move(below->right), true});
        if (n.kids.size() <= kMaxChildren) return std::nullopt;
        // kids[cut..] move right; separator cut-1 moves up.
        std::size_t cut = std::max(i + 1, n.kids.size() / 2);
        Split split{std::move(n.entries[cut - 1]), new_node(false)};
        auto kid0 = n.kids.begin() + static_cast<std::ptrdiff_t>(cut);
        auto sep0 = n.entries.begin() + static_cast<std::ptrdiff_t>(cut);
        split.right->kids.assign(std::make_move_iterator(kid0),
                                 std::make_move_iterator(n.kids.end()));
        split.right->entries.assign(std::make_move_iterator(sep0),
                                    std::make_move_iterator(n.entries.end()));
        n.kids.erase(kid0, n.kids.end());
        n.entries.erase(sep0 - 1, n.entries.end());
        return split;
    }

    /// True when (key, id) was found and removed.  An emptied child is
    /// unlinked from `n` together with one adjacent separator.
    bool erase_from(Node& n, const Key& key, RowId id) {
        if (n.leaf) {
            std::size_t pos = rank(n.entries, key, id, false);
            if (pos == n.entries.size() ||
                compare(n.entries[pos], key, id) != 0)
                return false;
            n.entries.erase(n.entries.begin() + static_cast<std::ptrdiff_t>(pos));
            return true;
        }
        std::size_t i = rank(n.entries, key, id, true);
        Node& kid = own(n.kids[i]);
        if (!erase_from(kid, key, id)) return false;
        if (kid.leaf ? kid.entries.empty() : kid.kids.empty()) {
            n.kids.erase(n.kids.begin() + static_cast<std::ptrdiff_t>(i));
            if (!n.entries.empty())
                n.entries.erase(n.entries.begin() +
                                static_cast<std::ptrdiff_t>(i == 0 ? 0 : i - 1));
        }
        return true;
    }

    template <typename Before, typename Fn>
    static bool scan_node(const Node& n, const Before& before, Fn& fn,
                          bool seek) {
        if (n.leaf) {
            auto it = n.entries.begin() + static_cast<std::ptrdiff_t>(
                                              seek ? count_before(n.entries, before)
                                                   : 0);
            for (; it != n.entries.end(); ++it)
                if (!fn(*it)) return false;
            return true;
        }
        std::size_t i = seek ? count_before(n.entries, before) : 0;
        for (; i < n.kids.size(); ++i) {
            if (!scan_node(*n.kids[i].node, before, fn, seek)) return false;
            seek = false;
        }
        return true;
    }

    Child root_;
    std::size_t size_ = 0;
    std::uint64_t nodes_cowed_ = 0;
};

}  // namespace xr::rdb
