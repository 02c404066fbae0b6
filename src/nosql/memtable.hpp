#pragma once
// In-memory sorted write buffer of a tablet. Mutations land here; when
// the buffer reaches the table's flush threshold the tablet performs a
// minor compaction, turning the memtable into an immutable RFile.
//
// The buffer is an arena-backed skiplist shaped like LevelDB's
// SkipList/Arena, read the way Accumulo's in-memory map is read:
//
//  - One writer at a time; the tablet mutex serializes writers. A node
//    is fully written before it is linked, links are published with
//    release stores, and a linked node never changes or moves.
//  - Readers take no lock. They follow the links with acquire loads.
//  - Every entry carries the sequence number of the mutation that wrote
//    it. All updates of one mutation share one number, and the
//    memtable's count advances only after the last of them is linked.
//  - A reader pins the count once (MemtablePin) and skips every entry
//    newer than it, as Accumulo's PartialMutationSkippingIterator does.
//    A pin therefore costs O(1), sees each mutation whole or not at
//    all, and stays exact while the writer keeps inserting.
//  - Identical keys (same cell, timestamp and delete flag) do not
//    overwrite in place, since an older pin may still need the old
//    value. The newer entry is linked before the older one and a reader
//    returns only the newest entry it can see, so the last write still
//    wins. Shadowed entries still occupy the arena and count toward the
//    flush threshold (node_count()).
//
// Entries are never freed one by one: the arena goes when the last
// reference to the memtable does. A tablet that flushes or freezes its
// memtable therefore starts a fresh one instead of clearing it, because
// readers may still hold the old one.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "nosql/iterator.hpp"
#include "nosql/key.hpp"
#include "nosql/mutation.hpp"

namespace graphulo::nosql {

class Memtable;

/// A reader's hold on a memtable: the memtable (kept alive, arena
/// included, for as long as the pin or any iterator built from it
/// lives) and the mutation count it saw.
struct MemtablePin {
  std::shared_ptr<const Memtable> memtable;
  std::uint64_t seq = 0;

  /// Sorted iterator over the first `seq` mutations. Of identical keys
  /// it yields only the newest visible entry.
  IterPtr iterator() const;
};

/// Sorted in-memory cell buffer (see the file comment). Must be owned
/// by a shared_ptr to be pinned.
class Memtable : public std::enable_shared_from_this<Memtable> {
 public:
  Memtable() = default;
  Memtable(const Memtable&) = delete;
  Memtable& operator=(const Memtable&) = delete;

  /// Applies one mutation as one sequence number; updates without an
  /// explicit timestamp get `assigned_ts`. Writer side: callers
  /// serialize.
  void apply(const Mutation& mutation, Timestamp assigned_ts);

  /// Inserts one fully-formed cell as its own sequence number
  /// (compactions, splits, checkpoint restore and tests). Writer side.
  void insert(const Key& key, const Value& value);

  /// Pins the current contents in O(1): the mutations applied so far.
  /// Safe from any thread.
  MemtablePin pin() const {
    return {shared_from_this(), seq_.load(std::memory_order_acquire)};
  }

  /// Distinct keys: what a read of the whole memtable returns.
  std::size_t entry_count() const noexcept { return distinct_; }
  /// Every entry in the list, shadowed identical-key ones included:
  /// the size the flush threshold bounds.
  std::size_t node_count() const noexcept { return nodes_; }
  bool empty() const noexcept { return nodes_ == 0; }

  /// Up to `n` evenly spaced row keys (distinct-adjacent, sorted) —
  /// partition-boundary candidates for parallel scans. O(entries) walk,
  /// no value copies. Reads every entry: call it where no write can
  /// race (under the tablet lock, or on a frozen memtable).
  std::vector<std::string> sample_rows(std::size_t n) const;

 private:
  friend struct MemtablePin;
  class Iterator;
  struct Node;

  /// A key as views, so apply() links a mutation's updates without
  /// building Key strings first.
  struct KeyRef {
    std::string_view row;
    std::string_view family;
    std::string_view qualifier;
    std::string_view visibility;
    Timestamp ts = 0;
    bool deleted = false;
  };

  /// LevelDB's geometry: a 1-in-4 chance of each extra level, 12 levels
  /// (ample for the flush threshold's 100K entries).
  static constexpr int kMaxHeight = 12;

  static KeyRef ref(const Key& key) noexcept {
    return {key.row, key.family, key.qualifier, key.visibility, key.ts,
            key.deleted};
  }
  /// Three-way key order of `n` against `k` (Key::operator<=>).
  static int compare(const Node* n, const KeyRef& k) noexcept;
  /// List order: key ascending, then sequence number DESCENDING, so the
  /// newest of identical keys comes first.
  static bool before(const Node* n, const KeyRef& k,
                     std::uint64_t seq) noexcept;

  void add(const KeyRef& key, std::string_view value, std::uint64_t seq);
  int random_height() noexcept;
  char* allocate(std::size_t bytes);

  /// The first node not before (k, seq); `prev`, when given, receives
  /// the last node before it on every level (nullptr = the head).
  Node* find_greater_or_equal(const KeyRef& k, std::uint64_t seq,
                              Node** prev) const;
  Node* first() const noexcept;
  std::atomic<Node*>& link(Node* x, int level) noexcept;
  const std::atomic<Node*>& link(const Node* x, int level) const noexcept;

  std::array<std::atomic<Node*>, kMaxHeight> head_{};
  std::atomic<int> max_height_{1};
  std::atomic<std::uint64_t> seq_{0};
  std::size_t nodes_ = 0;
  std::size_t distinct_ = 0;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;

  // The arena: nodes are carved from fixed-size blocks freed together.
  std::vector<std::unique_ptr<char[]>> blocks_;
  char* alloc_ptr_ = nullptr;
  std::size_t alloc_remaining_ = 0;
};

}  // namespace graphulo::nosql
