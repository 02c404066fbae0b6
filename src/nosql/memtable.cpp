#include "nosql/memtable.hpp"

#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>

namespace graphulo::nosql {

namespace {

/// Arena block size (LevelDB's). Entries above a quarter of it get a
/// block of their own, so a large value never strands a block's tail.
constexpr std::size_t kBlockSize = 4096;

}  // namespace

/// One entry. The node header is followed in the arena by `height`
/// links and then the key and value bytes (row, family, qualifier,
/// visibility, value). Everything but the links is written once,
/// before the node is linked.
struct Memtable::Node {
  std::uint64_t seq;
  Timestamp ts;
  std::uint32_t row_len;
  std::uint32_t family_len;
  std::uint32_t qualifier_len;
  std::uint32_t visibility_len;
  std::uint32_t value_len;
  std::uint8_t height;
  bool deleted;

  std::atomic<Node*>* links() noexcept {
    return reinterpret_cast<std::atomic<Node*>*>(this + 1);
  }
  const std::atomic<Node*>* links() const noexcept {
    return reinterpret_cast<const std::atomic<Node*>*>(this + 1);
  }
  Node* next(int level) const noexcept {
    return links()[level].load(std::memory_order_acquire);
  }
  const char* bytes() const noexcept {
    return reinterpret_cast<const char*>(links() + height);
  }
  std::string_view row() const noexcept { return {bytes(), row_len}; }
  std::string_view family() const noexcept {
    return {bytes() + row_len, family_len};
  }
  std::string_view qualifier() const noexcept {
    return {bytes() + row_len + family_len, qualifier_len};
  }
  std::string_view visibility() const noexcept {
    return {bytes() + row_len + family_len + qualifier_len, visibility_len};
  }
  std::string_view value() const noexcept {
    return {bytes() + row_len + family_len + qualifier_len + visibility_len,
            value_len};
  }
};

/// Reads one pin: skips entries newer than the pinned count and, of
/// identical keys, returns the first visible one, which is the newest.
class Memtable::Iterator final : public SortedKVIterator {
 public:
  explicit Iterator(MemtablePin pin) : pin_(std::move(pin)) {}

  void seek(const Range& range) override {
    has_end_ = range.has_end;
    if (has_end_) {
      end_ = range.end;
      end_inclusive_ = range.end_inclusive;
    }
    const Memtable& mem = *pin_.memtable;
    Node* n = nullptr;
    if (range.has_start) {
      const KeyRef start = ref(range.start);
      // Sequence numbers sort descending: the largest lands on the
      // first entry of the start key.
      n = mem.find_greater_or_equal(
          start, std::numeric_limits<std::uint64_t>::max(), nullptr);
      while (!range.start_inclusive && n != nullptr &&
             compare(n, start) == 0) {
        n = n->next(0);
      }
    } else {
      n = mem.first();
    }
    settle(n);
  }

  bool has_top() const override { return node_ != nullptr; }
  const Key& top_key() const override { return key_; }
  const Value& top_value() const override { return value_; }

  void next() override {
    // Older entries of the key just returned follow it: skip them.
    const KeyRef current = ref(key_);
    Node* n = node_->next(0);
    while (n != nullptr && compare(n, current) == 0) n = n->next(0);
    settle(n);
  }

 private:
  /// Positions on the first visible entry at or after `n` inside the
  /// range, or exhausts the iterator.
  void settle(Node* n) {
    while (n != nullptr && n->seq > pin_.seq) n = n->next(0);
    node_ = nullptr;
    if (n == nullptr) return;
    // The consumer works on this cell meanwhile: fetch the next entry.
    __builtin_prefetch(n->links()[0].load(std::memory_order_relaxed));
    if (has_end_) {
      const int c = compare(n, ref(end_));
      if (c > 0 || (c == 0 && !end_inclusive_)) return;
    }
    key_.row.assign(n->row());
    key_.family.assign(n->family());
    key_.qualifier.assign(n->qualifier());
    key_.visibility.assign(n->visibility());
    key_.ts = n->ts;
    key_.deleted = n->deleted;
    value_.assign(n->value());
    node_ = n;
  }

  MemtablePin pin_;
  const Node* node_ = nullptr;
  Key key_;
  Value value_;
  bool has_end_ = false;
  Key end_;
  bool end_inclusive_ = true;
};

IterPtr MemtablePin::iterator() const {
  return std::make_unique<Memtable::Iterator>(*this);
}

void Memtable::apply(const Mutation& mutation, Timestamp assigned_ts) {
  const std::uint64_t seq = seq_.load(std::memory_order_relaxed) + 1;
  for (const auto& u : mutation.updates()) {
    add({mutation.row(), u.family, u.qualifier, u.visibility,
         u.has_ts ? u.ts : assigned_ts, u.deleted},
        u.deleted ? std::string_view{} : std::string_view{u.value}, seq);
  }
  // Publishes the whole mutation at once: a reader that pins this count
  // sees every link made above.
  seq_.store(seq, std::memory_order_release);
}

void Memtable::insert(const Key& key, const Value& value) {
  const std::uint64_t seq = seq_.load(std::memory_order_relaxed) + 1;
  add(ref(key), value, seq);
  seq_.store(seq, std::memory_order_release);
}

void Memtable::add(const KeyRef& k, std::string_view value,
                   std::uint64_t seq) {
  static_assert(sizeof(Node) % alignof(std::atomic<Node*>) == 0,
                "links must start aligned right after the node header");
  for (const std::string_view part :
       {k.row, k.family, k.qualifier, k.visibility, value}) {
    if (part.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("Memtable: key or value part over 4 GiB");
    }
  }
  Node* prev[kMaxHeight];
  Node* at = find_greater_or_equal(k, seq, prev);
  if (at == nullptr || compare(at, k) != 0) ++distinct_;

  const int height = random_height();
  const int max_height = max_height_.load(std::memory_order_relaxed);
  if (height > max_height) {
    for (int i = max_height; i < height; ++i) prev[i] = nullptr;
    // A reader that sees the new height before the new head links finds
    // them null and drops a level, which is still correct.
    max_height_.store(height, std::memory_order_relaxed);
  }

  const std::size_t links_bytes =
      static_cast<std::size_t>(height) * sizeof(std::atomic<Node*>);
  char* mem = allocate(sizeof(Node) + links_bytes + k.row.size() +
                       k.family.size() + k.qualifier.size() +
                       k.visibility.size() + value.size());
  Node* n = new (mem) Node{seq,
                           k.ts,
                           static_cast<std::uint32_t>(k.row.size()),
                           static_cast<std::uint32_t>(k.family.size()),
                           static_cast<std::uint32_t>(k.qualifier.size()),
                           static_cast<std::uint32_t>(k.visibility.size()),
                           static_cast<std::uint32_t>(value.size()),
                           static_cast<std::uint8_t>(height),
                           k.deleted};
  char* out = mem + sizeof(Node) + links_bytes;
  for (const std::string_view part :
       {k.row, k.family, k.qualifier, k.visibility, value}) {
    if (!part.empty()) std::memcpy(out, part.data(), part.size());
    out += part.size();
  }
  // Fill every link before publishing any: the node is complete when
  // the first reader reaches it.
  for (int i = 0; i < height; ++i) {
    new (&n->links()[i])
        std::atomic<Node*>(link(prev[i], i).load(std::memory_order_relaxed));
  }
  for (int i = 0; i < height; ++i) {
    link(prev[i], i).store(n, std::memory_order_release);
  }
  ++nodes_;
}

int Memtable::compare(const Node* n, const KeyRef& k) noexcept {
  if (const int c = n->row().compare(k.row); c != 0) return c;
  if (const int c = n->family().compare(k.family); c != 0) return c;
  if (const int c = n->qualifier().compare(k.qualifier); c != 0) return c;
  if (const int c = n->visibility().compare(k.visibility); c != 0) return c;
  // Newest first; deletes before non-deletes at the same timestamp.
  if (n->ts != k.ts) return n->ts > k.ts ? -1 : 1;
  if (n->deleted != k.deleted) return n->deleted ? -1 : 1;
  return 0;
}

bool Memtable::before(const Node* n, const KeyRef& k,
                      std::uint64_t seq) noexcept {
  const int c = compare(n, k);
  return c < 0 || (c == 0 && n->seq > seq);
}

Memtable::Node* Memtable::find_greater_or_equal(const KeyRef& k,
                                                std::uint64_t seq,
                                                Node** prev) const {
  Node* x = nullptr;  // the head
  int level = max_height_.load(std::memory_order_relaxed) - 1;
  while (true) {
    Node* next = link(x, level).load(std::memory_order_acquire);
    // Start both possible next steps' cache misses now (right along this
    // level, or down from x), so a cold search overlaps them instead of
    // paying them one after another.
    if (next != nullptr) {
      __builtin_prefetch(next->links()[level].load(std::memory_order_relaxed));
    }
    if (level > 0) {
      __builtin_prefetch(link(x, level - 1).load(std::memory_order_relaxed));
    }
    if (next != nullptr && before(next, k, seq)) {
      x = next;
      continue;
    }
    if (prev != nullptr) prev[level] = x;
    if (level == 0) return next;
    --level;
  }
}

Memtable::Node* Memtable::first() const noexcept {
  return head_[0].load(std::memory_order_acquire);
}

std::atomic<Memtable::Node*>& Memtable::link(Node* x, int level) noexcept {
  return x != nullptr ? x->links()[level] : head_[level];
}

const std::atomic<Memtable::Node*>& Memtable::link(const Node* x,
                                                   int level) const noexcept {
  return x != nullptr ? x->links()[level] : head_[level];
}

int Memtable::random_height() noexcept {
  int height = 1;
  while (height < kMaxHeight) {
    rng_ ^= rng_ << 13;  // xorshift64
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    if ((rng_ & 3) != 0) break;
    ++height;
  }
  return height;
}

char* Memtable::allocate(std::size_t bytes) {
  bytes = (bytes + alignof(Node) - 1) & ~(alignof(Node) - 1);
  if (bytes > alloc_remaining_) {
    if (bytes > kBlockSize / 4) {
      blocks_.push_back(std::unique_ptr<char[]>(new char[bytes]));
      return blocks_.back().get();
    }
    blocks_.push_back(std::unique_ptr<char[]>(new char[kBlockSize]));
    alloc_ptr_ = blocks_.back().get();
    alloc_remaining_ = kBlockSize;
  }
  char* p = alloc_ptr_;
  alloc_ptr_ += bytes;
  alloc_remaining_ -= bytes;
  return p;
}

std::vector<std::string> Memtable::sample_rows(std::size_t n) const {
  std::vector<std::string> rows;
  if (nodes_ == 0 || n == 0) return rows;
  rows.reserve(n);
  // Ceil stride + always considering the final row: same tail-coverage
  // fix as RFile::sample_rows (a floor stride oversamples the head).
  const std::size_t stride = (nodes_ + n - 1) / n;
  std::size_t i = 0;
  const Node* last = nullptr;
  for (const Node* x = first(); x != nullptr; x = x->next(0)) {
    last = x;
    if (i++ % stride != 0) continue;
    if (rows.size() < n && (rows.empty() || rows.back() != x->row())) {
      rows.emplace_back(x->row());
    }
  }
  if (last != nullptr && !rows.empty() && rows.back() != last->row()) {
    if (rows.size() < n) {
      rows.emplace_back(last->row());
    } else {
      rows.back() = last->row();
    }
  }
  return rows;
}

}  // namespace graphulo::nosql
