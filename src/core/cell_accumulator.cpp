#include "core/cell_accumulator.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "nosql/codec.hpp"

namespace graphulo::core {

namespace {

constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
constexpr std::uint64_t kColumnMask = 0xffffffffu;
constexpr std::size_t kInitialSlots = 1024;

/// rank[id] = position of dictionary entry `id` in sorted order; `order`
/// is the inverse (sorted position -> id).
template <class T>
void rank_dictionary(const std::vector<const T*>& entries,
                     std::vector<std::uint32_t>& order,
                     std::vector<std::uint32_t>& rank) {
  order.resize(entries.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::sort(order.begin(), order.end(),
            [&entries](std::uint32_t a, std::uint32_t b) {
              return *entries[a] < *entries[b];
            });
  rank.resize(entries.size());
  for (std::size_t r = 0; r < order.size(); ++r) {
    rank[order[r]] = static_cast<std::uint32_t>(r);
  }
}

}  // namespace

std::size_t CellAccumulator::RowKeyHash::operator()(
    const std::pair<std::string, std::string>& k) const noexcept {
  const std::size_t h = std::hash<std::string>{}(k.first);
  return h ^ (std::hash<std::string>{}(k.second) + 0x9e3779b97f4a7c15ULL +
              (h << 6) + (h >> 2));
}

CellAccumulator::CellAccumulator(Emit emit, std::size_t max_slots)
    : emit_(std::move(emit)), max_slots_(max_slots) {
  if (max_slots < 4 || !std::has_single_bit(max_slots)) {
    throw std::invalid_argument(
        "CellAccumulator: max_slots must be a power of two >= 4");
  }
  const std::size_t slots = std::min(kInitialSlots, max_slots);
  slots_.assign(slots, Slot{kEmpty, 0.0});
  shift_ = 64u - static_cast<unsigned>(std::countr_zero(slots));
}

std::size_t CellAccumulator::home(std::uint64_t key) const noexcept {
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
}

std::uint32_t CellAccumulator::row_id(const std::string& row,
                                      const std::string& family) {
  const auto [it, inserted] = row_ids_.try_emplace(
      std::pair<std::string, std::string>(row, family),
      static_cast<std::uint32_t>(rows_.size()));
  if (inserted) rows_.push_back(&it->first);
  return it->second;
}

std::uint32_t CellAccumulator::column_id(const std::string& column) {
  if (const auto it = column_ids_.find(column); it != column_ids_.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(columns_.size());
  columns_.push_back(&column_ids_.emplace(column, id).first->first);
  return id;
}

void CellAccumulator::add(std::uint32_t row, std::uint32_t column,
                          double value) {
  const std::uint64_t key = (std::uint64_t{row} << 32) | column;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(key);
  for (; slots_[i].key != kEmpty; i = (i + 1) & mask) {
    if (slots_[i].key == key) {
      slots_[i].value += value;
      return;
    }
  }
  if (size_ >= load_limit()) {
    if (slots_.size() < max_slots_) {
      grow();
    } else {
      drain();
    }
    i = home(key);
    while (slots_[i].key != kEmpty) i = (i + 1) & (slots_.size() - 1);
  }
  slots_[i] = Slot{key, value};
  ++size_;
}

void CellAccumulator::grow() {
  std::vector<Slot> old(slots_.size() * 2, Slot{kEmpty, 0.0});
  old.swap(slots_);
  --shift_;
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.key == kEmpty) continue;
    std::size_t i = home(s.key);
    while (slots_[i].key != kEmpty) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void CellAccumulator::drain() {
  std::vector<std::uint32_t> row_order, row_rank, column_order, column_rank;
  rank_dictionary(rows_, row_order, row_rank);
  rank_dictionary(columns_, column_order, column_rank);

  // Move the held cells to the front of the table under rank keys and
  // sort them there: no second buffer, and the table is emptied below.
  std::size_t n = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot s = slots_[i];
    if (s.key == kEmpty) continue;
    slots_[n++] = Slot{(std::uint64_t{row_rank[s.key >> 32]} << 32) |
                           column_rank[s.key & kColumnMask],
                       s.value};
  }
  std::sort(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(n),
            [](const Slot& a, const Slot& b) { return a.key < b.key; });

  // Rows sharing A's qualifier but not its family are adjacent in rank
  // order; they go into one mutation.
  std::optional<nosql::Mutation> mutation;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [row, family] = *rows_[row_order[slots_[i].key >> 32]];
    const std::string& column =
        *columns_[column_order[slots_[i].key & kColumnMask]];
    if (!mutation || mutation->row() != row) {
      if (mutation) emit_(std::move(*mutation));
      mutation.emplace(row);
    }
    mutation->put(family, column, nosql::encode_double(slots_[i].value));
  }
  if (mutation) emit_(std::move(*mutation));
  std::fill(slots_.begin(), slots_.end(), Slot{kEmpty, 0.0});
  size_ = 0;
}

}  // namespace graphulo::core
