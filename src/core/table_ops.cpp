#include "core/table_ops.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/table_scan.hpp"
#include "nosql/batch_writer.hpp"
#include "nosql/codec.hpp"
#include "nosql/filter_iterators.hpp"

namespace graphulo::core {

using nosql::decode_double;
using nosql::encode_double;

void table_apply(nosql::Instance& db, const std::string& table,
                 const std::function<double(double)>& fn) {
  // One compaction: the transform, then a filter that prunes the
  // transformed values equal to 0 (semantically sparse zeros) and keeps
  // non-numeric values.
  db.compact(
      table,
      {{50, "one-shot-apply", nosql::kMajcScope, [fn](nosql::IterPtr src) {
          return std::make_unique<nosql::TransformIterator>(
              std::move(src),
              [fn](const nosql::Key&, const nosql::Value& v) -> nosql::Value {
                const auto d = decode_double(v);
                return d ? encode_double(fn(*d)) : v;
              });
        }},
       {51, "one-shot-prune-zeros", nosql::kMajcScope,
        [](nosql::IterPtr src) {
          return std::make_unique<nosql::FilterIterator>(
              std::move(src), [](const nosql::Key&, const nosql::Value& v) {
                const auto d = decode_double(v);
                return !d || *d != 0.0;
              });
        }}});
}

void table_scale(nosql::Instance& db, const std::string& table, double alpha) {
  table_apply(db, table, [alpha](double v) { return alpha * v; });
}

void table_filter(nosql::Instance& db, const std::string& table,
                  const std::function<bool(const nosql::Key&, double)>& keep) {
  db.compact(
      table,
      {{50, "one-shot-filter", nosql::kMajcScope, [keep](nosql::IterPtr src) {
          return std::make_unique<nosql::FilterIterator>(
              std::move(src),
              [keep](const nosql::Key& k, const nosql::Value& v) {
                const auto d = decode_double(v);
                return keep(k,
                            d ? *d : std::numeric_limits<double>::quiet_NaN());
              });
        }}});
}

double table_reduce(nosql::Instance& db, const std::string& table,
                    const std::function<double(double, double)>& op,
                    double init) {
  double acc = init;
  bool first_partial = true;
  // Per-tablet partial reduction — the work a Graphulo reduce iterator
  // performs on each server — then a client-side fold of the partials.
  nosql::CellBlock block;
  for (auto& [tablet, sid] : db.tablets_for_range(table, nosql::Range::all())) {
    auto stack = db.server(sid).scan(*tablet);
    stack->seek(nosql::Range::all());
    double partial = init;
    bool any = false;
    while (stack->has_top()) {
      block.clear();
      if (stack->next_block(block, 1024) == 0) break;
      for (const auto& c : block) {
        const auto d = decode_double(c.value);
        if (d) {
          partial = any ? op(partial, *d) : *d;
          any = true;
        }
      }
    }
    if (any) {
      acc = first_partial ? partial : op(acc, partial);
      first_partial = false;
    }
  }
  return acc;
}

double table_sum(nosql::Instance& db, const std::string& table) {
  return table_reduce(
      db, table, [](double a, double b) { return a + b; }, 0.0);
}

void table_row_degrees(nosql::Instance& db, const std::string& table,
                       const std::string& out_table, bool count_cells) {
  if (!db.table_exists(out_table)) db.create_table(out_table);
  nosql::BatchWriter writer(db, out_table);
  RowReader reader(open_table_scan(db, table));
  while (reader.has_next()) {
    const auto block = reader.next_row();
    double degree = 0.0;
    for (const auto& cell : block.cells) {
      if (count_cells) {
        degree += 1.0;
      } else if (const auto d = decode_double(cell.value)) {
        degree += *d;
      }
    }
    nosql::Mutation m(block.row);
    m.put("deg", "deg", encode_double(degree));
    writer.add_mutation(std::move(m));
  }
  writer.flush();
}

std::size_t table_ewise_mult(
    nosql::Instance& db, const std::string& table_a, const std::string& table_b,
    const std::string& table_c,
    const std::function<double(double, double)>& multiply) {
  if (!db.table_exists(table_c)) db.create_table(table_c);
  nosql::BatchWriter writer(db, table_c);
  RowReader reader_a(open_table_scan(db, table_a));
  RowReader reader_b(open_table_scan(db, table_b));
  std::size_t written = 0;

  bool have_a = reader_a.has_next();
  bool have_b = reader_b.has_next();
  RowBlock row_a, row_b;
  if (have_a) row_a = reader_a.next_row();
  if (have_b) row_b = reader_b.next_row();
  while (have_a && have_b) {
    if (row_a.row < row_b.row) {
      have_a = reader_a.has_next();
      if (have_a) row_a = reader_a.next_row();
      continue;
    }
    if (row_b.row < row_a.row) {
      have_b = reader_b.has_next();
      if (have_b) row_b = reader_b.next_row();
      continue;
    }
    // Shared row: intersect by (family, qualifier), two-pointer merge
    // (cells within a row are key-ordered).
    std::size_t p = 0, q = 0;
    nosql::Mutation m(row_a.row);
    bool any = false;
    while (p < row_a.cells.size() && q < row_b.cells.size()) {
      const auto& ka = row_a.cells[p].key;
      const auto& kb = row_b.cells[q].key;
      const auto fam_cmp = ka.family.compare(kb.family);
      const auto qual_cmp = ka.qualifier.compare(kb.qualifier);
      if (fam_cmp < 0 || (fam_cmp == 0 && qual_cmp < 0)) {
        ++p;
      } else if (fam_cmp > 0 || (fam_cmp == 0 && qual_cmp > 0)) {
        ++q;
      } else {
        const auto av = decode_double(row_a.cells[p].value);
        const auto bv = decode_double(row_b.cells[q].value);
        if (av && bv) {
          const double product = multiply(*av, *bv);
          if (product != 0.0) {
            m.put(ka.family, ka.qualifier, encode_double(product));
            any = true;
            ++written;
          }
        }
        ++p;
        ++q;
      }
    }
    if (any) writer.add_mutation(std::move(m));
    have_a = reader_a.has_next();
    if (have_a) row_a = reader_a.next_row();
    have_b = reader_b.has_next();
    if (have_b) row_b = reader_b.next_row();
  }
  writer.flush();
  return written;
}

}  // namespace graphulo::core
