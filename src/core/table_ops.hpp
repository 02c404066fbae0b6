#pragma once
// Table-scope GraphBLAS kernels: Apply, Scale, Reduce, SpEWiseX and
// filtering executed against tables through the iterator machinery
// (in-place rewrites pass a one-shot iterator to Instance::compact,
// which runs it in that compaction only and never touches the table's
// config; per-tablet scans for reductions). These are the Graphulo
// counterparts of the kernels Section III composes.

#include <functional>
#include <optional>
#include <string>

#include "nosql/instance.hpp"

namespace graphulo::core {

/// Applies `fn` to every numeric cell value of `table`, in place: the
/// transform and a filter that deletes results equal to 0 run as
/// iterators of one major compaction, so the rewrite happens
/// server-side in one pass. Non-numeric values pass through unchanged.
void table_apply(nosql::Instance& db, const std::string& table,
                 const std::function<double(double)>& fn);

/// Scale: multiply every numeric value by `alpha` (SpEWiseX with a
/// scalar), in place.
void table_scale(nosql::Instance& db, const std::string& table, double alpha);

/// Deletes cells for which `keep` returns false, in place (compaction
/// filter). The predicate sees the key and the decoded value (NaN when
/// not numeric).
void table_filter(nosql::Instance& db, const std::string& table,
                  const std::function<bool(const nosql::Key&, double)>& keep);

/// Reduce over all numeric values: per-tablet partial folds (the
/// "server-side" part), folded together client-side. Returns `init`
/// for an empty table.
double table_reduce(nosql::Instance& db, const std::string& table,
                    const std::function<double(double, double)>& op,
                    double init);

/// Sum of all numeric values.
double table_sum(nosql::Instance& db, const std::string& table);

/// Row degrees: writes one cell per row of `table` into `out_table`
/// (row -> family "deg", qualifier "deg", value = sum of the row's
/// numeric values or its cell count). Equivalent to the D4M Tdeg array.
void table_row_degrees(nosql::Instance& db, const std::string& table,
                       const std::string& out_table, bool count_cells = false);

/// SpEWiseX on tables: C = A .* B over the cell-key intersection
/// (row, qualifier), values multiplied with `multiply`. C is created
/// as a fresh plain table (existing C must not exist).
std::size_t table_ewise_mult(
    nosql::Instance& db, const std::string& table_a, const std::string& table_b,
    const std::string& table_c,
    const std::function<double(double, double)>& multiply =
        [](double a, double b) { return a * b; });

}  // namespace graphulo::core
