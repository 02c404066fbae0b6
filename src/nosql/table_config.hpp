#pragma once
// Per-table configuration: LSM tuning knobs and attached server-side
// iterators, mirroring Accumulo's table properties + iterator settings.
// A config is built before create_table and frozen there: the table
// holds it as one shared_ptr<const TableConfig> that its tablets,
// snapshots and background tasks share, so nothing copies it or reads
// it under a lock. An iterator meant for one compaction only (Accumulo's
// compact(table, ..., iterators, ...)) is an Instance::compact argument,
// never a config change.

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "nosql/admission.hpp"
#include "nosql/iterator.hpp"
#include "nosql/rfile.hpp"
#include "nosql/version_set.hpp"

namespace graphulo::nosql {

/// Where an attached iterator runs (bitmask).
enum IteratorScope : unsigned {
  kScanScope = 1u << 0,   ///< applied to every scan
  kMincScope = 1u << 1,   ///< applied when flushing the memtable
  kMajcScope = 1u << 2,   ///< applied when merging files
  kAllScopes = kScanScope | kMincScope | kMajcScope,
};

/// One attached iterator: a factory that wraps a source with the
/// iterator's behaviour. Lower priority runs closer to the data (is
/// applied first), as in Accumulo.
struct IteratorSetting {
  int priority = 20;
  std::string name;
  unsigned scopes = kScanScope;
  std::function<IterPtr(IterPtr)> factory;
};

/// Inserts `setting` after every iterator of lower or equal priority,
/// so `stack` stays sorted by priority with ties in insertion order.
inline void insert_by_priority(std::vector<IteratorSetting>& stack,
                               IteratorSetting setting) {
  const auto at = std::upper_bound(
      stack.begin(), stack.end(), setting.priority,
      [](int p, const IteratorSetting& s) { return p < s.priority; });
  stack.insert(at, std::move(setting));
}

/// Table properties.
struct TableConfig {
  /// Minor compaction (memtable flush) threshold, in entries.
  std::size_t flush_entries = 100000;
  /// Leveled-compaction knobs: L0 trigger and per-level byte budgets.
  CompactionConfig compaction;
  /// Ceiling on a tablet's file count: writers block (back-pressure)
  /// until a major compaction brings the count back down, or go ahead
  /// when the picker has nothing left to merge (at most one file per
  /// level, so a ceiling below the level count can be exceeded).
  std::size_t max_tablet_files = 64;
  /// Keep only the newest version of each cell (disable when an attached
  /// combiner needs to see every version).
  bool versioning = true;
  int max_versions = 1;
  /// RFile block geometry and acceleration structures (block stride,
  /// restart interval, compressor, row Bloom filter sizing, block
  /// cache budget).
  RFileOptions rfile;
  /// Admission control for mixed read/write traffic (in-flight scan
  /// bound, per-session token buckets, queue-or-shed policy). Defaults
  /// admit everything.
  AdmissionConfig admission;
  /// Attached server-side iterators.
  std::vector<IteratorSetting> iterators;

  /// Attaches an iterator; keeps the list sorted by priority.
  void attach_iterator(IteratorSetting setting) {
    insert_by_priority(iterators, std::move(setting));
  }
};

}  // namespace graphulo::nosql
