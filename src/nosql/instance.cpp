#include "nosql/instance.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/table_printer.hpp"

namespace graphulo::nosql {

Instance::Instance(int num_tablet_servers) {
  if (num_tablet_servers < 1) {
    throw std::invalid_argument("Instance: need at least one tablet server");
  }
  for (int i = 0; i < num_tablet_servers; ++i) {
    servers_.push_back(std::make_unique<TabletServer>(i));
  }
}

void Instance::create_table(const std::string& name, TableConfig config) {
  std::unique_lock lock(catalog_mutex_);
  if (tables_.count(name)) {
    throw std::invalid_argument("create_table: table exists: " + name);
  }
  auto table = std::make_unique<Table>(
      name, std::make_shared<const TableConfig>(std::move(config)));
  auto tablet = std::make_shared<Tablet>(TabletExtent{"", ""},
                                         table->config(), table->cache(),
                                         scheduler_.get());
  const int sid = next_server_;
  next_server_ = (next_server_ + 1) % static_cast<int>(servers_.size());
  table->tablets_.push_back(std::move(tablet));
  table->tablet_server_of_.push_back(sid);
  tables_.emplace(name, std::move(table));
  // Journal writes are retryable in isolation: the WAL's injection site
  // fires before any byte or sequence number is consumed, so a retried
  // append lands exactly one record.
  if (wal_) {
    util::with_retries("Instance::create_table: journal", retry_policy_,
                       [&] { wal_->log_create_table(name); });
  }
}

void Instance::delete_table(const std::string& name) {
  std::unique_ptr<Table> dropped;
  std::shared_ptr<CompactionScheduler> scheduler;
  {
    std::unique_lock lock(catalog_mutex_);
    const auto it = tables_.find(name);
    if (it == tables_.end()) {
      throw std::invalid_argument("delete_table: no such table: " + name);
    }
    // Log-then-drop: a journal write that fails for good leaves the
    // table in place, and nothing after the drop can throw.
    if (wal_) {
      util::with_retries("Instance::delete_table: journal", retry_policy_,
                         [&] { wal_->log_delete_table(name); });
    }
    dropped = std::move(it->second);
    tables_.erase(it);
    scheduler = scheduler_;
  }
  // Let every queued background flush or compaction of the dropped
  // tablets finish, so none of the table's work outlives the call and
  // its memory is freed when the last handle goes. Drained outside the
  // catalog lock, so other tables keep serving meanwhile.
  if (scheduler) scheduler->drain();
}

bool Instance::table_exists(const std::string& name) const {
  std::shared_lock lock(catalog_mutex_);
  return tables_.count(name) > 0;
}

void Instance::clone_table(const std::string& source,
                           const std::string& target) {
  std::unique_lock lock(catalog_mutex_);
  const Table& src = get_table(source);
  if (tables_.count(target)) {
    throw std::invalid_argument("clone_table: target exists: " + target);
  }
  auto table = std::make_unique<Table>(target, src.config());
  for (std::size_t i = 0; i < src.tablets().size(); ++i) {
    const auto& src_tablet = src.tablets()[i];
    auto tablet = std::make_shared<Tablet>(src_tablet->extent(),
                                           table->config(), table->cache(),
                                           scheduler_.get());
    auto stack = src_tablet->raw_stack();
    for (auto& cell : drain(*stack, Range::all())) {
      tablet->insert_cell(std::move(cell));
    }
    const int sid = next_server_;
    next_server_ = (next_server_ + 1) % static_cast<int>(servers_.size());
    table->tablets_.push_back(std::move(tablet));
    table->tablet_server_of_.push_back(sid);
  }
  tables_.emplace(target, std::move(table));
  // Journaled so clones survive recovery. Replay order makes this
  // correct: at the point the kCloneTable record replays, the source
  // holds exactly its state at original clone time (later records have
  // not been applied yet).
  if (wal_) {
    util::with_retries("Instance::clone_table: journal", retry_policy_,
                       [&] { wal_->log_clone_table(source, target); });
  }
}

void Instance::attach_compaction_scheduler(
    std::shared_ptr<CompactionScheduler> s) {
  std::unique_lock lock(catalog_mutex_);
  scheduler_ = std::move(s);
  for (const auto& [name, table] : tables_) {
    for (const auto& tablet : table->tablets_) {
      tablet->set_compaction_scheduler(scheduler_.get());
    }
  }
}

std::vector<std::string> Instance::table_names() const {
  std::shared_lock lock(catalog_mutex_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [n, t] : tables_) names.push_back(n);
  return names;
}

Table& Instance::get_table(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw std::invalid_argument("no such table: " + name);
  }
  return *it->second;
}

const Table& Instance::get_table(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw std::invalid_argument("no such table: " + name);
  }
  return *it->second;
}

std::shared_ptr<const TableConfig> Instance::table_config(
    const std::string& name) const {
  std::shared_lock lock(catalog_mutex_);
  return get_table(name).config();
}

void Instance::add_splits(const std::string& name,
                          std::vector<std::string> split_rows) {
  std::unique_lock lock(catalog_mutex_);
  Table& table = get_table(name);

  // Union of existing and new split points.
  std::set<std::string> splits(split_rows.begin(), split_rows.end());
  for (const auto& t : table.tablets_) {
    if (!t->extent().start_row.empty()) splits.insert(t->extent().start_row);
  }

  // Collect every cell currently stored (raw, preserving versions and
  // delete markers), then rebuild the tablet set.
  std::vector<Cell> all_cells;
  for (const auto& t : table.tablets_) {
    auto stack = t->raw_stack();
    auto cells = drain(*stack, Range::all());
    all_cells.insert(all_cells.end(), cells.begin(), cells.end());
  }
  std::sort(all_cells.begin(), all_cells.end(),
            [](const Cell& a, const Cell& b) { return a.key < b.key; });

  std::vector<std::shared_ptr<Tablet>> tablets;
  std::vector<int> server_of;
  std::string prev;
  auto add_tablet = [&](const std::string& lo, const std::string& hi) {
    auto tablet = std::make_shared<Tablet>(TabletExtent{lo, hi},
                                           table.config(), table.cache(),
                                           scheduler_.get());
    const int sid = next_server_;
    next_server_ = (next_server_ + 1) % static_cast<int>(servers_.size());
    tablets.push_back(std::move(tablet));
    server_of.push_back(sid);
  };
  for (const auto& s : splits) {
    add_tablet(prev, s);
    prev = s;
  }
  add_tablet(prev, "");

  // Redistribute the data.
  std::size_t t_idx = 0;
  for (auto& cell : all_cells) {
    while (!tablets[t_idx]->extent().contains_row(cell.key.row)) ++t_idx;
    tablets[t_idx]->insert_cell(std::move(cell));
  }
  table.tablets_ = std::move(tablets);
  table.tablet_server_of_ = std::move(server_of);
  if (wal_) {
    util::with_retries("Instance::add_splits: journal", retry_policy_,
                       [&] { wal_->log_add_splits(name, split_rows); });
  }
}

std::vector<std::string> Instance::list_splits(const std::string& name) const {
  std::shared_lock lock(catalog_mutex_);
  const Table& table = get_table(name);
  std::vector<std::string> splits;
  for (const auto& t : table.tablets_) {
    if (!t->extent().start_row.empty()) splits.push_back(t->extent().start_row);
  }
  return splits;
}

std::vector<std::string> Instance::partition_rows(
    const std::string& name, std::size_t target_partitions) const {
  std::vector<std::shared_ptr<Tablet>> tablets;
  std::set<std::string> candidates;
  {
    std::shared_lock lock(catalog_mutex_);
    const Table& table = get_table(name);
    tablets = table.tablets_;
  }
  if (target_partitions < 2) return {};
  for (const auto& t : tablets) {
    if (!t->extent().start_row.empty()) candidates.insert(t->extent().start_row);
  }
  if (candidates.size() < target_partitions - 1) {
    // Not enough tablet boundaries: refine with data samples. Sampling
    // happens outside the catalog lock — tablets are individually
    // thread-safe and shared_ptr-held, so a concurrent split/drop cannot
    // invalidate them.
    const std::size_t per_tablet =
        std::max<std::size_t>(4, 4 * target_partitions / std::max<std::size_t>(1, tablets.size()));
    for (const auto& t : tablets) {
      for (auto& row : t->sample_split_rows(per_tablet)) {
        if (!row.empty()) candidates.insert(std::move(row));
      }
    }
  }
  candidates.erase("");  // "" means "unbounded" to range builders
  std::vector<std::string> sorted(candidates.begin(), candidates.end());
  if (sorted.size() <= target_partitions - 1) return sorted;
  // Evenly spaced subset of the candidates. The indices are strictly
  // increasing over a duplicate-free sorted set, but dedupe anyway —
  // adjacent partition bounds must never coincide (a duplicate bound
  // would make the partition range between them empty).
  std::vector<std::string> bounds;
  bounds.reserve(target_partitions - 1);
  for (std::size_t i = 1; i < target_partitions; ++i) {
    bounds.push_back(sorted[i * sorted.size() / target_partitions]);
  }
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  return bounds;
}

std::shared_ptr<Tablet> Instance::route_locked(Table& table,
                                               const std::string& row,
                                               int* server_id) const {
  // Tablets are sorted by extent; binary search on start_row.
  const auto& tablets = table.tablets_;
  std::size_t lo = 0, hi = tablets.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (!tablets[mid]->extent().start_row.empty() &&
        row < tablets[mid]->extent().start_row) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  if (server_id) *server_id = table.tablet_server_of_[lo];
  return tablets[lo];
}

void Instance::apply(const std::string& name, const Mutation& mutation) {
  // The timestamp is assigned ONCE: a retried attempt reuses it, so the
  // logical clock sequence (and therefore recovered state) is identical
  // whether or not transient faults fired along the way.
  const Timestamp ts = next_timestamp();
  util::with_retries("Instance::apply", retry_policy_, [&] {
    util::fault::point(util::fault::sites::kInstanceApply);
    std::shared_lock lock(catalog_mutex_);
    Table& table = get_table(name);
    int sid = 0;
    auto tablet = route_locked(table, mutation.row(), &sid);
    // Log-then-apply: the injection sites inside the WAL fire before
    // any byte lands, so a retry after a WAL failure appends exactly
    // one record. The tablet apply below contains its own transient
    // failures (deferred flush/compaction), so nothing after the log
    // write throws transiently — no double-logging window.
    if (wal_) wal_->log_mutation(name, mutation, ts);
    servers_[static_cast<std::size_t>(sid)]->apply(*tablet, mutation, ts);
  });
}

bool Instance::apply(const std::string& name, const Mutation& mutation,
                     const std::string& writer_id, std::uint64_t seq) {
  std::shared_ptr<Table::WriteStream> stream;
  {
    std::shared_lock lock(catalog_mutex_);
    Table& table = get_table(name);
    std::lock_guard streams_lock(table.streams_mutex_);
    auto& slot = table.streams_[writer_id];
    if (!slot) slot = std::make_shared<Table::WriteStream>();
    stream = slot;
  }
  // Held across the apply: a concurrent resend of this stream waits
  // here, then sees the advanced mark.
  std::lock_guard lock(stream->mutex);
  if (seq < stream->next_seq) return false;
  apply(name, mutation);
  stream->next_seq = seq + 1;
  return true;
}

void Instance::apply_replayed(const std::string& name,
                              const Mutation& mutation,
                              Timestamp assigned_ts) {
  std::shared_lock lock(catalog_mutex_);
  Table& table = get_table(name);
  int sid = 0;
  auto tablet = route_locked(table, mutation.row(), &sid);
  // Keep the clock ahead of everything replayed so post-recovery writes
  // sort newer.
  advance_clock(assigned_ts);
  servers_[static_cast<std::size_t>(sid)]->apply(*tablet, mutation,
                                                 assigned_ts);
}

void Instance::restore_cells(const std::string& name,
                             std::vector<Cell> cells) {
  std::shared_lock lock(catalog_mutex_);
  Table& table = get_table(name);
  for (auto& cell : cells) {
    auto tablet = route_locked(table, cell.key.row, nullptr);
    tablet->insert_cell(std::move(cell));
  }
}

void Instance::restore_files(const std::string& name,
                             const std::string& extent_start,
                             std::vector<FileMeta> files) {
  std::shared_lock lock(catalog_mutex_);
  Table& table = get_table(name);
  for (const auto& tablet : table.tablets_) {
    if (tablet->extent().start_row == extent_start) {
      tablet->restore_files(std::move(files));
      return;
    }
  }
  throw std::invalid_argument("restore_files: no tablet of " + name +
                              " starts at \"" + extent_start + "\"");
}

void Instance::flush(const std::string& name) {
  std::shared_lock lock(catalog_mutex_);
  for (const auto& t : get_table(name).tablets_) {
    util::with_retries("Instance::flush", retry_policy_,
                       [&] { t->flush(); });
  }
}

void Instance::compact(const std::string& name,
                       const std::vector<IteratorSetting>& once) {
  std::shared_lock lock(catalog_mutex_);
  for (const auto& t : get_table(name).tablets_) {
    util::with_retries("Instance::compact", retry_policy_,
                       [&] { t->major_compact(once); });
  }
}

std::vector<std::pair<std::shared_ptr<Tablet>, int>>
Instance::tablets_for_range(const std::string& name, const Range& range) const {
  std::shared_lock lock(catalog_mutex_);
  const Table& table = get_table(name);
  std::vector<std::pair<std::shared_ptr<Tablet>, int>> out;
  for (std::size_t i = 0; i < table.tablets_.size(); ++i) {
    const auto& extent = table.tablets_[i]->extent();
    if (range.may_intersect_rows(extent.start_row, extent.end_row)) {
      out.emplace_back(table.tablets_[i], table.tablet_server_of_[i]);
    }
  }
  return out;
}

std::shared_ptr<const Snapshot> Instance::open_snapshot(
    const std::string& name) const {
  // Grab the tablet list under the catalog lock, then pin each cut
  // outside it: open_snapshot() takes per-tablet locks and there is no
  // reason to hold the catalog closed meanwhile. The per-tablet cuts
  // are not mutually atomic — like Accumulo, cross-tablet consistency
  // is per-mutation (a mutation targets one row = one tablet), so each
  // row's history is still a consistent prefix.
  std::vector<std::shared_ptr<Tablet>> tablets;
  {
    std::shared_lock lock(catalog_mutex_);
    tablets = get_table(name).tablets_;
  }
  std::vector<std::shared_ptr<TabletSnapshot>> cuts;
  cuts.reserve(tablets.size());
  for (const auto& t : tablets) cuts.push_back(t->open_snapshot());
  return std::make_shared<const Snapshot>(name, std::move(cuts));
}

std::shared_ptr<AdmissionController> Instance::admission(
    const std::string& name) const {
  std::shared_lock lock(catalog_mutex_);
  const auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second->admission();
}

std::size_t recover_from_wal(Instance& db, const std::string& path,
                             const TableConfigProvider& config_for,
                             std::uint64_t min_seq) {
  return replay_wal(
      path,
      [&db, &config_for](const WalRecord& record) {
        switch (record.kind) {
          case WalRecord::Kind::kCreateTable:
            if (!db.table_exists(record.table)) {
              db.create_table(record.table,
                              config_for ? config_for(record.table)
                                         : TableConfig{});
            }
            break;
          case WalRecord::Kind::kDeleteTable:
            if (db.table_exists(record.table)) db.delete_table(record.table);
            break;
          case WalRecord::Kind::kCloneTable:
            if (db.table_exists(record.table) &&
                !db.table_exists(record.aux)) {
              db.clone_table(record.table, record.aux);
            }
            break;
          case WalRecord::Kind::kAddSplits:
            if (db.table_exists(record.table)) {
              db.add_splits(record.table, record.splits);
            }
            break;
          case WalRecord::Kind::kMutation:
            if (db.table_exists(record.table)) {
              db.apply_replayed(record.table, record.mutation,
                                record.assigned_ts);
            }
            break;
        }
      },
      min_seq);
}

std::size_t Instance::entry_estimate(const std::string& name) const {
  std::shared_lock lock(catalog_mutex_);
  std::size_t total = 0;
  for (const auto& t : get_table(name).tablets_) total += t->entry_estimate();
  return total;
}

void Instance::update_storage_gauges() const {
  auto& reg = obs::MetricsRegistry::global();
  // Aggregate the leveled shape across every tablet of every table.
  std::vector<std::size_t> level_files;
  std::vector<std::uint64_t> level_bytes;
  std::uint64_t total_bytes = 0, deepest_bytes = 0;
  {
    std::shared_lock lock(catalog_mutex_);
    for (const auto& [name, table] : tables_) {
      for (const auto& tablet : table->tablets_) {
        const auto s = tablet->stats();
        if (s.level_files.size() > level_files.size()) {
          level_files.resize(s.level_files.size());
          level_bytes.resize(s.level_files.size());
        }
        for (std::size_t l = 0; l < s.level_files.size(); ++l) {
          level_files[l] += s.level_files[l];
          level_bytes[l] += s.level_bytes[l];
        }
        for (const auto b : s.level_bytes) total_bytes += b;
        if (!s.level_bytes.empty()) deepest_bytes += s.level_bytes.back();
      }
    }
  }
  for (std::size_t l = 0; l < level_files.size(); ++l) {
    const obs::Labels labels = {{"level", std::to_string(l)}};
    reg.gauge("tablet.level.files", "Files per LSM level across all tablets",
              labels)
        .set(static_cast<std::int64_t>(level_files[l]));
    reg.gauge("tablet.level.bytes", "Bytes per LSM level across all tablets",
              labels)
        .set(static_cast<std::int64_t>(level_bytes[l]));
  }
  // Share of file bytes already settled in the deepest levels: 100 =
  // fully compacted (no space amplification from stale overlap).
  reg.gauge("tablet.bytes.live_ratio_pct",
            "Deepest-level bytes as a percentage of total file bytes "
            "(space-amplification inverse)")
      .set(total_bytes == 0
               ? 100
               : static_cast<std::int64_t>(100 * deepest_bytes /
                                           total_bytes));
}

std::string Instance::metrics_report() const {
  update_storage_gauges();
  std::string out;
  {
    // The monitor's server summary: this instance's traffic only.
    util::TablePrinter servers(
        {"server", "entries_written", "mutations", "scans"});
    std::shared_lock lock(catalog_mutex_);
    for (const auto& server : servers_) {
      const auto s = server->stats();
      servers.add_row({std::to_string(server->id()),
                       std::to_string(s.entries_written),
                       std::to_string(s.mutations_applied),
                       std::to_string(s.scans_started)});
    }
    out += servers.to_string("tablet servers");
  }
  out += "\n";
  out += obs::metrics_table(obs::MetricsRegistry::global().snapshot(),
                            "runtime metrics");
  return out;
}

}  // namespace graphulo::nosql
