#include "core/data_plane.hpp"

#include <map>

#include "core/table_scan.hpp"
#include "core/tablemult.hpp"
#include "nosql/batch_writer.hpp"
#include "nosql/instance.hpp"
#include "nosql/snapshot.hpp"

namespace graphulo::core {

namespace {

/// Pinned read view over one Instance: each named table is pinned once
/// at construction (aliases share the pin), so every scan through the
/// view reads the same cut.
class LocalReadView : public TableMultDataPlane::ReadView {
 public:
  LocalReadView(nosql::Instance& db, const std::vector<std::string>& tables) {
    for (const auto& table : tables) {
      if (snapshots_.count(table) == 0) {
        snapshots_.emplace(table, db.open_snapshot(table));
      }
    }
  }

  nosql::IterPtr open_scan(const std::string& table,
                           const nosql::Range& range) override {
    return open_table_scan(*snapshots_.at(table), range);
  }

 private:
  std::map<std::string, std::shared_ptr<const nosql::Snapshot>> snapshots_;
};

class LocalWriteSession : public TableMultDataPlane::WriteSession {
 public:
  LocalWriteSession(nosql::Instance& db, std::string table)
      : db_(db), table_(std::move(table)) {}

  std::unique_ptr<nosql::MutationSink> open_writer(
      std::size_t /*partition*/) override {
    return std::make_unique<nosql::BatchWriter>(db_, table_);
  }

  bool exactly_once() const noexcept override { return false; }

 private:
  nosql::Instance& db_;
  std::string table_;
};

}  // namespace

bool LocalDataPlane::table_exists(const std::string& table) {
  return db_.table_exists(table);
}

void LocalDataPlane::ensure_table(const std::string& table,
                                  bool sum_combiner) {
  if (sum_combiner) {
    create_sum_table(db_, table);
  } else if (!db_.table_exists(table)) {
    db_.create_table(table);
  }
}

std::unique_ptr<TableMultDataPlane::ReadView> LocalDataPlane::open_read_view(
    const std::vector<std::string>& tables, bool /*snapshot_isolation*/) {
  return std::make_unique<LocalReadView>(db_, tables);
}

std::unique_ptr<TableMultDataPlane::WriteSession>
LocalDataPlane::open_write_session(const std::string& table) {
  return std::make_unique<LocalWriteSession>(db_, table);
}

std::vector<std::string> LocalDataPlane::partition_rows(
    const std::string& table, std::size_t pieces) {
  return db_.partition_rows(table, pieces);
}

void LocalDataPlane::compact(const std::string& table) { db_.compact(table); }

util::RetryPolicy LocalDataPlane::retry_policy() const {
  return db_.retry_policy();
}

}  // namespace graphulo::core
