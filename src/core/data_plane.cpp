#include "core/data_plane.hpp"

#include <atomic>
#include <map>
#include <random>

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

class StreamWriteSession : public TableMultDataPlane::WriteSession {
 public:
  StreamWriteSession(StreamWriterFactory open, std::uint64_t nonce)
      : open_(std::move(open)),
        prefix_("tm/" + std::to_string(nonce) + "/") {}

  std::unique_ptr<nosql::MutationSink> open_writer(
      std::size_t partition) override {
    // A retried partition re-opens the SAME index, hence the SAME writer
    // id: the table skips what the prior attempt applied.
    return open_(prefix_ + std::to_string(partition));
  }

  bool exactly_once() const noexcept override { return true; }

 private:
  StreamWriterFactory open_;
  std::string prefix_;
};

}  // namespace

std::unique_ptr<TableMultDataPlane::WriteSession> stream_write_session(
    StreamWriterFactory open) {
  static std::atomic<std::uint64_t> next_nonce{
      (std::uint64_t{std::random_device{}()} << 32) ^ std::random_device{}()};
  return std::make_unique<StreamWriteSession>(
      std::move(open), next_nonce.fetch_add(1, std::memory_order_relaxed));
}

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
  return stream_write_session([&db = db_, table](const std::string& id) {
    return std::make_unique<nosql::BatchWriter>(db, table, 4 << 20,
                                                util::RetryPolicy{}, id);
  });
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
