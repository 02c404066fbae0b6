#pragma once
// Write-ahead log: durability for the in-process store. Every catalog
// event (create/delete/clone table, split additions) and every mutation
// is appended as a length-prefixed, sequence-numbered record before it
// is applied; recovery replays the log into a fresh instance. Torn
// tails — a record cut off mid-write by a crash — are detected and
// ignored by replay, and cut off when the log is reopened for writing.
//
// Record format (little-endian, encoded through nosql::wire):
//   magic u32 ("WAL2") | body_len u32 | body
// Body:
//   seq u64 | kind u8 | table | per kind:
//     create / delete table   nothing
//     clone table             target
//     add splits              count u64 | count x split row
//     mutation                assigned_ts i64 | row | count u64 |
//                             count x (family | qualifier | visibility |
//                             ts i64 | has_ts u8 | deleted u8 | value)
// (strings are u32-length-prefixed). Replay rebuilds every update field
// by field, so a recovered mutation equals the logged one: a delete
// keeps its visibility and timestamp, a put its visibility. Records
// carry no CRC: a frame that does not decode ends replay like a torn
// tail, but a flipped bit inside a well-formed body is not detected.
//
// Appends go through one of three sync modes (WalOptions::sync_mode):
//
//   per_append  every append is written + fsync'd before it returns;
//   group       appends buffer their encoded record and block until a
//               background committer thread has made their sequence
//               number durable — concurrent writers share one write()
//               + one fsync() per batch (group commit);
//   interval    appends return immediately; the committer flushes the
//               batch on a byte/latency trigger and records are
//               durable only after an explicit sync().
//
// The sequence number is assigned under the log mutex in append order,
// and batches are committed in seq order, so the on-disk record order
// is always a seq-sorted prefix of the append history — a crash (or a
// failed commit) loses only a suffix.
//
// Checkpointing (see nosql/checkpoint.hpp) bounds replay: a checkpoint
// snapshots the live instance and then rotate() truncates the log, so
// recovery reads checkpoint + post-checkpoint tail instead of the full
// write history. Sequence numbers are monotonic ACROSS rotations; the
// checkpoint records the sequence it covers up to, which makes replay
// idempotent even if a crash lands between the checkpoint rename and
// the log truncation.

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nosql/mutation.hpp"
#include "nosql/wal_options.hpp"

namespace graphulo::nosql {

/// One replayed log record.
struct WalRecord {
  enum class Kind : std::uint8_t {
    kCreateTable = 1,
    kDeleteTable = 2,
    kMutation = 3,
    kCloneTable = 4,  ///< table = source, aux = clone target
    kAddSplits = 5,   ///< splits = the added split rows
  };
  Kind kind;
  std::uint64_t seq = 0;  ///< monotonic record sequence number
  std::string table;
  std::string aux;                  ///< clone target for kCloneTable
  std::vector<std::string> splits;  ///< for kAddSplits
  Timestamp assigned_ts = 0;        ///< for mutations
  Mutation mutation{""};            ///< valid when kind == kMutation
};

/// Append-only log writer (thread-safe). Each record is assigned the
/// next sequence number; on open of an existing log the sequence
/// continues after the last intact record (the rule replay_wal uses:
/// the frame parses and the body decodes), and anything after that
/// record, a torn or corrupt tail, is truncated away before the first
/// append.
class WriteAheadLog {
 public:
  /// Opens (appends to) `path`. Throws on I/O failure.
  explicit WriteAheadLog(const std::string& path, WalOptions options = {});

  /// Drains any buffered records to the file (without fsync), stops the
  /// committer thread, and closes the log. Never throws. If a commit
  /// already failed fatally, buffered records are dropped instead —
  /// their appenders were never acknowledged.
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  void log_create_table(const std::string& table);
  void log_delete_table(const std::string& table);
  void log_clone_table(const std::string& source, const std::string& target);
  void log_add_splits(const std::string& table,
                      const std::vector<std::string>& splits);
  void log_mutation(const std::string& table, const Mutation& mutation,
                    Timestamp assigned_ts);

  /// Makes every record appended so far durable (write + fsync),
  /// regardless of sync mode.
  void sync();

  /// Truncates the log file after a checkpoint has captured its
  /// contents. Buffered-but-uncommitted records are dropped: their
  /// sequence numbers are below the checkpoint's covers_seq, so they
  /// are covered by the snapshot. Sequence numbers keep counting from
  /// where they were, so records written after rotation sort after the
  /// checkpoint. Callers must quiesce writers around checkpoint+rotate.
  void rotate();

  /// The sequence number the NEXT record will receive.
  std::uint64_t next_seq() const;

  /// Highest sequence number known to be safely in the file (fsync'd
  /// in per_append/group modes; written in interval mode).
  std::uint64_t durable_seq() const;

  const WalOptions& options() const noexcept { return options_; }
  const std::string& path() const noexcept { return path_; }

 private:
  struct PendingRecord {
    std::uint64_t seq = 0;
    std::string framed;  ///< magic + length + body, ready for write()
  };

  void write_record(WalRecord record);
  /// Steals the pending buffer and writes (+ optionally fsyncs) it to
  /// the fd; serialized via committing_. Updates durable_seq_ and wakes
  /// waiters. On failure, records the sticky commit error. Called with
  /// `lock` held; returns with it held.
  void commit_pending_locked(std::unique_lock<std::mutex>& lock,
                             bool do_fsync);
  void committer_loop();
  void start_committer_locked();
  void throw_if_failed_locked() const;

  std::string path_;
  WalOptions options_;
  int fd_ = -1;

  mutable std::mutex mutex_;
  std::condition_variable committer_cv_;  ///< wakes the committer
  std::condition_variable durable_cv_;    ///< wakes append/sync waiters
  std::vector<PendingRecord> pending_;
  std::size_t pending_bytes_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t durable_seq_ = 0;
  bool committing_ = false;  ///< a thread is inside write/fsync
  bool stop_ = false;
  std::exception_ptr commit_error_;  ///< sticky: set once, never cleared

  bool committer_started_ = false;
  std::thread committer_;
};

/// Replays a log, invoking `apply` per intact record with
/// record.seq >= `min_seq`, in order. Returns the number of records
/// DELIVERED (records below min_seq are skipped silently — they are
/// covered by the checkpoint that supplied min_seq). A torn or corrupt
/// tail terminates replay cleanly (everything intact before it is
/// still delivered). A missing file yields 0.
std::size_t replay_wal(const std::string& path,
                       const std::function<void(const WalRecord&)>& apply,
                       std::uint64_t min_seq = 0);

}  // namespace graphulo::nosql
