#include "nosql/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "nosql/codec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"

namespace graphulo::nosql {

namespace {

// Registry handles resolved once; the hot path only touches atomics.
obs::Counter& wal_appends() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "wal.appends.total", "WAL records appended (acknowledged)");
  return c;
}
obs::Counter& wal_commit_batches() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "wal.commit.batches.total", "WAL commit batches written to disk");
  return c;
}
obs::Counter& wal_commit_records() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "wal.commit.records.total", "WAL records written inside commit batches");
  return c;
}
obs::Counter& wal_commit_bytes() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "wal.commit.bytes.total", "Framed WAL bytes written to disk");
  return c;
}

constexpr std::uint32_t kRecordMagic = 0x57414c32;  // "WAL2" (WAL1 + seq)

/// Retry budget for the commit path's injection site. Generous on
/// purpose: the mass fault-injection test arms wal.commit with bursts
/// of scheduled fires, and a batch whose records are already buffered
/// (and acknowledged, in interval mode) must not be lost to a burst a
/// few retries would outlast.
const util::RetryPolicy& commit_retry_policy() {
  static const util::RetryPolicy kPolicy{
      /*max_attempts=*/25, std::chrono::microseconds(50), 2.0,
      std::chrono::microseconds(2000)};
  return kPolicy;
}

/// Serializes a record body (everything after the magic + length).
/// Mutations keep the WAL's own layout — a u64 update count and two
/// flag bytes per update — not wire::put_mutation's.
std::string encode_body(const WalRecord& record) {
  std::string body;
  wire::put_u64(body, record.seq);
  wire::put_u8(body, static_cast<std::uint8_t>(record.kind));
  wire::put_string(body, record.table);
  switch (record.kind) {
    case WalRecord::Kind::kCreateTable:
    case WalRecord::Kind::kDeleteTable:
      break;
    case WalRecord::Kind::kCloneTable:
      wire::put_string(body, record.aux);
      break;
    case WalRecord::Kind::kAddSplits:
      wire::put_u64(body, record.splits.size());
      for (const auto& s : record.splits) wire::put_string(body, s);
      break;
    case WalRecord::Kind::kMutation: {
      wire::put_i64(body, record.assigned_ts);
      wire::put_string(body, record.mutation.row());
      wire::put_u64(body, record.mutation.updates().size());
      for (const auto& u : record.mutation.updates()) {
        wire::put_string(body, u.family);
        wire::put_string(body, u.qualifier);
        wire::put_string(body, u.visibility);
        wire::put_i64(body, u.ts);
        wire::put_u8(body, u.has_ts ? 1 : 0);
        wire::put_u8(body, u.deleted ? 1 : 0);
        wire::put_string(body, u.value);
      }
      break;
    }
  }
  return body;
}

/// Wraps an encoded body in the on-disk frame: magic, length, body.
std::string frame_body(const std::string& body) {
  std::string framed;
  framed.reserve(2 * sizeof(std::uint32_t) + body.size());
  wire::put_u32(framed, kRecordMagic);
  wire::put_u32(framed, static_cast<std::uint32_t>(body.size()));
  framed.append(body);
  return framed;
}

/// Parses a record body; false on any truncation/corruption. Each
/// update is rebuilt field by field, so a replayed mutation equals the
/// logged one.
bool decode_body(wire::Cursor c, WalRecord& record) {
  try {
    record.seq = wire::get_u64(c);
    const std::uint8_t kind = wire::get_u8(c);
    if (kind < 1 || kind > 5) return false;
    record.kind = static_cast<WalRecord::Kind>(kind);
    record.table = wire::get_string(c);
    switch (record.kind) {
      case WalRecord::Kind::kCreateTable:
      case WalRecord::Kind::kDeleteTable:
        break;
      case WalRecord::Kind::kCloneTable:
        record.aux = wire::get_string(c);
        break;
      case WalRecord::Kind::kAddSplits: {
        const std::uint64_t count = wire::get_u64(c);
        record.splits.clear();
        for (std::uint64_t i = 0; i < count; ++i) {
          record.splits.push_back(wire::get_string(c));
        }
        break;
      }
      case WalRecord::Kind::kMutation: {
        record.assigned_ts = wire::get_i64(c);
        Mutation mutation(wire::get_string(c));
        const std::uint64_t count = wire::get_u64(c);
        for (std::uint64_t i = 0; i < count; ++i) {
          ColumnUpdate u;
          u.family = wire::get_string(c);
          u.qualifier = wire::get_string(c);
          u.visibility = wire::get_string(c);
          u.ts = wire::get_i64(c);
          u.has_ts = wire::get_u8(c) != 0;
          u.deleted = wire::get_u8(c) != 0;
          u.value = wire::get_string(c);
          mutation.add_update(std::move(u));
        }
        record.mutation = std::move(mutation);
        break;
      }
    }
    return c.at_end();
  } catch (const wire::WireError&) {
    return false;
  }
}

/// Steps `log` over its next record frame (magic | len | body) and
/// points `body` at the body; false at the end of the log, on a torn
/// frame or on a foreign magic. A corrupt length reads as a torn tail:
/// it is checked against the bytes left before anything is read.
bool next_frame(wire::Cursor& log, wire::Cursor& body) {
  if (log.remaining() < 2 * sizeof(std::uint32_t)) return false;
  if (wire::get_u32(log) != kRecordMagic) return false;
  const std::uint32_t len = wire::get_u32(log);
  if (len > log.remaining()) return false;
  body = wire::Cursor(log.data + log.pos, len);
  log.pos += len;
  return true;
}

/// Walks the intact prefix of a log: hands each record whose frame
/// parses and whose body decodes to `visit`, in order, and stops at the
/// first that does not (a torn tail, a foreign magic, a body that does
/// not decode). Returns the byte length of that prefix.
std::size_t walk_log(const std::string& bytes,
                     const std::function<void(const WalRecord&)>& visit) {
  wire::Cursor log(bytes), body;
  std::size_t intact = 0;
  while (next_frame(log, body)) {
    WalRecord record;
    if (!decode_body(body, record)) break;
    visit(record);
    intact = log.pos;
  }
  return intact;
}

/// write(2) loop handling short writes. Throws FatalError on OS error:
/// bytes may already be on disk, so this is never retryable.
void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw util::FatalError("WriteAheadLog: write failure on " + path + ": " +
                             std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

void fsync_or_throw(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    throw util::FatalError("WriteAheadLog: fsync failure on " + path + ": " +
                           std::strerror(errno));
  }
}

}  // namespace

WriteAheadLog::WriteAheadLog(const std::string& path, WalOptions options)
    : path_(path), options_(options) {
  // Resume after the last intact record, and cut whatever follows it
  // off before the first append: replay stops at a torn record, so a
  // record appended after one would never be replayed.
  std::string bytes;
  const bool read = wire::read_file(path, bytes);  // missing: false
  const std::size_t intact =
      read ? walk_log(bytes,
                      [this](const WalRecord& r) { next_seq_ = r.seq + 1; })
           : 0;
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("WriteAheadLog: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  if (read && intact < bytes.size() &&
      ::ftruncate(fd_, static_cast<off_t>(intact)) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd_);
    throw std::runtime_error("WriteAheadLog: cannot cut the torn tail of " +
                             path + ": " + error);
  }
  durable_seq_ = next_seq_ - 1;  // everything already in the file
}

WriteAheadLog::~WriteAheadLog() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
    committer_cv_.notify_all();
  }
  if (committer_started_) committer_.join();
  std::unique_lock lock(mutex_);
  // Drain acknowledged-but-unwritten records (interval mode buffers
  // them). After a fatal commit failure the buffer is dropped instead:
  // those appends were never acknowledged, and the file keeps its
  // clean, seq-ordered prefix.
  if (!commit_error_ && !pending_.empty()) {
    commit_pending_locked(lock, /*do_fsync=*/false);
  }
  if (fd_ >= 0) ::close(fd_);
}

void WriteAheadLog::throw_if_failed_locked() const {
  if (commit_error_) std::rethrow_exception(commit_error_);
}

void WriteAheadLog::start_committer_locked() {
  if (committer_started_ || stop_) return;
  committer_started_ = true;
  committer_ = std::thread([this] { committer_loop(); });
}

void WriteAheadLog::committer_loop() {
  std::unique_lock lock(mutex_);
  while (true) {
    if (options_.sync_mode == WalSyncMode::kGroup) {
      // Group commit: write as soon as anything is pending. While one
      // batch's fsync is in flight, new appends accumulate and ride
      // the next batch together.
      committer_cv_.wait(lock, [&] {
        return stop_ || (!pending_.empty() && !committing_);
      });
    } else {
      // Interval: byte threshold wakes the committer early, otherwise
      // the latency deadline bounds how long a record stays buffered.
      committer_cv_.wait_for(lock, options_.max_batch_latency, [&] {
        return stop_ || pending_bytes_ >= options_.max_batch_bytes;
      });
    }
    if (stop_) return;  // the destructor drains what remains
    if (!pending_.empty()) {
      commit_pending_locked(lock,
                            options_.sync_mode == WalSyncMode::kGroup);
    }
  }
}

void WriteAheadLog::commit_pending_locked(std::unique_lock<std::mutex>& lock,
                                          bool do_fsync) {
  // Single-committer discipline: batches leave the buffer in seq order
  // and hit the file in seq order, so the log is always a seq-sorted
  // prefix of the append history.
  durable_cv_.wait(lock, [&] { return !committing_; });
  if (commit_error_) return;
  if (pending_.empty() && !do_fsync) return;

  std::vector<PendingRecord> batch;
  batch.swap(pending_);
  pending_bytes_ = 0;
  committing_ = true;
  lock.unlock();

  std::exception_ptr error;
  try {
    if (!batch.empty()) {
      TRACE_SPAN("wal.commit");
      // The injection site fires before any byte of the batch is
      // written; a retry re-attempts the whole batch exactly once.
      util::with_retries("wal.commit", commit_retry_policy(),
                         [] { util::fault::point(util::fault::sites::kWalCommit); });
      std::string buffer;
      std::size_t total = 0;
      for (const auto& r : batch) total += r.framed.size();
      buffer.reserve(total);
      for (const auto& r : batch) buffer.append(r.framed);
      write_all(fd_, buffer.data(), buffer.size(), path_);
      if (do_fsync) fsync_or_throw(fd_, path_);
      wal_commit_batches().inc();
      wal_commit_records().inc(batch.size());
      wal_commit_bytes().inc(buffer.size());
    } else if (do_fsync) {
      fsync_or_throw(fd_, path_);
    }
  } catch (const std::exception& e) {
    // Sticky: the batch is lost and every later append must fail too,
    // or the log would develop a seq gap. Surfaced as FatalError so
    // callers' retry loops do not re-append records that were already
    // buffered once.
    error = std::make_exception_ptr(util::FatalError(
        std::string("WriteAheadLog: commit failed permanently: ") + e.what()));
  }

  lock.lock();
  committing_ = false;
  if (error) {
    if (!commit_error_) commit_error_ = error;
  } else if (!batch.empty()) {
    durable_seq_ = batch.back().seq;
  }
  durable_cv_.notify_all();
}

void WriteAheadLog::write_record(WalRecord record) {
  // Injection site sits BEFORE any byte is written (and before the
  // sequence number is consumed): a transient append failure leaves the
  // log untouched, so the caller's retry appends the record exactly
  // once.
  util::fault::point(util::fault::sites::kWalAppend);
  // Append latency as seen by the caller: everything from here to the
  // acknowledgement, including any group-commit durability wait.
  TRACE_SPAN("wal.append");
  std::unique_lock lock(mutex_);
  throw_if_failed_locked();

  if (options_.sync_mode == WalSyncMode::kPerAppend) {
    // Serialize with any in-flight sync()/rotate() commit.
    durable_cv_.wait(lock, [&] { return !committing_; });
    throw_if_failed_locked();
    record.seq = next_seq_;
    const std::string framed = frame_body(encode_body(record));
    // One write + one fsync per record, appenders serialized on the
    // log mutex: the per-record durability cost this mode models. The
    // commit site fires before the write, so an escaping
    // TransientError leaves the sequence number unconsumed and the
    // caller's retry appends exactly once.
    {
      TRACE_SPAN("wal.commit");
      util::with_retries("wal.commit", commit_retry_policy(),
                         [] { util::fault::point(util::fault::sites::kWalCommit); });
      write_all(fd_, framed.data(), framed.size(), path_);
      fsync_or_throw(fd_, path_);
    }
    // Per-append mode commits a batch of one.
    wal_commit_batches().inc();
    wal_commit_records().inc();
    wal_commit_bytes().inc(framed.size());
    wal_appends().inc();
    ++next_seq_;
    durable_seq_ = record.seq;
    durable_cv_.notify_all();
    return;
  }

  record.seq = next_seq_++;
  PendingRecord pending;
  pending.seq = record.seq;
  pending.framed = frame_body(encode_body(record));
  pending_bytes_ += pending.framed.size();
  pending_.push_back(std::move(pending));
  start_committer_locked();

  if (options_.sync_mode == WalSyncMode::kGroup) {
    committer_cv_.notify_one();
    // Block until the committer has made this record durable (or the
    // log failed, or rotate() covered it via a checkpoint).
    durable_cv_.wait(lock, [&] {
      return durable_seq_ >= record.seq || commit_error_ != nullptr;
    });
    if (durable_seq_ < record.seq) throw_if_failed_locked();
    wal_appends().inc();
    return;
  }

  // Interval mode: fire-and-forget; wake the committer early once the
  // byte threshold is crossed.
  wal_appends().inc();
  if (pending_bytes_ >= options_.max_batch_bytes) committer_cv_.notify_one();
}

void WriteAheadLog::log_create_table(const std::string& table) {
  WalRecord r;
  r.kind = WalRecord::Kind::kCreateTable;
  r.table = table;
  write_record(std::move(r));
}

void WriteAheadLog::log_delete_table(const std::string& table) {
  WalRecord r;
  r.kind = WalRecord::Kind::kDeleteTable;
  r.table = table;
  write_record(std::move(r));
}

void WriteAheadLog::log_clone_table(const std::string& source,
                                    const std::string& target) {
  WalRecord r;
  r.kind = WalRecord::Kind::kCloneTable;
  r.table = source;
  r.aux = target;
  write_record(std::move(r));
}

void WriteAheadLog::log_add_splits(const std::string& table,
                                   const std::vector<std::string>& splits) {
  WalRecord r;
  r.kind = WalRecord::Kind::kAddSplits;
  r.table = table;
  r.splits = splits;
  write_record(std::move(r));
}

void WriteAheadLog::log_mutation(const std::string& table,
                                 const Mutation& mutation,
                                 Timestamp assigned_ts) {
  WalRecord r;
  r.kind = WalRecord::Kind::kMutation;
  r.table = table;
  r.assigned_ts = assigned_ts;
  r.mutation = mutation;
  write_record(std::move(r));
}

void WriteAheadLog::sync() {
  util::fault::point(util::fault::sites::kWalSync);
  std::unique_lock lock(mutex_);
  throw_if_failed_locked();
  const std::uint64_t target = next_seq_ - 1;
  // Commit + fsync until everything appended before this call is
  // durable. The loop re-runs if a concurrent committer stole records
  // without fsyncing (interval mode): the empty-batch pass still
  // fsyncs, covering them.
  do {
    commit_pending_locked(lock, /*do_fsync=*/true);
    throw_if_failed_locked();
  } while (durable_seq_ < target);
}

void WriteAheadLog::rotate() {
  std::unique_lock lock(mutex_);
  durable_cv_.wait(lock, [&] { return !committing_; });
  throw_if_failed_locked();
  // Buffered records are covered by the checkpoint that triggered the
  // rotation (its covers_seq is a snapshot of next_seq_, which is past
  // every buffered seq), so they are dropped, not written.
  pending_.clear();
  pending_bytes_ = 0;
  if (::ftruncate(fd_, 0) != 0) {
    throw std::runtime_error("WriteAheadLog: cannot rotate " + path_ + ": " +
                             std::strerror(errno));
  }
  // next_seq_ keeps counting: post-rotation records sort after the
  // checkpoint's covered sequence. Group-mode waiters for dropped
  // records are released as durable — the checkpoint has their data.
  durable_seq_ = next_seq_ - 1;
  durable_cv_.notify_all();
}

std::uint64_t WriteAheadLog::next_seq() const {
  std::lock_guard lock(mutex_);
  return next_seq_;
}

std::uint64_t WriteAheadLog::durable_seq() const {
  std::lock_guard lock(mutex_);
  return durable_seq_;
}

std::size_t replay_wal(const std::string& path,
                       const std::function<void(const WalRecord&)>& apply,
                       std::uint64_t min_seq) {
  std::string bytes;
  if (!wire::read_file(path, bytes)) return 0;
  std::size_t delivered = 0;
  walk_log(bytes, [&](const WalRecord& record) {
    if (record.seq >= min_seq) {
      apply(record);
      ++delivered;
    }
  });
  return delivered;
}

}  // namespace graphulo::nosql
