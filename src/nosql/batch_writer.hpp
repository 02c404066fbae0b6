#pragma once
// Buffered write client, modeled on Accumulo's BatchWriter: mutations
// accumulate in a client-side buffer and are pushed to the instance when
// the buffer exceeds a byte threshold, on flush(), on close(), or at
// destruction.
//
// Failure contract: flush() retries each mutation on TransientError
// with bounded exponential backoff; when retries are exhausted the
// exception propagates and the UNAPPLIED suffix of the buffer is
// retained (already-applied mutations are dropped from it), so a later
// flush()/close() resumes where the failure struck and nothing is
// applied twice. close() is the explicit way to observe final-flush
// errors; the destructor still flushes as a convenience but can only
// WARN about failures (recorded in last_error() until then). abandon()
// discards the buffer for callers that will re-generate the mutations
// themselves.
//
// Writer streams: a writer given a writer id stamps each mutation with
// its position in the stream (0, 1, 2, ... in add_mutation order) and
// applies it through Instance::apply(table, m, writer_id, seq), which
// skips a seq below the table's high-water mark for that id. A fresh
// writer with the SAME id that re-generates and resends the stream
// from seq 0 therefore applies only the suffix no earlier writer
// applied — how a retried TableMult partition stays exactly-once, the
// same (writer id, seq) dedup the tablet service applies to remote
// write batches. Without an id, mutations apply as they come.
//
// Concurrency contract (audited for the parallel TableMult pipeline):
// one BatchWriter instance is NOT thread-safe — it buffers in plain
// members and must be confined to a single thread. Any number of
// BatchWriter instances MAY write to the same table concurrently:
// flush() funnels into Instance::apply, which routes under a shared
// catalog lock, stamps timestamps from an atomic clock, and lands in
// per-tablet mutexes. Writers therefore interleave at mutation
// granularity with no lost updates; relative order across writers is
// unspecified, so concurrent writers to one table should only be used
// when the table's semantics are order-independent (e.g. a commutative
// combiner folding partial products).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nosql/admission.hpp"
#include "nosql/instance.hpp"
#include "nosql/mutation.hpp"
#include "util/fault.hpp"

namespace graphulo::nosql {

class BatchWriter : public MutationSink {
 public:
  /// Typed failure classification (see MutationSink::ErrorKind — the
  /// alias keeps existing BatchWriter::ErrorKind call sites working).
  using ErrorKind = MutationSink::ErrorKind;

  /// Buffers up to `max_buffer_bytes` of mutations before auto-flushing.
  /// `retry` bounds the per-mutation retry of transient apply failures.
  /// `writer_id` makes the writer one dedup stream (see file comment).
  BatchWriter(Instance& instance, std::string table,
              std::size_t max_buffer_bytes = 4 << 20,
              util::RetryPolicy retry = {},
              std::optional<std::string> writer_id = std::nullopt);

  /// Flushes remaining mutations unless close()/abandon() already ran.
  /// Destruction never throws; a failing final flush is logged as a
  /// warning and recorded — call close() explicitly to observe it.
  ~BatchWriter() override;

  BatchWriter(const BatchWriter&) = delete;
  BatchWriter& operator=(const BatchWriter&) = delete;

  /// Queues one mutation. May throw if the buffer threshold triggers an
  /// auto-flush that fails after retries.
  void add_mutation(Mutation mutation) override;

  /// Pushes every buffered mutation to the instance, retrying transient
  /// failures per mutation. On exhaustion the failing exception
  /// propagates; mutations already applied are removed from the buffer
  /// so a subsequent flush() resumes without duplicates.
  void flush() override;

  /// Final flush + marks the writer closed (destructor becomes a
  /// no-op). Throws on failure, with the error also in last_error().
  void close() override;

  /// Discards the buffered (unapplied) mutations and marks the writer
  /// closed. For callers that re-generate their writes on retry.
  void abandon() noexcept override;

  /// The last flush/close error message, if any.
  const std::optional<std::string>& last_error() const noexcept override {
    return last_error_;
  }

  /// Typed classification of last_error() (kNone when no failure has
  /// been recorded). A successful flush does NOT reset it — like
  /// last_error(), it reports the most recent failure. Classified by
  /// classify_write_error, so a remote OverloadedError surfaced through
  /// the RPC client reports kOverloaded exactly like a local shed.
  ErrorKind last_error_kind() const noexcept override {
    return last_error_kind_;
  }

  /// Admission session used to meter this writer's mutations (see
  /// AdmissionController). Defaults to a private session created at
  /// first flush; share one across writers that share a rate budget.
  void set_session(std::shared_ptr<AdmissionSession> session) {
    session_ = std::move(session);
  }

  /// Mutations applied to the instance so far (exact, maintained
  /// per-mutation — meaningful mid-failure). For a writer stream this
  /// counts the mutations an earlier writer with the same id applied
  /// too, so it is also the stream position of the first buffered one.
  std::size_t mutations_written() const noexcept override { return written_; }

  /// Mutations still buffered (unapplied).
  std::size_t mutations_pending() const noexcept { return buffer_.size(); }

 private:
  Instance& instance_;
  std::string table_;
  std::size_t max_buffer_bytes_;
  util::RetryPolicy retry_;
  std::optional<std::string> writer_id_;
  std::size_t buffered_bytes_ = 0;
  std::vector<Mutation> buffer_;
  std::size_t written_ = 0;
  bool closed_ = false;
  std::optional<std::string> last_error_;
  ErrorKind last_error_kind_ = ErrorKind::kNone;
  std::shared_ptr<AdmissionSession> session_;
  /// Resolved once at first flush and shared with the table, so a flush
  /// after delete_table meters against live state and then fails with
  /// the missing-table error (a dropped-and-recreated table is a new
  /// writer's problem).
  std::shared_ptr<AdmissionController> admission_;
  bool admission_resolved_ = false;
};

}  // namespace graphulo::nosql
