#include "nosql/batch_writer.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace graphulo::nosql {

namespace {

obs::Counter& bw_flushes() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "batch_writer.flushes.total", "BatchWriter flushes of a non-empty buffer");
  return c;
}
obs::Counter& bw_mutations() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "batch_writer.mutations.total", "Mutations applied through BatchWriter");
  return c;
}
obs::Counter& bw_retries() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "batch_writer.retries.total",
      "Re-attempted applies after a transient flush failure");
  return c;
}

}  // namespace

BatchWriter::BatchWriter(Instance& instance, std::string table,
                         std::size_t max_buffer_bytes,
                         util::RetryPolicy retry,
                         std::optional<std::string> writer_id)
    : instance_(instance),
      table_(std::move(table)),
      max_buffer_bytes_(max_buffer_bytes),
      retry_(retry),
      writer_id_(std::move(writer_id)) {}

BatchWriter::~BatchWriter() {
  if (closed_) return;
  try {
    flush();
  } catch (const std::exception& e) {
    // Destructors must not throw. Unlike the old behaviour (silent
    // swallow), the dropped data is at least reported; callers that
    // care must close() and handle the error.
    GRAPHULO_WARN << "BatchWriter(" << table_ << "): final flush failed in "
                  << "destructor, " << buffer_.size()
                  << " mutations dropped: " << e.what();
  } catch (...) {
    GRAPHULO_WARN << "BatchWriter(" << table_ << "): final flush failed in "
                  << "destructor, " << buffer_.size()
                  << " mutations dropped (unknown error)";
  }
}

void BatchWriter::add_mutation(Mutation mutation) {
  buffered_bytes_ += mutation.estimated_bytes();
  buffer_.push_back(std::move(mutation));
  if (buffered_bytes_ >= max_buffer_bytes_) flush();
}

void BatchWriter::flush() {
  if (buffer_.empty()) return;
  TRACE_SPAN("batch_writer.flush");
  bw_flushes().inc();
  if (!admission_resolved_) {
    admission_ = instance_.admission(table_);
    if (admission_ && !session_) session_ = admission_->make_session();
    admission_resolved_ = true;
  }
  std::size_t applied = 0;
  try {
    for (; applied < buffer_.size(); ++applied) {
      std::size_t attempts = 0;
      util::with_retries("BatchWriter::flush", retry_, [&] {
        if (++attempts > 1) bw_retries().inc();
        util::fault::point(util::fault::sites::kBatchWriterFlush);
        // Inside the retry loop: an OverloadedError (TransientError)
        // from a dry token bucket backs off and re-attempts — the
        // admission layer's back-pressure, surfaced typed to callers
        // once retries run out.
        if (admission_) admission_->admit_write(*session_);
        if (writer_id_) {
          instance_.apply(table_, buffer_[applied], *writer_id_, written_);
        } else {
          instance_.apply(table_, buffer_[applied]);
        }
      });
      ++written_;
      bw_mutations().inc();
    }
  } catch (const std::exception& e) {
    last_error_ = e.what();
    last_error_kind_ = classify_write_error(e);
    // Keep only the unapplied suffix: a retried flush resumes exactly
    // where this one failed, with no duplicate applies.
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(applied));
    buffered_bytes_ = 0;
    for (const auto& m : buffer_) buffered_bytes_ += m.estimated_bytes();
    throw;
  }
  buffer_.clear();
  buffered_bytes_ = 0;
}

void BatchWriter::close() {
  if (closed_) return;
  try {
    flush();
  } catch (...) {
    closed_ = true;  // the caller saw the error; don't re-flush on destroy
    throw;
  }
  closed_ = true;
}

void BatchWriter::abandon() noexcept {
  buffer_.clear();
  buffered_bytes_ = 0;
  closed_ = true;
}

}  // namespace graphulo::nosql
