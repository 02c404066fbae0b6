#pragma once
// TimingDataPlane: per-layer timing of a TableMult op, measured from
// outside the program at the DataPlane seam.
//
// It wraps any core::TableMultDataPlane (LocalDataPlane or
// distributed::ClusterDataPlane) and hands the kernel wrapped read
// views, iterators, write sessions and sinks. Every call into the
// ReadView iterators and the MutationSinks is timed with two
// steady_clock reads. All seven SortedKVIterator methods are forwarded
// (next_block and next_block_until included), so the kernel's block
// reads stay on the block path instead of falling back to the
// per-cell defaults.
//
// Attribution: a wrapper belongs to the thread that opened it. The
// wrappers one thread holds open together form one PartitionRecord,
// from the first open to the last close: a TableMult partition (its
// writer and its two input scans) or the up-front mask load (one scan).
// Per-call totals accumulate inside each wrapper without locking and
// are merged into the record when the wrapper is destroyed.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/data_plane.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace core = graphulo::core;
namespace nosql = graphulo::nosql;
namespace obs = graphulo::obs;
namespace util = graphulo::util;

using Clock = std::chrono::steady_clock;

/// Busy time and work counts of the calls made through the wrappers.
struct CallTotals {
  std::uint64_t scan_ns = 0;   ///< open_scan plus every iterator call
  std::uint64_t cells = 0;     ///< cells the iterators delivered
  std::uint64_t seeks = 0;     ///< seek() calls (re-seeks of the join)
  std::uint64_t ranges = 0;    ///< open_scan() calls
  std::uint64_t sink_ns = 0;   ///< add_mutation() and flush()
  std::uint64_t close_ns = 0;  ///< close(): the final flush
  std::uint64_t sink_cells = 0;
  std::uint64_t sink_mutations = 0;

  void add(const CallTotals& o) {
    scan_ns += o.scan_ns;
    cells += o.cells;
    seeks += o.seeks;
    ranges += o.ranges;
    sink_ns += o.sink_ns;
    close_ns += o.close_ns;
    sink_cells += o.sink_cells;
    sink_mutations += o.sink_mutations;
  }
};

/// The wrappers one thread held open together (see file comment).
struct PartitionRecord {
  std::size_t thread = 0;  ///< dense thread index (obs::thread_stripe)
  Clock::time_point start;
  Clock::time_point end;
  CallTotals totals;
  bool wrote = false;  ///< held a sink

  /// A TableMult partition opens both input scans (and, when writing, a
  /// sink); the mask load opens one scan.
  bool is_partition() const { return wrote || totals.ranges >= 2; }
};

/// Everything one op did through the plane.
struct PlaneOp {
  CallTotals totals;
  std::uint64_t control_ns = 0;  ///< table setup, snapshot open, partitioning
  std::uint64_t compact_ns = 0;  ///< result-table compaction
  std::vector<PartitionRecord> partitions;
};

namespace detail {

/// Adds the lifetime of the scope to `sink_ns`.
class Stopwatch {
 public:
  explicit Stopwatch(std::uint64_t& sink_ns)
      : sink_(sink_ns), start_(Clock::now()) {}
  ~Stopwatch() {
    sink_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  std::uint64_t& sink_;
  Clock::time_point start_;
};

}  // namespace detail

class TimingDataPlane final : public core::TableMultDataPlane {
 public:
  explicit TimingDataPlane(core::TableMultDataPlane& inner) : inner_(inner) {}

  bool table_exists(const std::string& table) override {
    detail::Stopwatch w(control_ns_);
    return inner_.table_exists(table);
  }
  void ensure_table(const std::string& table, bool sum_combiner) override {
    detail::Stopwatch w(control_ns_);
    inner_.ensure_table(table, sum_combiner);
  }
  std::unique_ptr<ReadView> open_read_view(
      const std::vector<std::string>& tables,
      bool snapshot_isolation) override;
  std::unique_ptr<WriteSession> open_write_session(
      const std::string& table) override;
  std::vector<std::string> partition_rows(const std::string& table,
                                          std::size_t pieces) override {
    detail::Stopwatch w(control_ns_);
    return inner_.partition_rows(table, pieces);
  }
  void compact(const std::string& table) override {
    detail::Stopwatch w(compact_ns_);
    inner_.compact(table);
  }
  util::RetryPolicy retry_policy() const override {
    return inner_.retry_policy();
  }

  /// What the plane recorded since the last take(). Call between ops,
  /// when no wrapper is open.
  PlaneOp take() {
    std::lock_guard lock(mutex_);
    PlaneOp op = std::move(op_);
    op_ = PlaneOp{};
    op.control_ns = std::exchange(control_ns_, 0);
    op.compact_ns = std::exchange(compact_ns_, 0);
    return op;
  }

  /// Called by a wrapper as it opens, on the opening thread.
  std::thread::id opened() {
    const auto me = std::this_thread::get_id();
    std::lock_guard lock(mutex_);
    Live& live = live_[me];
    if (live.count++ == 0) {
      live.record = PartitionRecord{};
      live.record.thread = obs::thread_stripe();
      live.record.start = Clock::now();
    }
    return me;
  }

  /// Called by a wrapper as it is destroyed, with its totals.
  void closed(std::thread::id owner, const CallTotals& totals, bool wrote) {
    std::lock_guard lock(mutex_);
    Live& live = live_[owner];
    live.record.totals.add(totals);
    live.record.wrote = live.record.wrote || wrote;
    op_.totals.add(totals);
    if (--live.count == 0) {
      live.record.end = Clock::now();
      op_.partitions.push_back(live.record);
    }
  }

 private:
  struct Live {
    int count = 0;
    PartitionRecord record;
  };

  core::TableMultDataPlane& inner_;
  // Control-plane calls come from the op's calling thread only.
  std::uint64_t control_ns_ = 0;
  std::uint64_t compact_ns_ = 0;
  std::mutex mutex_;  // guards live_ and op_
  std::map<std::thread::id, Live> live_;
  PlaneOp op_;
};

namespace detail {

class TimedIterator final : public nosql::SortedKVIterator {
 public:
  TimedIterator(nosql::IterPtr inner, TimingDataPlane& plane,
                std::thread::id owner, CallTotals opening)
      : inner_(std::move(inner)), plane_(plane), owner_(owner),
        totals_(opening) {}
  ~TimedIterator() override { plane_.closed(owner_, totals_, false); }
  TimedIterator(const TimedIterator&) = delete;
  TimedIterator& operator=(const TimedIterator&) = delete;

  void seek(const nosql::Range& range) override {
    Stopwatch w(totals_.scan_ns);
    ++totals_.seeks;
    inner_->seek(range);
  }
  bool has_top() const override {
    Stopwatch w(totals_.scan_ns);
    return inner_->has_top();
  }
  const nosql::Key& top_key() const override {
    Stopwatch w(totals_.scan_ns);
    return inner_->top_key();
  }
  const nosql::Value& top_value() const override {
    Stopwatch w(totals_.scan_ns);
    return inner_->top_value();
  }
  void next() override {
    Stopwatch w(totals_.scan_ns);
    ++totals_.cells;
    inner_->next();
  }
  std::size_t next_block(nosql::CellBlock& out,
                         std::size_t max) override {
    Stopwatch w(totals_.scan_ns);
    const std::size_t n = inner_->next_block(out, max);
    totals_.cells += n;
    return n;
  }
  std::size_t next_block_until(nosql::CellBlock& out,
                               std::size_t max,
                               const nosql::Key& bound,
                               bool allow_equal) override {
    Stopwatch w(totals_.scan_ns);
    const std::size_t n =
        inner_->next_block_until(out, max, bound, allow_equal);
    totals_.cells += n;
    return n;
  }

 private:
  nosql::IterPtr inner_;
  TimingDataPlane& plane_;
  std::thread::id owner_;
  mutable CallTotals totals_;  // const accessors are timed too
};

class TimedSink final : public nosql::MutationSink {
 public:
  TimedSink(std::unique_ptr<nosql::MutationSink> inner,
            TimingDataPlane& plane, std::thread::id owner)
      : inner_(std::move(inner)), plane_(plane), owner_(owner) {}
  ~TimedSink() override {
    inner_.reset();  // its destructor may still flush; count that in
    plane_.closed(owner_, totals_, true);
  }
  TimedSink(const TimedSink&) = delete;
  TimedSink& operator=(const TimedSink&) = delete;

  void add_mutation(nosql::Mutation mutation) override {
    Stopwatch w(totals_.sink_ns);
    totals_.sink_cells += mutation.updates().size();
    ++totals_.sink_mutations;
    inner_->add_mutation(std::move(mutation));
  }
  void flush() override {
    Stopwatch w(totals_.sink_ns);
    inner_->flush();
  }
  void close() override {
    Stopwatch w(totals_.close_ns);
    inner_->close();
  }
  void abandon() noexcept override { inner_->abandon(); }
  std::size_t mutations_written() const noexcept override {
    return inner_->mutations_written();
  }
  const std::optional<std::string>& last_error() const noexcept override {
    return inner_->last_error();
  }
  ErrorKind last_error_kind() const noexcept override {
    return inner_->last_error_kind();
  }

 private:
  std::unique_ptr<nosql::MutationSink> inner_;
  TimingDataPlane& plane_;
  std::thread::id owner_;
  CallTotals totals_;
};

class TimedReadView final : public core::TableMultDataPlane::ReadView {
 public:
  TimedReadView(std::unique_ptr<ReadView> inner, TimingDataPlane& plane)
      : inner_(std::move(inner)), plane_(plane) {}

  nosql::IterPtr open_scan(
      const std::string& table,
      const nosql::Range& range) override {
    const auto owner = plane_.opened();
    CallTotals opening;
    opening.ranges = 1;
    nosql::IterPtr scan;
    try {
      Stopwatch w(opening.scan_ns);
      scan = inner_->open_scan(table, range);
    } catch (...) {
      plane_.closed(owner, opening, false);
      throw;
    }
    return std::make_unique<TimedIterator>(std::move(scan), plane_, owner,
                                           opening);
  }

 private:
  std::unique_ptr<ReadView> inner_;
  TimingDataPlane& plane_;
};

class TimedWriteSession final : public core::TableMultDataPlane::WriteSession {
 public:
  TimedWriteSession(std::unique_ptr<WriteSession> inner,
                    TimingDataPlane& plane)
      : inner_(std::move(inner)), plane_(plane) {}

  std::unique_ptr<nosql::MutationSink> open_writer(
      std::size_t partition) override {
    const auto owner = plane_.opened();
    std::unique_ptr<nosql::MutationSink> sink;
    try {
      sink = inner_->open_writer(partition);
    } catch (...) {
      plane_.closed(owner, CallTotals{}, false);
      throw;
    }
    return std::make_unique<TimedSink>(std::move(sink), plane_, owner);
  }
  bool exactly_once() const noexcept override {
    return inner_->exactly_once();
  }

 private:
  std::unique_ptr<WriteSession> inner_;
  TimingDataPlane& plane_;
};

}  // namespace detail

inline std::unique_ptr<core::TableMultDataPlane::ReadView>
TimingDataPlane::open_read_view(const std::vector<std::string>& tables,
                                bool snapshot_isolation) {
  detail::Stopwatch w(control_ns_);
  return std::make_unique<detail::TimedReadView>(
      inner_.open_read_view(tables, snapshot_isolation), *this);
}

inline std::unique_ptr<core::TableMultDataPlane::WriteSession>
TimingDataPlane::open_write_session(const std::string& table) {
  detail::Stopwatch w(control_ns_);
  return std::make_unique<detail::TimedWriteSession>(
      inner_.open_write_session(table), *this);
}

}  // namespace perfbench
