#pragma once
// Shared background executor for tablet minor/major compactions,
// analogous to Accumulo's tserver compaction thread pools. Tablets
// enqueue their flush and compaction tasks here so that writers do not
// run them; the scheduler tracks queued / in-flight / completed
// counts and offers drain() so checkpointing and shutdown can quiesce
// every background compaction before touching on-disk state.
//
// Tasks must be self-contained and non-throwing from the scheduler's
// point of view: a task that lets an exception escape is logged and
// counted as completed (the owning tablet contains its own failures —
// see Tablet's maintenance tasks).

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

#include "util/threadpool.hpp"

namespace graphulo::nosql {

struct CompactionSchedulerStats {
  std::uint64_t queued = 0;     ///< tasks ever enqueued
  std::uint64_t completed = 0;  ///< tasks finished (incl. failed)
  std::size_t in_flight = 0;    ///< queued or running right now
};

class CompactionScheduler {
 public:
  /// `threads == 0` is clamped to 1 (the underlying pool always makes
  /// progress).
  explicit CompactionScheduler(std::size_t threads = 2);

  /// Drains all outstanding work, then joins the workers.
  ~CompactionScheduler();

  CompactionScheduler(const CompactionScheduler&) = delete;
  CompactionScheduler& operator=(const CompactionScheduler&) = delete;

  /// Schedules `task`. Returns false (without running it) when the
  /// scheduler is shutting down; a tablet then runs the refused task on
  /// the calling thread, as it does without a scheduler.
  bool enqueue(std::function<void()> task);

  /// Blocks until every task enqueued so far has completed. New tasks
  /// enqueued by running tasks (e.g. a flush chaining a major
  /// compaction) are waited for too.
  void drain();

  CompactionSchedulerStats stats() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::uint64_t queued_ = 0;
  std::uint64_t completed_ = 0;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  util::ThreadPool pool_;  ///< last member: destroyed (joined) first
};

}  // namespace graphulo::nosql
