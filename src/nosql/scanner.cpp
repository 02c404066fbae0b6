#include "nosql/scanner.hpp"

#include <future>
#include <mutex>

#include "nosql/filter_iterators.hpp"
#include "nosql/visibility.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace graphulo::nosql {

namespace {

obs::Counter& scan_cells() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "scan.cells.total", "Cells delivered to scan callbacks");
  return c;
}
obs::Counter& scan_blocks() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "scan.blocks.total", "Cell blocks delivered on the batched scan path");
  return c;
}
obs::Counter& scan_deadline_exceeded() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "scan.deadline_exceeded.total",
      "Scans aborted mid-flight by their cooperative deadline");
  return c;
}

using ScanDeadline = std::optional<std::chrono::steady_clock::time_point>;

ScanDeadline deadline_from(std::chrono::milliseconds timeout) {
  if (timeout.count() <= 0) return std::nullopt;
  return std::chrono::steady_clock::now() + timeout;
}

void check_deadline(const ScanDeadline& deadline) {
  if (deadline && std::chrono::steady_clock::now() > *deadline) {
    scan_deadline_exceeded().inc();
    throw DeadlineExceeded("scan exceeded its deadline");
  }
}

IterPtr wrap_stages(IterPtr stack, const std::set<std::string>& families,
                    const std::optional<std::set<std::string>>& auths,
                    const std::vector<ScanIterator>& stages) {
  if (auths) {
    // Closest to the data, as Accumulo applies it.
    stack = make_visibility_filter(std::move(stack), *auths);
  }
  if (!families.empty()) {
    stack = make_column_family_filter(std::move(stack), families);
  }
  for (const auto& stage : stages) stack = stage(std::move(stack));
  return stack;
}

std::size_t run_scan(SortedKVIterator& stack, const Range& range,
                     std::size_t batch, const ScanDeadline& deadline,
                     const std::function<void(const Key&, const Value&)>& fn) {
  TRACE_SPAN("scan.range");
  std::size_t delivered = 0;
  stack.seek(range);
  CellBlock block;
  std::size_t blocks = 0;
  while (stack.has_top()) {
    check_deadline(deadline);
    block.clear();
    if (stack.next_block(block, batch) == 0) break;
    for (const auto& c : block) fn(c.key, c.value);
    delivered += block.size();
    ++blocks;
  }
  scan_cells().inc(delivered);
  scan_blocks().inc(blocks);
  return delivered;
}

/// One ticket (and, lazily, one private session) per scan operation.
AdmissionController::ScanTicket admit(Instance& instance,
                                      const std::string& table,
                                      std::shared_ptr<AdmissionSession>& session,
                                      const ScanDeadline& deadline) {
  const auto ctrl = instance.admission(table);
  if (!ctrl) return {};
  if (!session) session = ctrl->make_session();
  return ctrl->admit_scan(session.get(), deadline);
}

}  // namespace

Scanner::Scanner(Instance& instance, std::string table)
    : instance_(instance), table_(std::move(table)) {}

Scanner& Scanner::set_range(Range range) {
  range_ = std::move(range);
  return *this;
}

Scanner& Scanner::fetch_column_families(std::set<std::string> families) {
  families_ = std::move(families);
  return *this;
}

Scanner& Scanner::set_authorizations(std::set<std::string> auths) {
  auths_ = std::move(auths);
  return *this;
}

Scanner& Scanner::add_scan_iterator(ScanIterator stage) {
  stages_.push_back(std::move(stage));
  return *this;
}

Scanner& Scanner::set_batch_size(std::size_t batch) {
  batch_size_ = batch == 0 ? 1 : batch;
  return *this;
}

Scanner& Scanner::set_snapshot(std::shared_ptr<const Snapshot> snapshot) {
  if (snapshot && snapshot->table_name() != table_) {
    throw std::invalid_argument("Scanner::set_snapshot: snapshot of table '" +
                                snapshot->table_name() +
                                "' attached to scanner of '" + table_ + "'");
  }
  snapshot_ = std::move(snapshot);
  return *this;
}

Scanner& Scanner::set_timeout(std::chrono::milliseconds timeout) {
  timeout_ = timeout;
  return *this;
}

Scanner& Scanner::set_session(std::shared_ptr<AdmissionSession> session) {
  session_ = std::move(session);
  return *this;
}

IterPtr Scanner::build_stack(const std::shared_ptr<Tablet>& tablet,
                             int server_id) {
  IterPtr stack = instance_.server(server_id).scan(*tablet);
  return wrap_stages(std::move(stack), families_, auths_, stages_);
}

std::size_t Scanner::for_each(
    const std::function<void(const Key&, const Value&)>& fn) {
  const ScanDeadline deadline = deadline_from(timeout_);
  // One Scanner::for_each = one admitted scan operation; the ticket
  // releases on every exit path.
  const auto ticket = admit(instance_, table_, session_, deadline);
  std::size_t delivered = 0;
  if (snapshot_) {
    // Snapshot cuts are disjoint and extent-ordered like live tablets.
    for (const auto& cut : snapshot_->tablets_for_range(range_)) {
      auto stack = wrap_stages(cut->scan_stack(), families_, auths_, stages_);
      delivered += run_scan(*stack, range_, batch_size_, deadline, fn);
    }
    return delivered;
  }
  // Tablets are disjoint and extent-ordered, so scanning them in order
  // yields globally ordered results.
  for (auto& [tablet, sid] : instance_.tablets_for_range(table_, range_)) {
    auto stack = build_stack(tablet, sid);
    delivered += run_scan(*stack, range_, batch_size_, deadline, fn);
  }
  return delivered;
}

std::vector<Cell> Scanner::read_all() {
  std::vector<Cell> out;
  for_each([&out](const Key& k, const Value& v) { out.push_back({k, v}); });
  return out;
}

BatchScanner::BatchScanner(Instance& instance, std::string table,
                           util::ThreadPool* pool)
    : instance_(instance),
      table_(std::move(table)),
      pool_(pool ? pool : &util::ThreadPool::global()) {}

BatchScanner& BatchScanner::set_ranges(std::vector<Range> ranges) {
  ranges_ = std::move(ranges);
  return *this;
}

BatchScanner& BatchScanner::fetch_column_families(
    std::set<std::string> families) {
  families_ = std::move(families);
  return *this;
}

BatchScanner& BatchScanner::set_authorizations(std::set<std::string> auths) {
  auths_ = std::move(auths);
  return *this;
}

BatchScanner& BatchScanner::add_scan_iterator(ScanIterator stage) {
  stages_.push_back(std::move(stage));
  return *this;
}

BatchScanner& BatchScanner::set_batch_size(std::size_t batch) {
  batch_size_ = batch == 0 ? 1 : batch;
  return *this;
}

BatchScanner& BatchScanner::set_snapshot(
    std::shared_ptr<const Snapshot> snapshot) {
  if (snapshot && snapshot->table_name() != table_) {
    throw std::invalid_argument(
        "BatchScanner::set_snapshot: snapshot of table '" +
        snapshot->table_name() + "' attached to scanner of '" + table_ + "'");
  }
  snapshot_ = std::move(snapshot);
  return *this;
}

BatchScanner& BatchScanner::set_timeout(std::chrono::milliseconds timeout) {
  timeout_ = timeout;
  return *this;
}

BatchScanner& BatchScanner::set_session(
    std::shared_ptr<AdmissionSession> session) {
  session_ = std::move(session);
  return *this;
}

std::size_t BatchScanner::for_each(
    const std::function<void(const Key&, const Value&)>& fn) {
  const ScanDeadline deadline = deadline_from(timeout_);
  // One BatchScanner::for_each = one admitted scan operation no matter
  // how many tablet tasks it fans out to; the ticket outlives them all.
  const auto ticket = admit(instance_, table_, session_, deadline);
  // One task per (tablet, range) pair — each opens its stack lazily on
  // the worker that runs it (snapshot cuts or live server scans).
  struct Task {
    std::function<IterPtr()> open;
    Range range;
  };
  std::vector<Task> work;
  for (const auto& range : ranges_) {
    if (snapshot_) {
      for (const auto& cut : snapshot_->tablets_for_range(range)) {
        work.push_back({[cut] { return cut->scan_stack(); }, range});
      }
    } else {
      for (auto& [tablet, sid] : instance_.tablets_for_range(table_, range)) {
        work.push_back({[this, tablet = tablet, sid = sid] {
                          return instance_.server(sid).scan(*tablet);
                        },
                        range});
      }
    }
  }
  auto run_one = [this, &fn, &deadline](const Task& task) -> std::size_t {
    IterPtr stack = wrap_stages(task.open(), families_, auths_, stages_);
    return run_scan(*stack, task.range, batch_size_, deadline, fn);
  };

  std::size_t delivered = 0;
  // Run inline when parallelism cannot help (single task or single
  // worker); this also keeps nested scans on a one-thread pool safe.
  if (work.size() <= 1 || pool_->size() <= 1) {
    for (const auto& task : work) delivered += run_one(task);
    return delivered;
  }
  std::vector<std::future<std::size_t>> tasks;
  tasks.reserve(work.size());
  for (const auto& task : work) {
    tasks.push_back(pool_->submit([&run_one, task] { return run_one(task); }));
  }
  for (auto& t : tasks) delivered += t.get();
  return delivered;
}

std::vector<Cell> BatchScanner::read_all() {
  std::vector<Cell> out;
  std::mutex out_mutex;
  for_each([&](const Key& k, const Value& v) {
    std::lock_guard lock(out_mutex);
    out.push_back({k, v});
  });
  return out;
}

}  // namespace graphulo::nosql
