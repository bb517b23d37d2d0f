// Fixed-size thread pool with a blocking task queue.  Callers submit tasks
// and hold the futures: chunked text ingest parses chunks here (merging them
// in chunk order), and the serve session answers requests here.  The
// analysis itself runs serially and never touches a pool.
//
// Observability (util/metrics.hpp): when a MetricsRegistry is installed the
// pool exports, under `hpcfail.pool.*`:
//   - queue_depth        gauge, tasks waiting in the queue
//   - tasks_completed    counter
//   - task_latency_us    histogram, enqueue -> completion per task
//   - worker<i>.busy_us  counter per worker, cumulative task run time
// Instruments bind lazily inside the queue mutex, so an uninstrumented
// pool pays one atomic load + integer compare per submit; clock reads
// happen only while a registry is installed.  The registry must stay
// installed (and alive) until the pool is idle or destroyed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace hpcfail::util {

class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; the future resolves when it completes.
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<F>> submit(F&& fn) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

 private:
  /// Instrument slots resolved against the currently installed registry.
  struct Instruments {
    Gauge* queue_depth = nullptr;
    Counter* tasks_completed = nullptr;
    Histogram* task_latency_us = nullptr;
    std::vector<Counter*> worker_busy_us;  ///< one per worker
  };

  void enqueue(std::function<void()> fn);
  void worker_loop(std::size_t worker_index);
  /// Must hold mutex_.  Rebinds instruments_ when the metrics install
  /// generation changed since the last call; returns the current binding
  /// (nullptr members when metrics are dark).  Keyed on the generation,
  /// not the registry address: a new registry can reuse a destroyed one's
  /// address, which would alias a stale binding to freed instruments.
  const Instruments& bound_instruments();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::uint64_t bound_metrics_generation_ = 0;  ///< guarded by mutex_
  Instruments instruments_;                     ///< guarded by mutex_
};

/// Process-wide default pool (lazily constructed, hardware concurrency).
[[nodiscard]] ThreadPool& default_pool();

}  // namespace hpcfail::util
