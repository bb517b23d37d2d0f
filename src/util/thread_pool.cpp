#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "util/metrics.hpp"

namespace hpcfail::util {

namespace {

std::int64_t steady_us() noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Task-latency bucket edges in microseconds: 100us .. ~10s, powers of ~4.
const std::vector<double>& latency_bounds() {
  static const std::vector<double> bounds = {100,    400,     1600,    6400,
                                             25600,  102400,  409600,  1638400,
                                             6553600, 10000000};
  return bounds;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

const ThreadPool::Instruments& ThreadPool::bound_instruments() {
  // Generation first, registry second: an install between the two loads
  // leaves a current registry under a stale generation, so the next call
  // simply rebinds.  The reverse order could cache a dead registry's
  // instruments under the new generation.
  const std::uint64_t generation = metrics_generation();
  if (generation != bound_metrics_generation_) {
    bound_metrics_generation_ = generation;
    MetricsRegistry* reg = metrics();
    if (reg == nullptr) {
      instruments_ = Instruments{};
    } else {
      instruments_.queue_depth = &reg->gauge("hpcfail.pool.queue_depth");
      instruments_.tasks_completed = &reg->counter("hpcfail.pool.tasks_completed");
      instruments_.task_latency_us =
          &reg->histogram("hpcfail.pool.task_latency_us", latency_bounds());
      instruments_.worker_busy_us.assign(workers_.empty() ? 1 : workers_.size(),
                                         nullptr);
      for (std::size_t i = 0; i < instruments_.worker_busy_us.size(); ++i) {
        instruments_.worker_busy_us[i] =
            &reg->counter("hpcfail.pool.worker" + std::to_string(i) + ".busy_us");
      }
    }
  }
  return instruments_;
}

void ThreadPool::enqueue(std::function<void()> fn) {
  {
    std::lock_guard lock(mutex_);
    const Instruments& m = bound_instruments();
    if (m.queue_depth != nullptr) {
      m.queue_depth->add(1);
      // Wrap so completion observes enqueue -> done latency.  The wrapper
      // holds raw instrument pointers: the registry outlives the drain (see
      // header contract), and the instruments are atomics, so recording
      // outside the pool mutex is safe.
      queue_.emplace_back([fn = std::move(fn), enq_us = steady_us(),
                           latency = m.task_latency_us, done = m.tasks_completed] {
        fn();
        latency->observe(static_cast<double>(steady_us() - enq_us));
        done->increment();
      });
    } else {
      queue_.push_back(std::move(fn));
    }
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  for (;;) {
    std::function<void()> task;
    Counter* busy = nullptr;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      const Instruments& m = bound_instruments();
      if (m.queue_depth != nullptr) {
        m.queue_depth->add(-1);
        busy = m.worker_busy_us[std::min(worker_index,
                                         m.worker_busy_us.size() - 1)];
      }
    }
    if (busy != nullptr) {
      const std::int64_t t0 = steady_us();
      task();
      busy->add(static_cast<std::uint64_t>(std::max<std::int64_t>(0, steady_us() - t0)));
    } else {
      task();
    }
  }
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace hpcfail::util
