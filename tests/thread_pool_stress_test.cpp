// TSan-targeted stress regression suite for the concurrent shard pipeline:
// ThreadPool::submit under contention, pool teardown with queued work, and
// concurrent submitters and corpus ingestion through the shared default
// pool.  Run it under the `tsan` and `asan` presets; the suite is also fast
// enough for plain CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/ingest.hpp"
#include "util/thread_pool.hpp"

namespace hpcfail {
namespace {

using util::ThreadPool;

TEST(ThreadPoolStress, ManyThreadsSubmitConcurrently) {
  ThreadPool pool(4);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kTasksPerThread = 250;
  std::atomic<std::size_t> executed{0};

  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&pool, &executed] {
      std::vector<std::future<void>> futures;
      futures.reserve(kTasksPerThread);
      for (std::size_t i = 0; i < kTasksPerThread; ++i) {
        futures.push_back(pool.submit([&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& s : submitters) s.join();
  EXPECT_EQ(executed.load(), kThreads * kTasksPerThread);
}

TEST(ThreadPoolStress, TeardownDrainsQueuedTasks) {
  constexpr std::size_t kTasks = 200;
  std::atomic<std::size_t> executed{0};
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  {
    ThreadPool pool(2);
    for (std::size_t i = 0; i < kTasks; ++i) {
      futures.push_back(pool.submit([&executed] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        executed.fetch_add(1, std::memory_order_relaxed);
      }));
    }
    // Destructor runs with most tasks still queued; it must drain them all.
  }
  EXPECT_EQ(executed.load(), kTasks);
  for (auto& f : futures) {
    EXPECT_NO_THROW(f.get());
  }
}

TEST(ThreadPoolStress, DefaultPoolSharedAcrossThreads) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kN = 4000;
  std::vector<std::atomic<std::size_t>> sums(kThreads);
  std::vector<std::thread> users;
  users.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    users.emplace_back([t, &sums] {
      std::vector<std::future<void>> futures;
      futures.reserve(kN);
      for (std::size_t i = 0; i < kN; ++i) {
        futures.push_back(util::default_pool().submit([t, i, &sums] {
          sums[t].fetch_add(i, std::memory_order_relaxed);
        }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& u : users) u.join();
  const std::size_t expected = kN * (kN - 1) / 2;
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sums[t].load(), expected) << "thread " << t;
  }
}

// Concurrent ingestion: several threads parse the same corpus through the
// shared default pool at once.  Results must be identical run-to-run (the
// chunk pipeline retires in FIFO order regardless of interleaving).
TEST(ThreadPoolStress, ConcurrentCorpusIngestionIsDeterministic) {
  const auto sim =
      faultsim::Simulator(faultsim::scenario_preset(platform::SystemName::S3, 2, 1234))
          .run();
  const loggen::Corpus corpus = loggen::build_corpus(sim);

  const parsers::ParsedCorpus baseline = parsers::ingest_corpus(corpus);

  constexpr std::size_t kThreads = 4;
  std::vector<std::unique_ptr<parsers::ParsedCorpus>> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &corpus, &results] {
      results[t] = std::make_unique<parsers::ParsedCorpus>(parsers::ingest_corpus(corpus));
    });
  }
  for (auto& w : workers) w.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(results[t], nullptr);
    EXPECT_EQ(results[t]->total_lines, baseline.total_lines);
    EXPECT_EQ(results[t]->skipped_lines, baseline.skipped_lines);
    EXPECT_EQ(results[t]->parsed_records, baseline.parsed_records);
    EXPECT_EQ(results[t]->store.records().size(), baseline.store.records().size());
  }
}

}  // namespace
}  // namespace hpcfail
