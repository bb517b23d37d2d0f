// Measurement plumbing shared by the perfbench workloads: the benchmark's
// own span recorder (spans are taken around calls into the hpcfail
// libraries, never inside them), per-run sample/value collection, the
// correctness-check ledger and the result-file writer.
//
// Everything here lives in memory until the run ends; the result file and
// the span file are each written once, at exit, by main.cpp.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ----------------------------------------------------------------- spans --

/// One closed span.  `group` is shared by every span of one pass, one
/// set-up round, one writer batch or one client request; `items`/`bytes`
/// carry the work the wrapped call did (records, corpus bytes), so rates
/// are computed where the work happened.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t group = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t items = 0;
  std::uint64_t bytes = 0;
};

/// Process-wide span recorder.  Off by default; when off, a Scope costs one
/// relaxed load.  Each thread appends to its own buffer, so recording takes
/// no lock after a thread's first span.  Each thread keeps at most
/// kMaxSpansPerThread spans; later ones are counted in dropped() instead of
/// growing without bound.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 16;

  static void enable(bool on) noexcept;
  [[nodiscard]] static bool enabled() noexcept;

  /// A fresh group id for a pass, batch or request.
  [[nodiscard]] static std::uint64_t next_group() noexcept;

  /// Sets the calling thread's group for spans opened in its lifetime.
  class Group {
   public:
    explicit Group(std::uint64_t id) noexcept;
    ~Group();
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

   private:
    std::uint64_t saved_;
  };

  /// RAII span; nests under the thread's innermost open Scope.
  class Scope {
   public:
    explicit Scope(const char* name) noexcept;
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_items(std::uint64_t n) noexcept { span_.items = n; }
    void set_bytes(std::uint64_t n) noexcept { span_.bytes = n; }

   private:
    bool active_ = false;
    Span span_;
  };

  /// Every recorded span, all threads.  Call only after every recording
  /// thread has been joined.
  [[nodiscard]] static std::vector<Span> collect();
  [[nodiscard]] static std::uint64_t dropped() noexcept;
};

// --------------------------------------------------------------- results --

/// Named sample series, scalar values and the check ledger of one run.
/// Thread-safe; hot loops collect into local vectors and merge() once.
class Results {
 public:
  void add(const std::string& series, double value);
  void merge(const std::string& series, const std::vector<double>& values);
  void set(const std::string& name, double value);

  /// Counts one checked operation; a false `ok` is a failure and keeps
  /// `what` (the first few messages only).
  void check(bool ok, const std::string& what);

  /// Counts `n` checked operations that passed (for hot loops that tally
  /// locally and report failures through check()).
  void passed(std::uint64_t n) noexcept { attempted_.fetch_add(n, std::memory_order_relaxed); }

  /// The run's result document (see README.md, "Result files").
  [[nodiscard]] std::string to_json(const std::string& header_json) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, double> values_;
  std::vector<std::string> errors_;
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

/// A fixed-size uniform sample of an unbounded stream (Algorithm R), so a
/// hot loop's memory does not grow with its throughput.  The storage is
/// allocated and touched up front; each reservoir owns its cache line, so
/// reservoirs of different threads never share one.
class alignas(64) Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed) : slots_(capacity), state_(seed | 1) {}

  void add(double v) noexcept {
    if (count_ < slots_.size()) {
      slots_[count_] = v;
    } else {
      const std::uint64_t j = next() % (count_ + 1);
      if (j < slots_.size()) slots_[j] = v;
    }
    ++count_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// The kept samples: min(count, capacity) of them.
  [[nodiscard]] std::vector<double> values() const {
    return {slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(
                                                 std::min<std::uint64_t>(count_, slots_.size()))};
  }

 private:
  std::uint64_t next() noexcept {  // xorshift64*
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 2685821657736338717ULL;
  }

  std::vector<double> slots_;
  std::uint64_t count_ = 0;
  std::uint64_t state_;
};

void append_json_string(std::string& out, const std::string& s);

// -------------------------------------------------------------- workloads --

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch space for corpora, snapshots, tails
  int days = 28;         ///< simulated window per scenario
};

void run_batch_fleet(const RunOptions& options, Results& results);
void run_ingest_archive(const RunOptions& options, Results& results);
void run_serve(const RunOptions& options, bool observed, Results& results);

}  // namespace perfbench
