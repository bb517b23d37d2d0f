// Observability contract tests: the metrics registry's semantics under
// concurrency, the RAII trace spans' nesting guarantees, and — via the
// strict util::JsonValue reader — the exact schemas of both exports
// ("hpcfail.metrics.v1" and the chrome://tracing Trace Event Format).
// These pin what DESIGN.md §6 promises; the determinism side (instrumented
// runs produce byte-identical analysis results) lives in engine_test.cpp
// and ingest_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "faultsim/scenario.hpp"
#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/ingest.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace {

using hpcfail::util::Counter;
using hpcfail::util::Gauge;
using hpcfail::util::Histogram;
using hpcfail::util::install_metrics;
using hpcfail::util::JsonValue;
using hpcfail::util::install_trace;
using hpcfail::util::MetricsRegistry;
using hpcfail::util::TraceEvent;
using hpcfail::util::TraceRecorder;
using hpcfail::util::TraceSpan;

/// Keeps the process-wide sinks clean even when an assertion fires mid-test.
struct SinkGuard {
  explicit SinkGuard(MetricsRegistry* m = nullptr, TraceRecorder* t = nullptr) {
    install_metrics(m);
    install_trace(t);
  }
  ~SinkGuard() {
    install_metrics(nullptr);
    install_trace(nullptr);
  }
};

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterIsMonotonicAndSnapshotIsNameSorted) {
  MetricsRegistry reg;
  reg.counter("hpcfail.test.beta").add(3);
  reg.counter("hpcfail.test.alpha").increment();
  reg.counter("hpcfail.test.beta").increment();
  EXPECT_EQ(reg.counter("hpcfail.test.beta").value(), 4u);

  const auto snapshot = reg.counters();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0], (std::pair<std::string, std::uint64_t>{"hpcfail.test.alpha", 1}));
  EXPECT_EQ(snapshot[1], (std::pair<std::string, std::uint64_t>{"hpcfail.test.beta", 4}));
}

TEST(MetricsRegistry, GaugeIsLastWriteWinsWithRelativeAdjustment) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("hpcfail.test.depth");
  g.set(10);
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
  g.add(5);
  g.add(-1);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(&reg.gauge("hpcfail.test.depth"), &g);
}

TEST(MetricsRegistry, HistogramBucketEdgesAreInclusiveUpperBounds) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("hpcfail.test.latency_us", {1.0, 10.0, 100.0});
  h.observe(1.0);    // on the edge -> bucket 0
  h.observe(-5.0);   // below every edge -> bucket 0
  h.observe(10.0);   // on the edge -> bucket 1
  h.observe(10.5);   // -> bucket 2
  h.observe(1000.0); // past the last edge -> the implicit +inf bucket
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1016.5);
}

TEST(MetricsRegistry, HistogramReRegistrationWithDifferentBoundsThrows) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("hpcfail.test.latency_us", {1.0, 10.0});
  // Same bounds (even unsorted / with duplicates) resolve to the same slot.
  EXPECT_EQ(&reg.histogram("hpcfail.test.latency_us", {10.0, 1.0, 10.0}), &h);
  EXPECT_THROW((void)reg.histogram("hpcfail.test.latency_us", {1.0, 20.0}),
               std::logic_error);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Counter& c = reg.counter("hpcfail.test.hits");
  Histogram& h = reg.histogram("hpcfail.test.values", {0.5});
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.increment();
        h.observe(t % 2 == 0 ? 0.0 : 1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{
                            static_cast<std::uint64_t>(kThreads) / 2 * kPerThread,
                            static_cast<std::uint64_t>(kThreads) / 2 * kPerThread}));
}

// ---------------------------------------------------------------------------
// Sink installation and dark-by-default behavior
// ---------------------------------------------------------------------------

TEST(Sinks, DarkByDefaultAndInstallUninstallRoundTrips) {
  EXPECT_EQ(hpcfail::util::metrics(), nullptr);
  EXPECT_EQ(hpcfail::util::trace(), nullptr);
  {
    MetricsRegistry reg;
    TraceRecorder rec;
    SinkGuard guard(&reg, &rec);
    EXPECT_EQ(hpcfail::util::metrics(), &reg);
    EXPECT_EQ(hpcfail::util::trace(), &rec);
  }
  EXPECT_EQ(hpcfail::util::metrics(), nullptr);
  EXPECT_EQ(hpcfail::util::trace(), nullptr);
}

TEST(Sinks, SpansAreInertWhenNoRecorderIsInstalled) {
  TraceRecorder rec;
  {
    TraceSpan dark("hpcfail.test.dark");
    EXPECT_FALSE(dark.active());
  }
  {
    SinkGuard guard(nullptr, &rec);
    TraceSpan lit("hpcfail.test.lit");
    EXPECT_TRUE(lit.active());
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "hpcfail.test.lit");
}

TEST(Sinks, TraceNameSegmentSanitizesRuntimeLabels) {
  EXPECT_EQ(hpcfail::util::trace_name_segment("cause-aggregates"), "cause_aggregates");
  EXPECT_EQ(hpcfail::util::trace_name_segment("Lead Times #1"), "lead_times__1");
  EXPECT_EQ(hpcfail::util::trace_name_segment(""), "unnamed");
}

// ---------------------------------------------------------------------------
// Span nesting
// ---------------------------------------------------------------------------

TEST(TraceSpans, NestedSpansRecordInCompletionOrderAndContainEachOther) {
  TraceRecorder rec;
  SinkGuard guard(nullptr, &rec);
  {
    TraceSpan outer("hpcfail.test.outer");
    {
      TraceSpan inner("hpcfail.test.inner");
    }
    TraceSpan sibling("hpcfail.test.sibling");
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  // events() is completion order: inner closes before its parent.
  EXPECT_EQ(events[0].name, "hpcfail.test.inner");
  EXPECT_EQ(events[1].name, "hpcfail.test.sibling");
  EXPECT_EQ(events[2].name, "hpcfail.test.outer");
  const TraceEvent& inner = events[0];
  const TraceEvent& sibling = events[1];
  const TraceEvent& outer = events[2];
  EXPECT_EQ(inner.tid, outer.tid);
  // RAII scoping: both children lie inside [outer.ts, outer.ts + outer.dur].
  for (const TraceEvent* child : {&inner, &sibling}) {
    EXPECT_GE(child->ts_us, outer.ts_us);
    EXPECT_LE(child->ts_us + child->dur_us, outer.ts_us + outer.dur_us);
    EXPECT_GE(child->dur_us, 0);
  }
  EXPECT_GE(sibling.ts_us, inner.ts_us + inner.dur_us);
}

TEST(TraceSpans, ThreadIdsAreDensifiedInFirstSeenOrder) {
  TraceRecorder rec;
  SinkGuard guard(nullptr, &rec);
  {
    TraceSpan main_span("hpcfail.test.main_thread");
  }
  std::thread worker([] { TraceSpan span("hpcfail.test.worker_thread"); });
  worker.join();
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  std::map<std::string, std::uint32_t> tid_by_name;
  for (const auto& e : events) tid_by_name[e.name] = e.tid;
  EXPECT_EQ(tid_by_name.at("hpcfail.test.main_thread"), 0u);
  EXPECT_EQ(tid_by_name.at("hpcfail.test.worker_thread"), 1u);
}

// ---------------------------------------------------------------------------
// Export schemas
// ---------------------------------------------------------------------------

TEST(MetricsJson, ExportMatchesSchemaWithSortedKeys) {
  MetricsRegistry reg;
  reg.counter("hpcfail.test.beta").add(7);
  reg.counter("hpcfail.test.alpha").add(2);
  reg.gauge("hpcfail.test.depth").set(-4);
  reg.histogram("hpcfail.test.latency_us", {1.0, 10.0}).observe(3.5);
  reg.histogram("hpcfail.test.latency_us", {1.0, 10.0}).observe(100.0);

  const std::string json = reg.to_json();
  EXPECT_EQ(json, reg.to_json()) << "export must be deterministic";

  const auto root = JsonValue::parse(json);
  ASSERT_TRUE(root);
  ASSERT_TRUE(root->is_object());
  const auto& sections = root->members();
  ASSERT_EQ(sections.size(), 4u);
  EXPECT_EQ(sections[0].first, "schema");
  EXPECT_EQ(sections[1].first, "counters");
  EXPECT_EQ(sections[2].first, "gauges");
  EXPECT_EQ(sections[3].first, "histograms");
  EXPECT_EQ(root->find("schema")->as_string(), "hpcfail.metrics.v1");

  const auto& counters = root->find("counters")->members();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "hpcfail.test.alpha");  // keys sorted
  EXPECT_EQ(counters[0].second.as_number(), 2.0);
  EXPECT_EQ(counters[1].first, "hpcfail.test.beta");
  EXPECT_EQ(counters[1].second.as_number(), 7.0);

  EXPECT_EQ(root->find("gauges")->find("hpcfail.test.depth")->as_number(), -4.0);

  const JsonValue* hist = root->find("histograms")->find("hpcfail.test.latency_us");
  ASSERT_NE(hist, nullptr);
  ASSERT_NE(hist->find("bounds"), nullptr);
  ASSERT_NE(hist->find("counts"), nullptr);
  const auto& bounds = hist->find("bounds")->items();
  const auto& counts = hist->find("counts")->items();
  ASSERT_EQ(bounds.size(), 2u);
  ASSERT_EQ(counts.size(), 3u) << "bounds + the +inf bucket";
  EXPECT_EQ(bounds[0].as_number(), 1.0);
  EXPECT_EQ(bounds[1].as_number(), 10.0);
  EXPECT_EQ(counts[0].as_number(), 0.0);
  EXPECT_EQ(counts[1].as_number(), 1.0);
  EXPECT_EQ(counts[2].as_number(), 1.0);
  EXPECT_EQ(hist->find("count")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(hist->find("sum")->as_number(), 103.5);
}

TEST(MetricsJson, NamesWithQuotesAndBackslashesAreEscaped) {
  MetricsRegistry reg;
  reg.counter("odd\"name\\x").increment();  // hpcfail-lint: allow(metric-naming)
  reg.counter("ctl\r\n\x01").increment();   // hpcfail-lint: allow(metric-naming)
  const auto root = JsonValue::parse(reg.to_json());
  ASSERT_TRUE(root);
  const auto& counters = root->find("counters")->members();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "ctl\r\n\x01");
  EXPECT_EQ(counters[1].first, "odd\"name\\x");
}

/// Validates one parsed chrome trace document: event fields, sort order and
/// the per-thread containment property, returning the set of span names.
std::set<std::string> validate_chrome_trace(const JsonValue& root) {
  EXPECT_TRUE(root.is_object());
  const JsonValue* events = root.find("traceEvents");
  EXPECT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());

  std::set<std::string> names;
  struct Interval {
    std::int64_t ts, end;
  };
  std::map<std::int64_t, std::vector<Interval>> stacks;  // tid -> open spans
  std::int64_t prev_ts = -1;
  std::int64_t prev_tid = -1;
  for (const JsonValue& e : events->items()) {
    EXPECT_TRUE(e.is_object());
    EXPECT_NE(e.find("name"), nullptr);
    names.insert(e.find("name")->as_string());
    EXPECT_EQ(e.find("cat")->as_string(), "hpcfail");
    EXPECT_EQ(e.find("ph")->as_string(), "X");
    EXPECT_EQ(e.find("pid")->as_number(), 1.0);
    const auto ts = static_cast<std::int64_t>(e.find("ts")->as_number());
    const auto dur = static_cast<std::int64_t>(e.find("dur")->as_number());
    const auto tid = static_cast<std::int64_t>(e.find("tid")->as_number());
    EXPECT_GE(ts, 0);
    EXPECT_GE(dur, 0);
    EXPECT_GE(tid, 0);
    // Stable sort order: (ts, tid) ascending.
    EXPECT_TRUE(ts > prev_ts || (ts == prev_ts && tid >= prev_tid))
        << "events must be sorted by (ts, tid)";
    prev_ts = ts;
    prev_tid = tid;
    // Containment: within one thread, spans nest or are disjoint — never
    // partially overlapping (RAII scoping guarantees this).
    auto& stack = stacks[tid];
    while (!stack.empty() && stack.back().end <= ts) stack.pop_back();
    if (!stack.empty()) {
      EXPECT_LE(ts + dur, stack.back().end)
          << "span " << e.find("name")->as_string() << " partially overlaps its parent";
    }
    stack.push_back(Interval{ts, ts + dur});
  }
  return names;
}

TEST(TraceJson, ExportMatchesChromeTraceSchemaAndEscapes) {
  TraceRecorder rec;
  rec.record("hpcfail.test.with\"quote\\slash", 5, 2);
  rec.record("hpcfail.test.ctl\r\n\x01", 6, 1);
  rec.record("hpcfail.test.parent", 0, 10);
  rec.record("hpcfail.test.child", 2, 3);
  const auto root = JsonValue::parse(rec.to_chrome_json());
  ASSERT_TRUE(root);
  const std::set<std::string> names = validate_chrome_trace(*root);
  EXPECT_TRUE(names.count("hpcfail.test.with\"quote\\slash"));
  EXPECT_TRUE(names.count("hpcfail.test.ctl\r\n\x01"));
  EXPECT_TRUE(names.count("hpcfail.test.parent"));
  // Sorting puts the parent (ts 0) before both children.
  EXPECT_EQ(root->find("traceEvents")->items()[0].find("name")->as_string(),
            "hpcfail.test.parent");
}

// ---------------------------------------------------------------------------
// A real pipeline run under both sinks
// ---------------------------------------------------------------------------

TEST(PipelineObservability, TraceCoversSimulatorEngineAndContextPhases) {
  MetricsRegistry reg;
  TraceRecorder rec;
  hpcfail::core::AnalysisResult result;
  hpcfail::core::AnalysisEngine engine;
  {
    SinkGuard guard(&reg, &rec);
    // Declared after the guard so the pool joins (flushing instrumented
    // task epilogues) before the sinks are uninstalled.
    hpcfail::util::ThreadPool pool(2);
    auto sim = hpcfail::faultsim::Simulator(
                   hpcfail::faultsim::scenario_preset(
                       hpcfail::platform::SystemName::S1, 4, 41))
                   .run();
    const auto corpus = hpcfail::loggen::build_corpus(sim);
    const auto parsed = hpcfail::parsers::ingest_corpus(corpus, {.pool = &pool});
    result = engine.analyze(parsed);
  }

  const auto doc = JsonValue::parse(rec.to_chrome_json());
  ASSERT_TRUE(doc);
  const std::set<std::string> names = validate_chrome_trace(*doc);
  EXPECT_TRUE(names.count("hpcfail.sim.run"));
  EXPECT_TRUE(names.count("hpcfail.engine.run"));
  EXPECT_TRUE(names.count("hpcfail.context.type_histogram"));
  EXPECT_TRUE(names.count("hpcfail.context.detect"));
  EXPECT_TRUE(names.count("hpcfail.context.diagnose"));
  EXPECT_TRUE(names.count("hpcfail.context.joins"));
  for (const std::string_view analyzer : engine.analyzer_names()) {
    const std::string span =
        "hpcfail.engine.analyzer_" + hpcfail::util::trace_name_segment(analyzer);
    EXPECT_TRUE(names.count(span)) << "missing analyzer span " << span;
  }

  // The simulator's phase counters record its output volumes.  The
  // workload phase emits jobs rather than log records (its counter is a
  // legitimate zero); the failure and scheduler phases both emit records.
  std::map<std::string, std::uint64_t> counters;
  for (const auto& [name, value] : reg.counters()) counters[name] = value;
  ASSERT_TRUE(counters.count("hpcfail.sim.workload_records"));
  ASSERT_TRUE(counters.count("hpcfail.sim.failures_records"));
  EXPECT_GT(counters["hpcfail.sim.failures_records"], 0u);
  ASSERT_TRUE(counters.count("hpcfail.sim.job_log_records"));
  EXPECT_GT(counters["hpcfail.sim.job_log_records"], 0u);
  // The ingest pool's workers recorded into the registry while it ran.
  ASSERT_TRUE(counters.count("hpcfail.pool.tasks_completed"));
  EXPECT_GT(counters["hpcfail.pool.tasks_completed"], 0u);
  EXPECT_FALSE(result.failures.empty());
}

}  // namespace
