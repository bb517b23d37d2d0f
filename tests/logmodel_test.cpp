// Unit and property tests for src/logmodel: taxonomy consistency, LogStore,
// and a differential check of LogStore's sort against std::stable_sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "logmodel/cause.hpp"
#include "logmodel/event_type.hpp"
#include "logmodel/log_store.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace hpcfail::logmodel {
namespace {

// ------------------------------------------------------------ taxonomy ----

TEST(TaxonomyTest, EveryTypeHasUniqueName) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    const auto type = static_cast<EventType>(i);
    const auto name = to_string(type);
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << name;
    EXPECT_EQ(event_type_from_string(name), type);
  }
  EXPECT_FALSE(event_type_from_string("NoSuchEvent").has_value());
}

class TaxonomyClassification : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TaxonomyClassification, ClassesAreConsistent) {
  const auto type = static_cast<EventType>(GetParam());
  const EventClass cls = event_class(type);
  // Health faults and SEDC warnings are external; they never overlap.
  if (is_health_fault(type) || is_sedc_warning(type)) {
    EXPECT_EQ(cls, EventClass::External) << to_string(type);
    EXPECT_FALSE(is_health_fault(type) && is_sedc_warning(type)) << to_string(type);
  }
  // Failure markers and internal indicators are internal and disjoint.
  if (is_failure_marker(type) || is_internal_indicator(type)) {
    EXPECT_EQ(cls, EventClass::Internal) << to_string(type);
    EXPECT_FALSE(is_failure_marker(type) && is_internal_indicator(type)) << to_string(type);
  }
  // External lead-time indicators are external events.
  if (is_external_indicator(type)) {
    EXPECT_EQ(cls, EventClass::External) << to_string(type);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, TaxonomyClassification,
                         ::testing::Range<std::size_t>(0, kEventTypeCount));

TEST(CauseTest, LayersAndStrings) {
  EXPECT_EQ(layer_of(RootCause::HardwareMce), CauseLayer::Hardware);
  EXPECT_EQ(layer_of(RootCause::FailSlowHardware), CauseLayer::Hardware);
  EXPECT_EQ(layer_of(RootCause::KernelBug), CauseLayer::Software);
  EXPECT_EQ(layer_of(RootCause::LustreBug), CauseLayer::Software);
  EXPECT_EQ(layer_of(RootCause::MemoryExhaustion), CauseLayer::Application);
  EXPECT_EQ(layer_of(RootCause::BiosUnknown), CauseLayer::Unknown);
  EXPECT_TRUE(is_application_triggered(RootCause::MemoryExhaustion));
  EXPECT_FALSE(is_application_triggered(RootCause::HardwareMce));
  for (std::size_t i = 0; i < kRootCauseCount; ++i) {
    EXPECT_NE(to_string(static_cast<RootCause>(i)), "?");
  }
}

// ------------------------------------------------------------ LogStore ----

LogRecord make_record(std::int64_t sec, EventType type, std::uint32_t node,
                      std::uint32_t blade = 0, std::uint32_t cabinet = 0) {
  LogRecord r;
  r.time = util::TimePoint::from_unix_seconds(sec);
  r.type = type;
  r.node = platform::NodeId{node};
  r.blade = platform::BladeId{blade};
  r.cabinet = platform::CabinetId{cabinet};
  return r;
}

TEST(LogStoreTest, SortsByTime) {
  std::vector<LogRecord> records;
  records.push_back(make_record(30, EventType::KernelPanic, 1));
  records.push_back(make_record(10, EventType::HardwareError, 1));
  records.push_back(make_record(20, EventType::MachineCheckException, 1));
  const LogStore store{std::move(records)};
  ASSERT_EQ(store.size(), 3u);
  EXPECT_EQ(store[0].type, EventType::HardwareError);
  EXPECT_EQ(store[2].type, EventType::KernelPanic);
  EXPECT_EQ(store.first_time().unix_seconds(), 10);
  EXPECT_EQ(store.last_time().unix_seconds(), 30);
}

TEST(LogStoreTest, RangeQueryHalfOpen) {
  std::vector<LogRecord> records;
  for (int s = 0; s < 10; ++s) {
    records.push_back(make_record(s, EventType::LustreError, 1));
  }
  const LogStore store{std::move(records)};
  const auto span = store.range(util::TimePoint::from_unix_seconds(2),
                                util::TimePoint::from_unix_seconds(5));
  EXPECT_EQ(span.size(), 3u);
  EXPECT_EQ(span.front().time.unix_seconds(), 2);
  EXPECT_EQ(span.back().time.unix_seconds(), 4);
}

TEST(LogStoreTest, NodeBladeCabinetIndexes) {
  std::vector<LogRecord> records;
  records.push_back(make_record(1, EventType::HardwareError, 1, 10, 100));
  records.push_back(make_record(2, EventType::HardwareError, 2, 10, 100));
  records.push_back(make_record(3, EventType::HardwareError, 3, 11, 101));
  // Blade-scoped record (no node).
  LogRecord blade_only;
  blade_only.time = util::TimePoint::from_unix_seconds(4);
  blade_only.type = EventType::EcHwError;
  blade_only.blade = platform::BladeId{10};
  blade_only.cabinet = platform::CabinetId{100};
  records.push_back(blade_only);
  const LogStore store{std::move(records)};

  const auto t0 = util::TimePoint::from_unix_seconds(0);
  const auto t9 = util::TimePoint::from_unix_seconds(9);
  EXPECT_EQ(store.node_range(platform::NodeId{1}, t0, t9).size(), 1u);
  EXPECT_EQ(store.blade_range(platform::BladeId{10}, t0, t9).size(), 3u);
  EXPECT_EQ(store.cabinet_range(platform::CabinetId{100}, t0, t9).size(), 3u);
  EXPECT_EQ(store.cabinet_range(platform::CabinetId{101}, t0, t9).size(), 1u);
  EXPECT_EQ(store.node_range(platform::NodeId{99}, t0, t9).size(), 0u);
  // Window narrowing.
  EXPECT_EQ(store.blade_range(platform::BladeId{10}, util::TimePoint::from_unix_seconds(2),
                              util::TimePoint::from_unix_seconds(4))
                .size(),
            1u);
}

TEST(LogStoreTest, TypeIndexAndCounts) {
  std::vector<LogRecord> records;
  records.push_back(make_record(1, EventType::KernelPanic, 1));
  records.push_back(make_record(2, EventType::KernelPanic, 2));
  records.push_back(make_record(3, EventType::NodeBoot, 2));
  const LogStore store{std::move(records)};
  EXPECT_EQ(store.count_of_type(EventType::KernelPanic), 2u);
  EXPECT_EQ(store.count_of_type(EventType::OomKill), 0u);
  EXPECT_EQ(store.type_index(EventType::NodeBoot).size(), 1u);
  const auto in_window = store.type_range(EventType::KernelPanic,
                                          util::TimePoint::from_unix_seconds(2),
                                          util::TimePoint::from_unix_seconds(9));
  EXPECT_EQ(in_window.size(), 1u);
}

TEST(LogStoreTest, IncrementalAddRequiresFinalize) {
  LogStore store;
  store.add(make_record(5, EventType::NodeBoot, 1));
  store.add(make_record(1, EventType::KernelPanic, 1));
  EXPECT_FALSE(store.finalized());
  store.finalize();
  EXPECT_TRUE(store.finalized());
  EXPECT_EQ(store[0].type, EventType::KernelPanic);
  EXPECT_EQ(store.nodes().size(), 1u);
}

TEST(LogStoreTest, EmptyStore) {
  const LogStore store{std::vector<LogRecord>{}};
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.range(util::TimePoint{0}, util::TimePoint{100}).empty());
  EXPECT_TRUE(store.nodes().empty());
}

TEST(LogStoreTest, DefaultConstructedStoreAnswersEveryQueryEmpty) {
  // A default-constructed store is trivially finalized; every query must
  // return the empty answer instead of indexing unbuilt tables (the
  // type_range subscript used to be UB here).
  const LogStore store;
  const auto t0 = util::TimePoint{0};
  const auto t9 = util::TimePoint::from_unix_seconds(9);
  EXPECT_TRUE(store.finalized());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.type_range(EventType::KernelPanic, t0, t9).empty());
  EXPECT_TRUE(store.type_index(EventType::KernelPanic).empty());
  EXPECT_EQ(store.count_of_type(EventType::KernelPanic), 0u);
  EXPECT_TRUE(store.node_range(platform::NodeId{1}, t0, t9).empty());
  EXPECT_TRUE(store.node_index(platform::NodeId{1}).empty());
  EXPECT_TRUE(store.range(t0, t9).empty());
  EXPECT_EQ(store.first_time(), util::TimePoint{});
  EXPECT_EQ(store.last_time(), util::TimePoint{});
}

TEST(LogStoreTest, QueriesOnNonFinalizedStoreThrow) {
  LogStore store;
  store.add(make_record(5, EventType::NodeBoot, 1));
  ASSERT_FALSE(store.finalized());
  const auto t0 = util::TimePoint{0};
  const auto t9 = util::TimePoint::from_unix_seconds(9);
  EXPECT_THROW((void)store.first_time(), std::logic_error);
  EXPECT_THROW((void)store.last_time(), std::logic_error);
  EXPECT_THROW((void)store.range(t0, t9), std::logic_error);
  EXPECT_THROW((void)store.node_range(platform::NodeId{1}, t0, t9), std::logic_error);
  EXPECT_THROW((void)store.blade_range(platform::BladeId{0}, t0, t9), std::logic_error);
  EXPECT_THROW((void)store.cabinet_range(platform::CabinetId{0}, t0, t9), std::logic_error);
  EXPECT_THROW((void)store.type_range(EventType::NodeBoot, t0, t9), std::logic_error);
  EXPECT_THROW((void)store.count_of_type(EventType::NodeBoot), std::logic_error);
  EXPECT_THROW((void)store.node_index(platform::NodeId{1}), std::logic_error);
  EXPECT_THROW((void)store.type_index(EventType::NodeBoot), std::logic_error);
  EXPECT_THROW((void)store.nodes(), std::logic_error);
  store.finalize();
  EXPECT_EQ(store.first_time().unix_seconds(), 5);
}

// ------------------------------------------- finalize differential ----
//
// LogStore::finalize sorts with a natural-run merge; std::stable_sort is
// its reference.  Every record's detail holds its append position, so the
// comparison also sees the order of time-tied records.

void expect_matches_stable_sort(const std::vector<std::int64_t>& seconds) {
  SymbolTable symbols;
  std::vector<LogRecord> records;
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    LogRecord r = make_record(seconds[i], EventType::KernelPanic,
                              static_cast<std::uint32_t>(i % 7));
    r.detail = symbols.intern(std::to_string(i));
    records.push_back(r);
  }
  std::vector<LogRecord> want = records;
  std::stable_sort(want.begin(), want.end(),
                   [](const LogRecord& a, const LogRecord& b) { return a.time < b.time; });

  const LogStore store{std::move(records), symbols};
  ASSERT_EQ(store.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(store[i].time, want[i].time) << "record " << i;
    ASSERT_EQ(store.detail(i), symbols.view(want[i].detail)) << "record " << i;
  }
}

TEST(LogStoreFinalize, TrivialInputs) {
  expect_matches_stable_sort({});
  expect_matches_stable_sort({5});
  expect_matches_stable_sort(std::vector<std::int64_t>(500, 7));  // all ties
}

TEST(LogStoreFinalize, SortedAndReversed) {
  std::vector<std::int64_t> sorted;
  for (std::int64_t i = 0; i < 1000; ++i) sorted.push_back(i / 3);  // runs of ties
  expect_matches_stable_sort(sorted);
  expect_matches_stable_sort({sorted.rbegin(), sorted.rend()});
}

TEST(LogStoreFinalize, ManyShortRuns) {
  // The simulator's shape: thousands of short ascending runs (one per
  // emitted event chain) scattered over the window, with frequent ties.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    std::vector<std::int64_t> seconds;
    while (seconds.size() < 4000) {
      std::int64_t t = rng.uniform_int(0, 999);
      for (auto n = rng.uniform_int(1, 8); n > 0; --n) {
        seconds.push_back(t);
        t += rng.uniform_int(0, 3);
      }
    }
    expect_matches_stable_sort(seconds);
  }
}

TEST(LogStoreFinalize, SortedPlusLateInterleavedTail) {
  // A tail poll's shape: a sorted base plus a few late records whose times
  // fall between (and tie with) base records.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    std::vector<std::int64_t> seconds;
    for (std::int64_t i = 0; i < 2000; ++i) seconds.push_back(i / 2);
    std::vector<std::int64_t> tail;
    for (int i = 0; i < 16; ++i) tail.push_back(rng.uniform_int(0, 999));
    std::sort(tail.begin(), tail.end());
    seconds.insert(seconds.end(), tail.begin(), tail.end());
    expect_matches_stable_sort(seconds);
  }
}

// --------------------------------------------- appended differential ----
//
// LogStore::appended splices fresh records onto a finalized base; the
// constructor over base.records() ++ fresh is its oracle.  The two must
// agree on every snapshot section byte (rows, symbols, time/type columns,
// the four CSR indexes and the node list).  Each record's detail names
// its origin, so the comparison also sees the order of time-tied records.

/// Draws records with times in [lo, hi] seconds (narrow ranges force
/// ties) and keys below the given bounds; a bound of 0 means the key is
/// never set, and any key is left unset one time in five.
struct RowShape {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::uint32_t nodes = 16;
  std::uint32_t blades = 8;
  std::uint32_t cabinets = 4;
};

std::vector<LogRecord> random_rows(util::Rng& rng, std::size_t count, const RowShape& shape,
                                   SymbolTable& symbols, const std::string& tag) {
  const auto id_below = [&rng](std::uint32_t bound) {
    return bound == 0 || rng.bernoulli(0.2)
               ? platform::NodeId::kInvalid
               : static_cast<std::uint32_t>(rng.uniform_int(0, bound - 1));
  };
  std::vector<LogRecord> rows;
  for (std::size_t i = 0; i < count; ++i) {
    LogRecord r;
    r.time = util::TimePoint::from_unix_seconds(rng.uniform_int(shape.lo, shape.hi));
    r.type = static_cast<EventType>(
        rng.uniform_int(0, static_cast<std::int64_t>(kEventTypeCount) - 1));
    r.node = platform::NodeId{id_below(shape.nodes)};
    r.blade = platform::BladeId{id_below(shape.blades)};
    r.cabinet = platform::CabinetId{id_below(shape.cabinets)};
    r.detail = symbols.intern(tag + std::to_string(i));
    rows.push_back(r);
  }
  return rows;
}

void expect_same_sections(const LogStore& got, const LogStore& want) {
  util::Sections got_sections;
  util::Sections want_sections;
  got.append_sections(got_sections);
  want.append_sections(want_sections);
  const auto& g = got_sections.entries();
  const auto& w = want_sections.entries();
  ASSERT_EQ(g.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(g[i].name, w[i].name);
    EXPECT_TRUE(std::equal(g[i].bytes.begin(), g[i].bytes.end(), w[i].bytes.begin(),
                           w[i].bytes.end()))
        << "section " << w[i].name << " differs from the full rebuild";
  }
}

/// Checks appended(base, fresh) against the oracle and returns it.
LogStore expect_appended_matches(const LogStore& base, const std::vector<LogRecord>& fresh,
                                 const SymbolTable& symbols) {
  std::vector<LogRecord> all = base.records();
  all.insert(all.end(), fresh.begin(), fresh.end());
  const LogStore want{std::move(all), symbols};
  LogStore got = LogStore::appended(base, fresh, symbols);
  EXPECT_TRUE(got.finalized());
  expect_same_sections(got, want);
  return got;
}

std::int64_t earliest_usec(const std::vector<LogRecord>& rows) {
  std::int64_t earliest = std::numeric_limits<std::int64_t>::max();
  for (const LogRecord& r : rows) earliest = std::min(earliest, r.time.usec);
  return earliest;
}

/// The rows of a base at or before the earliest fresh time: the prefix
/// appended() leaves untouched.
std::size_t cut_of(const LogStore& base, const std::vector<LogRecord>& fresh) {
  const auto times = base.times();
  return static_cast<std::size_t>(
      std::upper_bound(times.begin(), times.end(), earliest_usec(fresh)) - times.begin());
}

TEST(LogStoreAppended, EmptyBaseAndEmptyDelta) {
  util::Rng rng(11);
  SymbolTable symbols;
  const auto rows = random_rows(rng, 200, {0, 50}, symbols, "b");
  const auto fresh = random_rows(rng, 40, {0, 50}, symbols, "f");
  const LogStore empty{std::vector<LogRecord>{}, symbols};
  (void)expect_appended_matches(empty, {}, symbols);
  (void)expect_appended_matches(empty, fresh, symbols);
  (void)expect_appended_matches(LogStore{}, fresh, symbols);
  (void)expect_appended_matches(LogStore{rows, symbols}, {}, symbols);
}

TEST(LogStoreAppended, DeltaEntirelyBeforeOrAfterTheBase) {
  util::Rng rng(12);
  SymbolTable symbols;
  const LogStore base{random_rows(rng, 300, {100, 200}, symbols, "b"), symbols};
  const auto before = random_rows(rng, 30, {0, 99}, symbols, "e");
  const auto after = random_rows(rng, 30, {201, 300}, symbols, "l");
  ASSERT_EQ(cut_of(base, before), 0u);
  ASSERT_EQ(cut_of(base, after), base.size());
  (void)expect_appended_matches(base, before, symbols);
  (void)expect_appended_matches(base, after, symbols);
  // A delta that starts exactly at the base's last time ties at the end:
  // the cut is still n, and base keeps its tied rows first.
  auto at_end = random_rows(rng, 30, {200, 200}, symbols, "t");
  ASSERT_EQ(cut_of(base, at_end), base.size());
  (void)expect_appended_matches(base, at_end, symbols);
}

TEST(LogStoreAppended, TimeTiesAtTheCut) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    SymbolTable symbols;
    // Ten distinct times, so the cut falls inside a run of ties and the
    // merged suffix is full of base/fresh ties.
    const LogStore base{random_rows(rng, 400, {0, 9}, symbols, "b"), symbols};
    const auto fresh = random_rows(rng, 40, {5, 9}, symbols, "f");
    const std::size_t cut = cut_of(base, fresh);
    ASSERT_GT(cut, 0u);
    ASSERT_LT(cut, base.size());
    ASSERT_EQ(base.times()[cut - 1], earliest_usec(fresh)) << "the cut must split a tie";
    (void)expect_appended_matches(base, fresh, symbols);
  }
}

TEST(LogStoreAppended, KeysBeyondTheBaseRange) {
  util::Rng rng(13);
  SymbolTable symbols;
  const LogStore base{random_rows(rng, 300, {0, 100}, symbols, "b"), symbols};
  // Node, blade and cabinet ids past every base key grow each index.
  RowShape wide{50, 150, 64, 32, 16};
  (void)expect_appended_matches(base, random_rows(rng, 60, wide, symbols, "w"), symbols);
  // A base whose rows carry no location keys at all has empty node, blade
  // and cabinet offsets; the delta creates them.
  RowShape keyless{0, 100, 0, 0, 0};
  const LogStore bare{random_rows(rng, 200, keyless, symbols, "k"), symbols};
  ASSERT_TRUE(bare.nodes().empty());
  (void)expect_appended_matches(bare, random_rows(rng, 60, wide, symbols, "x"), symbols);
}

TEST(LogStoreAppended, RecordsWithoutNodeBladeOrCabinet) {
  util::Rng rng(14);
  SymbolTable symbols;
  const LogStore base{random_rows(rng, 300, {0, 100}, symbols, "b"), symbols};
  RowShape keyless{40, 140, 0, 0, 0};
  (void)expect_appended_matches(base, random_rows(rng, 60, keyless, symbols, "k"), symbols);
}

TEST(LogStoreAppended, SeededTailSchedulesMatchTheRebuildAtEveryEpoch) {
  // The daemon's shape: each epoch appends a small delta onto the previous
  // epoch's store.  Deltas mostly run ahead of the store but reach back
  // into its history by up to a tenth of the span, as a second tail whose
  // lines trail the first's does.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    SymbolTable symbols;
    LogStore store{random_rows(rng, 2000, {0, 1000}, symbols, "b"), symbols};
    std::int64_t clock = 1000;
    std::size_t interior_cuts = 0;
    for (int epoch = 1; epoch <= 40; ++epoch) {
      SCOPED_TRACE("epoch " + std::to_string(epoch));
      const std::int64_t step = rng.uniform_int(0, 20);
      const RowShape shape{clock - rng.uniform_int(0, 100), clock + step, 24, 12, 6};
      clock += step;
      const auto fresh = random_rows(rng, static_cast<std::size_t>(rng.uniform_int(0, 30)),
                                     shape, symbols, "e" + std::to_string(epoch) + ".");
      const std::size_t cut = cut_of(store, fresh);
      interior_cuts += cut > 0 && cut < store.size() ? 1 : 0;
      store = expect_appended_matches(store, fresh, symbols);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(interior_cuts, 20u) << "the schedule must reach back into the store";
  }
}

}  // namespace
}  // namespace hpcfail::logmodel
