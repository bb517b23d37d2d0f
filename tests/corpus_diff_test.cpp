// Differential test of the corpus render path: build_corpus (one appender
// per source, name tables, in-place digits and timestamps, key sorts) must
// produce exactly the bytes of the line-at-a-time reference renderer in
// tests/support/corpus_oracle.cpp, for every source of every system.
//
// testdata/golden_corpus pins one small S1 window; this covers what it
// cannot reach: the Torque dialect, hostname naming, S5's absent external
// files, cancelled and over-allocated job lines, and a saturated machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

#include "faultsim/scenario.hpp"
#include "faultsim/simulator.hpp"
#include "faultsim/special_scenarios.hpp"
#include "loggen/corpus.hpp"
#include "support/corpus_oracle.hpp"

namespace hpcfail {
namespace {

using logmodel::LogSource;

/// Line number and both texts of the first line where `got` and `want`
/// differ, for a readable failure instead of a multi-megabyte dump.
std::string first_difference(std::string_view got, std::string_view want) {
  std::size_t line = 1;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i] != want[i]) break;
    if (got[i] == '\n') {
      ++line;
      begin = i + 1;
    }
  }
  const auto line_at = [begin](std::string_view text) {
    return text.substr(begin, text.find('\n', begin) - begin);
  };
  return "line " + std::to_string(line) + "\n  got:  " + std::string(line_at(got)) +
         "\n  want: " + std::string(line_at(want));
}

/// Renders `sim` both ways and requires identical corpora; returns the
/// fast one for coverage checks.
loggen::Corpus expect_identical(const faultsim::SimulationResult& sim) {
  loggen::Corpus got = loggen::build_corpus(sim);
  const loggen::Corpus want = oracle::reference_corpus(sim);
  EXPECT_EQ(got.chatter_lines, want.chatter_lines);
  for (std::size_t s = 0; s < logmodel::kLogSourceCount; ++s) {
    SCOPED_TRACE(loggen::source_file_name(static_cast<LogSource>(s)));
    EXPECT_EQ(got.text[s].size(), want.text[s].size());
    if (got.text[s] != want.text[s]) {
      ADD_FAILURE() << first_difference(got.text[s], want.text[s]);
    }
  }
  return got;
}

bool contains(const std::string& text, std::string_view needle) {
  return text.find(needle) != std::string::npos;
}

faultsim::SimulationResult simulate(platform::SystemName system, std::uint64_t seed,
                                    int days = 3) {
  return faultsim::Simulator(faultsim::scenario_preset(system, days, seed)).run();
}

class CorpusDiff : public ::testing::TestWithParam<platform::SystemName> {};

TEST_P(CorpusDiff, MatchesReferenceRenderer) {
  for (const std::uint64_t seed : {11u, 12u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto sim = simulate(GetParam(), seed);
    const loggen::Corpus corpus = expect_identical(sim);
    const std::string& sched = corpus.of(LogSource::Scheduler);
    EXPECT_FALSE(sched.empty());
    EXPECT_FALSE(corpus.of(LogSource::Console).empty());
    const bool torque = sim.config.system.scheduler == platform::SchedulerKind::Torque;
    EXPECT_EQ(contains(sched, ";0008;PBS_Server;Job;"), torque);
    EXPECT_EQ(contains(sched, " slurmctld: "), !torque);
    if (GetParam() == platform::SystemName::S5) {
      EXPECT_TRUE(corpus.of(LogSource::Controller).empty());
      EXPECT_TRUE(corpus.of(LogSource::Erd).empty());
      EXPECT_TRUE(contains(corpus.of(LogSource::Console), " node0"));
    } else {
      EXPECT_FALSE(corpus.of(LogSource::Controller).empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Systems, CorpusDiff,
                         ::testing::Values(platform::SystemName::S1, platform::SystemName::S2,
                                           platform::SystemName::S3, platform::SystemName::S4,
                                           platform::SystemName::S5),
                         [](const auto& info) { return platform::to_string(info.param); });

// A machine kept full: arrivals far above capacity drive the allocator into
// its saturated and quarter-size-retry paths, and cancelled jobs add their
// scancel / "Job deleted" lines in both dialects.
TEST(CorpusDiffBusy, SaturatedMachine) {
  for (const auto system : {platform::SystemName::S3, platform::SystemName::S4}) {
    SCOPED_TRACE(std::to_string(static_cast<int>(system) + 1));
    auto config = faultsim::scenario_preset(system, 2, 5);
    config.workload.arrivals_per_hour *= 20;
    const auto sim = faultsim::Simulator(config).run();
    std::size_t cancelled = 0;
    for (const auto& job : sim.jobs) cancelled += job.outcome == jobs::JobOutcome::UserCancelled;
    EXPECT_GT(cancelled, 0u);
    // Job ids are drawn per arrival, so an arrival that found no room even
    // at quarter size leaves a gap: the machine really was full.
    ASSERT_FALSE(sim.jobs.empty());
    std::int64_t lo = sim.jobs.front().job_id;
    std::int64_t hi = lo;
    for (const auto& job : sim.jobs) {
      lo = std::min(lo, job.job_id);
      hi = std::max(hi, job.job_id);
    }
    EXPECT_GT(static_cast<std::size_t>(hi - lo + 1), sim.jobs.size());
    const loggen::Corpus corpus = expect_identical(sim);
    EXPECT_TRUE(contains(corpus.of(LogSource::Scheduler), " by user "));
  }
}

// Fig 17's over-allocation day: the only scenario whose jobs end
// Overallocated, rendered in both scheduler dialects.
TEST(CorpusDiffOverallocation, BothDialects) {
  for (const auto scheduler : {platform::SchedulerKind::Slurm, platform::SchedulerKind::Torque}) {
    auto sim = faultsim::overallocation_day(3);
    sim.config.system.scheduler = scheduler;
    const loggen::Corpus corpus = expect_identical(sim);
    EXPECT_TRUE(contains(corpus.of(LogSource::Scheduler), "OverallocCnt="));
  }
}

}  // namespace
}  // namespace hpcfail
