// Report-equivalence suite for the interned/columnar LogStore refactor:
// the full pipeline (simulate -> render -> parse -> analyze -> report) must
// produce byte-identical markdown to the goldens captured from the
// pre-refactor pipeline (testdata/report_golden/S*.md, corpus_tool with
// days=3 seed=4200), and the pooled parse path must match the serial one
// byte for byte.
//
// To regenerate after an intentional behavior change:
//   HPCFAIL_UPDATE_GOLDENS=1 ./tests/report_golden_test
// then review the diff like any golden update.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/markdown_report.hpp"
#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/ingest.hpp"
#include "util/thread_pool.hpp"

namespace hpcfail {
namespace {

std::string golden_dir() {
  // Tests run from the build tree; the fixture lives in the source tree.
  for (const char* candidate :
       {"../testdata/report_golden", "../../testdata/report_golden",
        "testdata/report_golden", "/root/repo/testdata/report_golden"}) {
    if (std::filesystem::is_directory(candidate)) return candidate;
  }
  return {};
}

/// The exact flow of `corpus_tool generate` + `corpus_tool report` that
/// captured the goldens, minus the disk round trip (pinned elsewhere by
/// loggen's WriteReadDirectoryRoundTrip and the ingest equivalence suite).
std::string generate_report(platform::SystemName system, util::ThreadPool* pool) {
  const auto sim = faultsim::Simulator(faultsim::scenario_preset(system, 3, 4200)).run();
  const auto corpus = loggen::build_corpus(sim);
  const auto parsed = parsers::ingest_corpus(corpus, {.pool = pool});
  core::ReportInputs inputs;
  inputs.store = &parsed.store;
  inputs.jobs = &parsed.jobs;
  inputs.topology = &parsed.topology;
  inputs.system_label = corpus.system.label;
  inputs.begin = corpus.begin;
  inputs.end = corpus.begin + util::Duration::days(corpus.days);
  return core::markdown_report(inputs);
}

class ReportGolden : public ::testing::TestWithParam<platform::SystemName> {};

TEST_P(ReportGolden, MatchesPreChangeGoldenAndThreadCount) {
  const std::string dir = golden_dir();
  if (dir.empty()) GTEST_SKIP() << "testdata/report_golden not found";
  const std::string label =
      platform::system_preset(GetParam()).label;
  const std::filesystem::path path = std::filesystem::path(dir) / (label + ".md");

  util::ThreadPool serial(1);
  const std::string report = generate_report(GetParam(), &serial);

  if (std::getenv("HPCFAIL_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << report;
    GTEST_SKIP() << "golden updated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path
                  << " (run with HPCFAIL_UPDATE_GOLDENS=1 to create)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(report, want.str()) << label << " report drifted from the golden";

  // Thread-count independence: the pooled parse must yield the same bytes.
  util::ThreadPool pooled(4);
  EXPECT_EQ(generate_report(GetParam(), &pooled), report)
      << label << " report differs between 1 and 4 parse threads";
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, ReportGolden,
    ::testing::Values(platform::SystemName::S1, platform::SystemName::S2,
                      platform::SystemName::S3, platform::SystemName::S4,
                      platform::SystemName::S5),
    [](const auto& info) {
      return platform::system_preset(info.param).label;
    });

}  // namespace
}  // namespace hpcfail
