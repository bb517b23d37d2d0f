// Quickstart: simulate one week of an S1-like Cray XC30, render the raw
// multi-source logs, parse them back, and run the full failure diagnosis —
// the end-to-end path every experiment in this repository uses.
//
//   ./examples/quickstart [days] [seed]
#include <cstdlib>
#include <iostream>

#include "core/engine.hpp"
#include "core/temporal.hpp"
#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/ingest.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hpcfail;

  const int days = argc > 1 ? std::atoi(argv[1]) : 7;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  // 1. Simulate the platform: workload, failure chains, benign faults.
  faultsim::ScenarioConfig scenario =
      faultsim::scenario_preset(platform::SystemName::S1, days, seed);
  faultsim::SimulationResult sim = faultsim::Simulator(scenario).run();
  std::cout << "simulated  " << sim.records.size() << " structured events, "
            << sim.jobs.size() << " jobs, " << sim.truth.failure_count()
            << " planted failures\n";

  // 2. Render raw text logs (console/messages/controller/ERD/scheduler).
  const loggen::Corpus corpus = loggen::build_corpus(sim);
  std::cout << "rendered   " << corpus.bytes() / 1024 << " KiB of raw log text\n";

  // 3. Parse the text back into a structured store + job table.
  const parsers::ParsedCorpus parsed = parsers::ingest_corpus(corpus);
  std::cout << "parsed     " << parsed.parsed_records << " records ("
            << parsed.skipped_lines << " lines skipped)\n";

  // 4. One engine run: detection, diagnosis, lead times, external
  //    correspondence, clusters and breakdowns over the scenario window.
  const core::AnalysisEngine engine;
  const core::AnalysisResult analysis =
      engine.analyze(parsed.store, &parsed.jobs, scenario.begin, scenario.end());
  const auto& failures = analysis.failures;
  std::cout << "diagnosed  " << failures.size() << " node failures\n\n";

  std::cout << core::render_cause_table(analysis.breakdown,
                                        "Root-cause breakdown (" + corpus.system.label + ", " +
                                            std::to_string(days) + " days)")
            << '\n';

  // 5. Headline statistics.
  const core::TemporalAnalyzer temporal(failures);
  const auto gaps = temporal.inter_failure_minutes(scenario.begin, scenario.end());
  if (!gaps.empty()) {
    stats::StreamingStats s;
    for (const double g : gaps) s.add(g);
    std::cout << "mean time between failures: " << util::fmt_double(s.mean(), 1)
              << " min (n=" << gaps.size() << ")\n";
  }

  const auto& summary = analysis.lead_time_summary;
  std::cout << "lead-time enhanceable failures: "
            << util::fmt_pct(summary.enhanceable_fraction())
            << ", enhancement factor: " << util::fmt_double(summary.enhancement_factor(), 1)
            << "x\n";

  const auto& shares = analysis.layers;
  std::cout << "layer shares: hardware " << util::fmt_pct(shares.hardware) << ", software "
            << util::fmt_pct(shares.software) << ", application "
            << util::fmt_pct(shares.application) << "\n";
  return 0;
}
