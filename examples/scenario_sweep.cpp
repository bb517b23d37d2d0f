// Scenario parameter sweep: vary one calibration knob across values and
// watch the headline statistics respond — the workflow for re-calibrating
// the simulator against a new site's logs.
//
//   ./examples/scenario_sweep <key> <value>... [--system S1..S5] [--days N]
//   ./examples/scenario_sweep failures.dominant_burst_mean 2 5 10 20
//   ./examples/scenario_sweep cause_weights.FailSlowHardware 0 10 30
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/engine.hpp"
#include "core/temporal.hpp"
#include "faultsim/scenario_io.hpp"
#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/ingest.hpp"
#include "stats/ecdf.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hpcfail;
  if (argc < 3) {
    std::cerr << "usage: scenario_sweep <key> <value>... [--system S1..S5] [--days N]\n"
                 "keys: see `corpus_tool dump-scenario S1`\n";
    return 2;
  }
  const std::string key = argv[1];
  std::vector<std::string> values;
  std::string system_label = "S1";
  int days = 7;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--system" && i + 1 < argc) {
      system_label = argv[++i];
    } else if (arg == "--days" && i + 1 < argc) {
      days = std::atoi(argv[++i]);
    } else {
      values.push_back(arg);
    }
  }

  util::TextTable table({key, "failures", "failures/day", "median gap (min)",
                         "<=16 min", "enhanceable", "factor"});
  for (const auto& value : values) {
    faultsim::ScenarioConfig scenario;
    try {
      scenario = faultsim::scenario_from_string("system = " + system_label +
                                                "\ndays = " + std::to_string(days) +
                                                "\nseed = 77\n" + key + " = " + value + "\n");
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }

    const auto sim = faultsim::Simulator(scenario).run();
    const auto corpus = loggen::build_corpus(sim);
    const auto parsed = parsers::ingest_corpus(corpus);
    const core::AnalysisEngine engine;
    const auto analysis =
        engine.analyze(parsed.store, &parsed.jobs, scenario.begin, scenario.end());
    const auto& failures = analysis.failures;

    const core::TemporalAnalyzer temporal(failures);
    const auto gaps = temporal.inter_failure_minutes(scenario.begin, scenario.end());
    const stats::Ecdf ecdf{gaps};
    const auto& lt = analysis.lead_time_summary;

    table.row()
        .cell(value)
        .cell(static_cast<std::int64_t>(failures.size()))
        .cell(static_cast<double>(failures.size()) / std::max(1, days), 1)
        .cell(ecdf.empty() ? 0.0 : ecdf.quantile(0.5), 1)
        .pct(ecdf.empty() ? 0.0 : ecdf.fraction_at_or_below(16.0))
        .pct(lt.enhanceable_fraction())
        .cell(lt.enhancement_factor(), 2);
  }
  std::cout << table.render();
  return 0;
}
