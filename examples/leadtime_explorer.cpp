// Lead-time exploration: how much earlier can failures be flagged when
// external (controller/ERD) indicators are correlated with the internal
// chains?  Reproduces the Section III-D methodology on a fail-slow-heavy
// scenario and sweeps the correlation window, the knob DESIGN.md calls out
// as ablation candidate #3.
//
//   ./examples/leadtime_explorer [days] [seed]
#include <cstdlib>
#include <iostream>

#include "core/engine.hpp"
#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/ingest.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hpcfail;
  const int days = argc > 1 ? std::atoi(argv[1]) : 14;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  // A hardware-heavy S4 scenario: half the failures are fail-slow.
  faultsim::ScenarioConfig scenario =
      faultsim::scenario_preset(platform::SystemName::S4, days, seed);
  scenario.failures.cause_weights = faultsim::make_cause_mix({
      {logmodel::RootCause::FailSlowHardware, 40},
      {logmodel::RootCause::HardwareMce, 25},
      {logmodel::RootCause::LustreBug, 20},
      {logmodel::RootCause::MemoryExhaustion, 15},
  });

  const auto sim = faultsim::Simulator(scenario).run();
  const auto corpus = loggen::build_corpus(sim);
  const auto parsed = parsers::ingest_corpus(corpus);

  // One engine run: failures plus their default-config lead times.
  const core::AnalysisEngine engine;
  const auto analysis =
      engine.analyze(parsed.store, &parsed.jobs, scenario.begin, scenario.end());
  const auto& failures = analysis.failures;
  std::cout << "diagnosed " << failures.size() << " failures on " << corpus.system.label
            << " over " << days << " days\n\n";

  // Per-failure lead times (first 15 rows).
  const auto& lead_times = analysis.lead_times;
  util::TextTable table(
      {"node", "cause", "internal lead", "external lead", "gain"});
  std::size_t shown = 0;
  for (const auto& lt : lead_times) {
    if (shown >= 15) break;
    const auto& f = failures[lt.failure_index];
    table.row()
        .cell(parsed.topology.node_name(f.event.node))
        .cell(std::string(to_string(f.inference.cause)))
        .cell(util::format_duration(lt.internal_lead))
        .cell(lt.external_lead ? util::format_duration(*lt.external_lead) : "-")
        .cell(lt.external_lead ? util::format_duration(*lt.external_lead - lt.internal_lead)
                               : "-");
    ++shown;
  }
  std::cout << table.render() << '\n';

  // Sweep the external correlation window: too narrow misses indicators,
  // too wide starts matching ambient noise.  The sweep drops below the
  // facade to the LeadTimeAnalyzer so only the swept stage reruns (the
  // predictor evaluation is not part of AnalysisResult).
  util::TextTable sweep({"window (min)", "enhanceable", "mean factor", "FP rate (gated)"});
  for (const int window : {10, 30, 60, 120, 240}) {
    core::LeadTimeConfig cfg;
    cfg.external_lookback = util::Duration::minutes(window);
    const core::LeadTimeAnalyzer swept(parsed.store, cfg);
    const auto summary = swept.summarize(failures);
    const auto gated = swept.evaluate_predictor(failures, /*require_external=*/true);
    sweep.row()
        .cell(static_cast<std::int64_t>(window))
        .pct(summary.enhanceable_fraction())
        .cell(summary.enhancement_factor(), 2)
        .pct(gated.fp_rate());
  }
  std::cout << "correlation-window sweep:\n" << sweep.render();
  return 0;
}
