// Ablation: analysis robustness under the paper's logging discrepancies
// (challenge 1) — random line loss, corruption, missing windows, and absent
// environmental sources, measured as detection recall and lead-time
// capability on degraded raw text.
#include "bench_common.hpp"
#include "loggen/degrade.hpp"

int main() {
  using namespace hpcfail;
  bench::ShapeCheck check("Ablation: robustness to logging discrepancies");

  const auto sim =
      faultsim::Simulator(faultsim::scenario_preset(platform::SystemName::S1, 14, 910)).run();
  const auto corpus = loggen::build_corpus(sim);

  // Degraded corpora re-enter the unified path at the parse step: one
  // engine run per corpus yields failures and lead-time capability.
  const core::AnalysisEngine engine;

  auto recall_of = [&sim, &engine](const loggen::Corpus& c) {
    const auto parsed = parsers::ingest_corpus(c);
    const auto failures = engine.analyze(parsed).failures;
    std::size_t matched = 0;
    for (const auto& truth : sim.truth.failures) {
      for (const auto& f : failures) {
        if (f.event.node == truth.node &&
            std::abs((f.event.time - truth.fail_time).usec) <=
                util::Duration::minutes(5).usec) {
          ++matched;
          break;
        }
      }
    }
    return sim.truth.failures.empty()
               ? 0.0
               : static_cast<double>(matched) / static_cast<double>(sim.truth.failures.size());
  };

  util::TextTable table({"line loss", "detection recall"});
  double recall_clean = 0.0, recall_heavy = 0.0;
  for (const double drop : {0.0, 0.05, 0.15, 0.30, 0.50}) {
    loggen::DegradeConfig cfg;
    cfg.drop_line_fraction = drop;
    const double recall = recall_of(loggen::degrade_corpus(corpus, cfg));
    table.row().pct(drop, 0).pct(recall);
    if (drop == 0.0) recall_clean = recall;
    if (drop == 0.50) recall_heavy = recall;
  }
  std::cout << table.render() << '\n';

  check.in_range("clean corpus recall", recall_clean, 0.97, 1.0);
  check.greater("graceful degradation: 50% loss still finds most failures", recall_heavy,
                0.55);
  check.greater("recall decreases with loss", recall_clean, recall_heavy);

  // Missing external universe: detection unharmed, lead times gone.
  loggen::DegradeConfig no_env;
  no_env.drop_source[static_cast<std::size_t>(logmodel::LogSource::Erd)] = true;
  no_env.drop_source[static_cast<std::size_t>(logmodel::LogSource::Controller)] = true;
  const auto degraded = loggen::degrade_corpus(corpus, no_env);
  check.in_range("no-external recall", recall_of(degraded), 0.95, 1.0);
  const auto no_env_analysis = engine.analyze(parsers::ingest_corpus(degraded));
  check.in_range("no-external lead-time enhancements (must vanish)",
                 static_cast<double>(no_env_analysis.lead_time_summary.enhanceable), 0, 0);

  // Corrupted lines are rejected, not crashed on.
  loggen::DegradeConfig corrupt;
  corrupt.corrupt_line_fraction = 0.25;
  const auto noisy = parsers::ingest_corpus(loggen::degrade_corpus(corpus, corrupt));
  check.greater("corruption rejected at parse", static_cast<double>(noisy.skipped_lines),
                1.0);
  return check.exit_code();
}
