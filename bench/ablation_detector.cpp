// Ablation: failure-detector parameters vs ground truth.
//
// Sweeps the marker dedup window (too small double-counts panic+shutdown
// clusters; too large merges distinct failures) and validates the SWO
// exclusion (without it a single outage would swamp the statistics).
#include "bench_common.hpp"
#include "core/failure_detector.hpp"

int main() {
  using namespace hpcfail;
  bench::ShapeCheck check("Ablation: detector windows vs ground truth");

  faultsim::ScenarioConfig scenario =
      faultsim::scenario_preset(platform::SystemName::S1, 14, 555);
  scenario.benign.swo_per_month = 4.0;  // make SWOs likely in-window
  const auto sim = faultsim::Simulator(scenario).run();
  const auto corpus = loggen::build_corpus(sim);
  const auto parsed = parsers::ingest_corpus(corpus);

  auto score = [&](const core::DetectorConfig& cfg) {
    const auto detection = core::FailureDetector(cfg).detect_full(parsed.store, &parsed.jobs);
    std::size_t matched = 0;
    std::vector<bool> used(detection.failures.size(), false);
    for (const auto& truth : sim.truth.failures) {
      for (std::size_t i = 0; i < detection.failures.size(); ++i) {
        if (used[i]) continue;
        const auto& f = detection.failures[i];
        if (f.node != truth.node) continue;
        if (std::abs((f.time - truth.fail_time).usec) > util::Duration::minutes(5).usec)
          continue;
        used[i] = true;
        ++matched;
        break;
      }
    }
    struct Result {
      double recall, precision;
      std::size_t detected, swos;
    };
    const double planted = static_cast<double>(sim.truth.failures.size());
    const double detected = static_cast<double>(detection.failures.size());
    return Result{planted > 0 ? matched / planted : 0.0,
                  detected > 0 ? matched / detected : 0.0, detection.failures.size(),
                  detection.swos.size()};
  };

  util::TextTable table({"dedup window (min)", "detected", "recall", "precision", "SWOs"});
  double default_recall = 0.0, default_precision = 0.0;
  double tiny_precision = 1.0;
  for (const int dedup_min : {0, 1, 10, 60}) {
    core::DetectorConfig cfg;
    cfg.dedup_window = util::Duration::minutes(std::max(dedup_min, 0));
    if (dedup_min == 0) cfg.dedup_window = util::Duration::seconds(1);
    const auto r = score(cfg);
    table.row()
        .cell(static_cast<std::int64_t>(dedup_min))
        .cell(static_cast<std::int64_t>(r.detected))
        .pct(r.recall)
        .pct(r.precision)
        .cell(static_cast<std::int64_t>(r.swos));
    if (dedup_min == 10) {
      default_recall = r.recall;
      default_precision = r.precision;
    }
    if (dedup_min == 0) tiny_precision = r.precision;
  }
  std::cout << table.render() << '\n';

  check.in_range("default dedup: recall", default_recall, 0.95, 1.0);
  check.in_range("default dedup: precision", default_precision, 0.90, 1.0);
  check.greater("tiny dedup double-counts (worse precision)", default_precision,
                tiny_precision);

  // SWO exclusion ablation: disabling it floods the statistics.
  core::DetectorConfig no_swo;
  no_swo.swo_min_nodes = 1000000;  // effectively off
  const auto with_swo = core::FailureDetector().detect_full(parsed.store, &parsed.jobs);
  const auto without = core::FailureDetector(no_swo).detect_full(parsed.store, &parsed.jobs);
  std::cout << "with SWO exclusion: " << with_swo.failures.size() << " failures, "
            << with_swo.swos.size() << " SWOs; without: " << without.failures.size()
            << " failures\n";
  if (!with_swo.swos.empty()) {
    check.greater("without SWO exclusion the failure count explodes",
                  static_cast<double>(without.failures.size()),
                  static_cast<double>(with_swo.failures.size()) * 3.0);
  }
  check.in_range("intended shutdowns excluded",
                 static_cast<double>(with_swo.intended_shutdowns_excluded),
                 static_cast<double>(sim.truth.benign.intended_shutdown_nodes),
                 static_cast<double>(sim.truth.benign.intended_shutdown_nodes));
  return check.exit_code();
}
