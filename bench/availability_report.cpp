// Fleet health report: availability, repair times, and the survival /
// hazard characterization of inter-failure times (the statistical framing
// behind Observation 1's burstiness and the resilience framing of the
// paper's introduction).
#include "bench_common.hpp"
#include "core/temporal.hpp"
#include "core/timeline.hpp"
#include "stats/fit.hpp"
#include "stats/survival.hpp"

int main() {
  using namespace hpcfail;
  bench::ShapeCheck check("Fleet availability & failure-process shape (S1, 30 days)");

  const auto p = bench::run_system(platform::SystemName::S1, 30, 3003);
  const core::TimelineBuilder builder(p.parsed.store, p.parsed.topology.node_count());
  const auto fleet =
      builder.fleet_availability(p.sim.config.begin, p.sim.config.end());

  std::cout << "availability " << util::fmt_pct(fleet.availability, 4) << ", "
            << util::fmt_double(fleet.node_hours_lost, 1) << " node-hours lost, "
            << fleet.down_intervals << " down intervals, mean repair "
            << util::fmt_double(fleet.repair_minutes.mean(), 1) << " min\n\n";

  check.in_range("fleet availability (large machine, node failures are rare)",
                 fleet.availability, 0.99, 1.0);
  // Failure chains reboot within 8-45 min; an SWO in the window (reboots up
  // to 3 h) can pull the mean upward.
  check.in_range("mean unplanned repair time (minutes)", fleet.repair_minutes.mean(), 8.0,
                 150.0);

  // Survival / hazard over inter-failure gaps.
  const core::TemporalAnalyzer temporal(p.failures);
  const auto gaps = temporal.inter_failure_minutes(p.sim.config.begin, p.sim.config.end());
  const stats::KaplanMeier km(gaps);
  const std::vector<double> edges = {0, 2, 8, 16, 64, 256, 2048};
  const auto hazard = stats::discrete_hazard(gaps, edges);

  util::TextTable table({"gap bin (min)", "at risk", "events", "hazard"});
  for (const auto& bin : hazard) {
    table.row()
        .cell(bench::interval_label(bin.lo, bin.hi, 0, ')'))
        .cell(static_cast<std::int64_t>(bin.at_risk))
        .cell(static_cast<std::int64_t>(bin.events))
        .pct(bin.hazard());
  }
  std::cout << table.render() << '\n';

  std::cout << "median inter-failure gap: " << util::fmt_double(km.median(), 1)
            << " min; S(16 min) = " << util::fmt_double(km.survival_at(16.0), 3) << "\n";

  // Burstiness: the hazard of "next failure soon" is highest right after a
  // failure and decays (clustered process), and the Weibull shape is < 1.
  check.greater("hazard decays after the burst window (bursty process)",
                hazard[1].hazard(), hazard[4].hazard());
  if (const auto weibull = stats::fit_weibull(gaps)) {
    std::cout << "Weibull shape over gaps: " << util::fmt_double(weibull->shape, 3) << "\n";
    check.in_range("Weibull shape <= 1 (clustered)", weibull->shape, 0.05, 1.05);
  }
  check.greater("most failures arrive within 16 min of the previous one "
                "(paper Fig 3)",
                1.0 - km.survival_at(16.0), 0.5);
  return check.exit_code();
}
