// Fig 3: cumulative node failures over inter-node failure times, S1, 7
// weeks.  Paper: 92.3% (W1) and 76.2% (W7) of failures happen within 1-16
// minutes of each other; MTBFs of 1.5 (+/-0.56) and 12.1 (+/-4.2) minutes;
// adjacent failures range from seconds to >2 hours; far shorter than the
// >6h SWO spacing on Blue Waters or 12-13h server MTBF at Google.
#include <algorithm>

#include "bench_common.hpp"
#include "core/temporal.hpp"
#include "stats/bootstrap.hpp"
#include "stats/fit.hpp"

int main() {
  using namespace hpcfail;
  bench::ShapeCheck check("Fig 3: inter-node failure times (S1, 7 weeks)");

  const auto p = bench::run_system(platform::SystemName::S1, 49, 303);
  const core::TemporalAnalyzer temporal(p.failures);
  const auto weeks = temporal.weekly_stats(p.sim.config.begin, 7);

  util::TextTable table({"Week", "Failures", "<=2 min", "<=16 min", "<=2 h",
                         "burst MTBF (min)", "bootstrap 95% CI"});
  double best_within16 = 0.0;
  double worst_within16 = 1.0;
  std::vector<double> burst_mtbfs;
  for (std::size_t w = 0; w < weeks.size(); ++w) {
    const auto& wk = weeks[w];
    // "Burst MTBF": mean gap restricted to gaps <= 2 h — the failures the
    // paper describes as minutes apart (days without failures excluded).
    std::vector<double> burst_gaps;
    for (const double g : wk.gap_ecdf.sorted_sample()) {
      if (g <= 120.0) burst_gaps.push_back(g);
    }
    const auto ci = stats::bootstrap_mean_ci(burst_gaps, 400);
    if (!burst_gaps.empty()) burst_mtbfs.push_back(ci.point);
    table.row()
        .cell(bench::row_label('W', w + 1))
        .cell(static_cast<std::int64_t>(wk.failures))
        .pct(wk.fraction_within(2.0))
        .pct(wk.fraction_within(16.0))
        .pct(wk.fraction_within(120.0))
        .cell(ci.point, 2)
        .cell(bench::interval_label(ci.lo, ci.hi, 2, ']'));
    best_within16 = std::max(best_within16, wk.fraction_within(16.0));
    worst_within16 = std::min(worst_within16, wk.fraction_within(16.0));
  }
  std::cout << table.render() << '\n';

  // Weibull shape < 1 confirms the bursty (clustered) failure process.
  const auto all_gaps =
      temporal.inter_failure_minutes(p.sim.config.begin, p.sim.config.end());
  if (const auto weibull = stats::fit_weibull(all_gaps)) {
    std::cout << "Weibull fit over all gaps: shape=" << util::fmt_double(weibull->shape, 3)
              << " scale=" << util::fmt_double(weibull->scale, 1) << " min (shape<1 => bursty)\n\n";
    check.in_range("Weibull shape (bursty, <1)", weibull->shape, 0.05, 1.0);
  }

  check.in_range("best week: fraction within 16 min (paper 92.3%)", best_within16, 0.70,
                 1.0);
  check.in_range("worst week: fraction within 16 min (paper 76.2%)", worst_within16, 0.30,
                 1.0);
  if (!burst_mtbfs.empty()) {
    const auto [lo, hi] = std::minmax_element(burst_mtbfs.begin(), burst_mtbfs.end());
    check.in_range("burst MTBF min across weeks (paper 1.5 min)", *lo, 0.5, 16.0);
    check.in_range("burst MTBF max across weeks (paper 12.1 min)", *hi, 1.0, 40.0);
  }
  return check.exit_code();
}
