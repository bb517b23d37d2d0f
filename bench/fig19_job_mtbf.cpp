// Fig 19: MTBF of job-triggered failures on S3 over 7 weeks.  Paper: the
// MTBF never exceeds 32 minutes; W1 sees on average 91.6% of its failures
// within 5 minutes; W6/W7 see >90% within 29-32 minutes — much shorter than
// the >5 hours of prior LANL studies.  Nodes sharing an application fail at
// similar times even when spatially distant (Observation 8).
#include "bench_common.hpp"
#include "core/job_analysis.hpp"
#include "core/spatial.hpp"
#include "core/temporal.hpp"

int main() {
  using namespace hpcfail;
  bench::ShapeCheck check("Fig 19: job-triggered failure MTBF (S3, 7 weeks)");

  const auto p = bench::run_system(platform::SystemName::S3, 49, 1919);
  const core::TemporalAnalyzer temporal(p.failures);
  const auto weeks = temporal.weekly_stats_filtered(
      p.sim.config.begin, 7, [](const core::AnalyzedFailure& f) {
        return f.event.job_id != logmodel::kNoJob && f.inference.application_triggered;
      });

  util::TextTable table(
      {"Week", "job-triggered failures", "<=5 min", "<=32 min", "burst MTBF (min)"});
  double best_within5 = 0.0;
  double worst_within32 = 1.0;
  stats::StreamingStats burst_mtbf_all;
  for (std::size_t w = 0; w < weeks.size(); ++w) {
    const auto& wk = weeks[w];
    stats::StreamingStats burst;
    for (const double g : wk.gap_ecdf.sorted_sample()) {
      if (g <= 120.0) burst.add(g);
    }
    table.row()
        .cell(bench::row_label('W', w + 1))
        .cell(static_cast<std::int64_t>(wk.failures))
        .pct(wk.fraction_within(5.0))
        .pct(wk.fraction_within(32.0))
        .cell(burst.mean(), 2);
    best_within5 = std::max(best_within5, wk.fraction_within(5.0));
    if (wk.failures >= 3) worst_within32 = std::min(worst_within32, wk.fraction_within(32.0));
    if (burst.count() > 0) burst_mtbf_all.add(burst.mean());
  }
  std::cout << table.render() << '\n';

  check.in_range("best week: fraction within 5 min (paper W1 91.6%)", best_within5, 0.55,
                 1.0);
  check.in_range("worst week: fraction within 32 min (paper >90%)", worst_within32, 0.40,
                 1.0);
  check.in_range("burst MTBF across weeks (paper <= 32 min)", burst_mtbf_all.max(), 0.0,
                 32.0);
  check.greater("far below prior work's >5 h MTBF", 300.0, burst_mtbf_all.max());

  // Spatially distant nodes with temporal locality under a shared job.
  const core::JobAnalyzer jobs(p.parsed.jobs, p.failures);
  check.in_range("failures in shared-job groups spanning multiple blades",
                 jobs.multi_blade_shared_job_fraction(), 0.30, 1.0);
  return check.exit_code();
}
