// Fig 6: finer breakdown of node heartbeat faults over 7 weeks (S1).
// Paper: most NHFs in W1/W4 were failures, elsewhere more than 50%
// eventually failed; many failing NHFs trace to hardware MCEs; non-failing
// NHFs are powered-off nodes or skipped heartbeats.  Empirically ~43% of
// NHFs fail overall — far above the 2% of prior work.
#include "bench_common.hpp"
#include "core/external_correlator.hpp"

int main() {
  using namespace hpcfail;
  bench::ShapeCheck check("Fig 6: NHF breakdown (S1, 7 weeks)");

  const auto p = bench::run_system(platform::SystemName::S1, 49, 606);
  const core::ExternalCorrelator correlator(p.parsed.store, p.failures);

  util::TextTable table({"Week", "NHFs", "failed", "of which MCE", "power-off",
                         "skipped-heartbeat", "failed share"});
  std::size_t total = 0, failed = 0, power_off = 0, skipped = 0;
  std::size_t weeks_majority_fail = 0;
  for (int week = 0; week < 7; ++week) {
    const util::TimePoint begin = p.sim.config.begin + util::Duration::days(week * 7);
    const auto b = correlator.nhf_breakdown(begin, begin + util::Duration::days(7));
    table.row()
        .cell(bench::row_label('W', week + 1))
        .cell(static_cast<std::int64_t>(b.total))
        .cell(static_cast<std::int64_t>(b.failed))
        .cell(static_cast<std::int64_t>(b.failed_mce))
        .cell(static_cast<std::int64_t>(b.power_off))
        .cell(static_cast<std::int64_t>(b.skipped_heartbeat))
        .pct(b.total ? static_cast<double>(b.failed) / static_cast<double>(b.total) : 0.0);
    total += b.total;
    failed += b.failed;
    power_off += b.power_off;
    skipped += b.skipped_heartbeat;
    if (b.total > 0 && b.failed * 2 >= b.total) ++weeks_majority_fail;
  }
  std::cout << table.render() << '\n';

  const double overall = total ? static_cast<double>(failed) / static_cast<double>(total) : 0;
  check.in_range("overall NHF->failure share (paper ~43%)", overall, 0.25, 0.70);
  check.greater("well above prior work's 2%", overall, 0.02);
  check.in_range("weeks where most NHFs fail (paper: majority of weeks)",
                 static_cast<double>(weeks_majority_fail), 2, 7);
  check.greater("non-failing NHFs are power-off or skipped heartbeats",
                static_cast<double>(power_off + skipped),
                0.9 * static_cast<double>(total - failed));
  return check.exit_code();
}
