// Fig 8: the benign SEDC population, S1, one week.  Paper: unique blades
// with SEDC warnings vary between 5 and 226; the cumulative count of blades
// and cabinets experiencing faults ranges 24-240 (+/-21) per week; blade
// counts for health faults mostly exceed the warning blade counts at the
// cabinet level... and none of it pinpoints failures (Observation 3).
#include "bench_common.hpp"
#include "core/benign_faults.hpp"

int main() {
  using namespace hpcfail;
  bench::ShapeCheck check("Fig 8: SEDC warning/fault populations (S1, 4 weeks)");

  const auto p = bench::run_system(platform::SystemName::S1, 28, 808);
  const core::BenignFaultAnalyzer benign(p.parsed.store);

  util::TextTable table({"Week", "blades w/ warnings", "blades w/ faults",
                         "cabinets w/ faults", "warnings", "faults"});
  double min_warn_blades = 1e9, max_warn_blades = 0;
  double min_cum = 1e9, max_cum = 0;
  for (int week = 0; week < 4; ++week) {
    const util::TimePoint begin = p.sim.config.begin + util::Duration::days(week * 7);
    const auto pop = benign.sedc_population(begin, begin + util::Duration::days(7));
    table.row()
        .cell(bench::row_label('W', week + 1))
        .cell(static_cast<std::int64_t>(pop.blades_with_warnings))
        .cell(static_cast<std::int64_t>(pop.blades_with_faults))
        .cell(static_cast<std::int64_t>(pop.cabinets_with_faults))
        .cell(static_cast<std::int64_t>(pop.warning_count))
        .cell(static_cast<std::int64_t>(pop.fault_count));
    min_warn_blades = std::min(min_warn_blades, static_cast<double>(pop.blades_with_warnings));
    max_warn_blades = std::max(max_warn_blades, static_cast<double>(pop.blades_with_warnings));
    const double cum =
        static_cast<double>(pop.blades_with_faults + pop.cabinets_with_faults);
    min_cum = std::min(min_cum, cum);
    max_cum = std::max(max_cum, cum);
  }
  std::cout << table.render() << '\n';

  check.in_range("unique warning-blade count per week (paper 5-226)", min_warn_blades, 5,
                 226);
  check.in_range("unique warning-blade count per week (paper 5-226)", max_warn_blades, 5,
                 226);
  check.in_range("cumulative faulty blades+cabinets per week (paper 24-240)", min_cum, 24,
                 240);
  check.in_range("cumulative faulty blades+cabinets per week (paper 24-240)", max_cum, 24,
                 240);
  return check.exit_code();
}
