// Fig 5: fraction of node voltage faults (NVF) and node heartbeat faults
// (NHF) that correspond to failed nodes, over 5 months (S1).  Paper: NVFs
// are rare but 67-97% of them relate to failures; only 21-64% of NHFs
// manifest as failures (Observation 2).
#include <algorithm>

#include "bench_common.hpp"
#include "core/external_correlator.hpp"

int main() {
  using namespace hpcfail;
  bench::ShapeCheck check("Fig 5: NVF/NHF failure correspondence (S1, 5 months)");

  const auto p = bench::run_system(platform::SystemName::S1, 150, 505);
  const core::ExternalCorrelator correlator(p.parsed.store, p.failures);

  util::TextTable table({"Month", "NVFs", "NVF->failure", "NHFs", "NHF->failure"});
  std::vector<double> nvf_fracs, nhf_fracs;
  for (int month = 0; month < 5; ++month) {
    const util::TimePoint begin = p.sim.config.begin + util::Duration::days(month * 30);
    const util::TimePoint end = begin + util::Duration::days(30);
    const auto nvf =
        correlator.correspondence(logmodel::EventType::NodeVoltageFault, begin, end);
    const auto nhf =
        correlator.correspondence(logmodel::EventType::NodeHeartbeatFault, begin, end);
    table.row()
        .cell(bench::row_label('M', month + 1))
        .cell(static_cast<std::int64_t>(nvf.faults))
        .pct(nvf.fraction())
        .cell(static_cast<std::int64_t>(nhf.faults))
        .pct(nhf.fraction());
    if (nvf.faults > 0) nvf_fracs.push_back(nvf.fraction());
    if (nhf.faults > 0) nhf_fracs.push_back(nhf.fraction());
  }
  std::cout << table.render() << '\n';

  const auto [nvf_lo, nvf_hi] = std::minmax_element(nvf_fracs.begin(), nvf_fracs.end());
  const auto [nhf_lo, nhf_hi] = std::minmax_element(nhf_fracs.begin(), nhf_fracs.end());
  check.in_range("NVF correspondence, min month (paper 67%)", *nvf_lo, 0.55, 1.0);
  check.in_range("NVF correspondence, max month (paper 97%)", *nvf_hi, 0.67, 1.0);
  check.in_range("NHF correspondence, min month (paper 21%)", *nhf_lo, 0.15, 0.64);
  check.in_range("NHF correspondence, max month (paper 64%)", *nhf_hi, 0.21, 0.80);
  check.greater("NVFs correspond to failures more than NHFs do",
                *nvf_lo, *nhf_hi * 0.9);
  return check.exit_code();
}
