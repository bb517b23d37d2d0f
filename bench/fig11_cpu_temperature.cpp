// Fig 11: mean CPU temperature of 2 nodes per blade across 16 blades of one
// chassis on a day with one failure.  Paper: all powered blades sit at a
// steady ~40 C; one turned-off node reads 0 C; the temperature profile does
// not aid root-cause analysis (Observation 3).
#include <map>

#include "bench_common.hpp"
#include "stats/summary.hpp"

int main() {
  using namespace hpcfail;
  bench::ShapeCheck check("Fig 11: chassis CPU temperatures (16 blades, 1 day)");

  faultsim::ScenarioConfig scenario =
      faultsim::scenario_preset(platform::SystemName::S1, 1, 1111);
  scenario.sensors.emit_readings = true;
  scenario.sensors.reading_blade_count = 16;
  scenario.sensors.reading_interval_minutes = 10.0;
  // Node 0 of blade B2 is powered off (the 0-degree trace of the figure).
  scenario.sensors.force_power_off_node = 4;
  const auto p = bench::run_pipeline(scenario);

  // Mean reading per node, first two nodes of each of the 16 blades.
  std::map<std::uint32_t, stats::StreamingStats> node_temps;
  for (const std::uint32_t idx : p.parsed.store.type_index(logmodel::EventType::SedcReading)) {
    const auto& r = p.parsed.store[idx];
    if (!r.has_node()) continue;
    node_temps[r.node.value].add(r.value);
  }

  util::TextTable table({"Blade", "Node0 mean C", "Node0 std", "Node1 mean C", "Node1 std"});
  stats::StreamingStats powered_means;
  double off_mean = -1.0;
  for (std::uint32_t blade = 0; blade < 16; ++blade) {
    const std::uint32_t n0 = blade * 4;
    const std::uint32_t n1 = blade * 4 + 1;
    const auto& t0 = node_temps[n0];
    const auto& t1 = node_temps[n1];
    table.row()
        .cell(bench::row_label('B', blade + 1))
        .cell(t0.mean(), 1)
        .cell(t0.stddev(), 2)
        .cell(t1.mean(), 1)
        .cell(t1.stddev(), 2);
    for (const auto* t : {&t0, &t1}) {
      if (t->count() == 0) continue;
      if (t->mean() < 1.0) {
        off_mean = t->mean();
      } else {
        powered_means.add(t->mean());
      }
    }
  }
  std::cout << table.render() << '\n';

  check.in_range("powered nodes steady near 40 C (min of means)", powered_means.min(), 35.0,
                 45.0);
  check.in_range("powered nodes steady near 40 C (max of means)", powered_means.max(), 35.0,
                 45.0);
  check.in_range("across-node spread of means (steady)", powered_means.stddev(), 0.0, 3.0);
  check.in_range("turned-off node reads 0 C", off_mean, 0.0, 0.001);
  return check.exit_code();
}
