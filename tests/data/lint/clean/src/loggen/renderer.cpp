#include "loggen/renderer.hpp"

namespace hpcfail::loggen {

std::string_view erd_event_name(EventType t) noexcept {
  switch (t) {
    case EventType::NodeHeartbeatFault: return "ec_node_failed";
    case EventType::NodeVoltageFault: return "ec_node_voltage_fault";
    default: return "ec_event";
  }
}

LogRenderer::LogRenderer(const Topology& topo) {
  for (std::uint32_t n = 0; n < topo.node_count(); ++n) {
    // hpcfail-lint: allow(hot-path-format) -- once per node when the table is built
    node_cnames_.add(topo.cname_of(NodeId{n}).to_string());
  }
}

}  // namespace hpcfail::loggen
