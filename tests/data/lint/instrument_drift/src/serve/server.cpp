// Drifted serve layer: registry lookups are back on the request path.
// Mentions in comments never match: reg->counter("hpcfail.serve.requests").
#include "util/metrics.hpp"

namespace hpcfail::serve {

const Server::Instruments& Server::bind_instruments() {
  auto next = std::make_unique<Instruments>();
  if (util::MetricsRegistry* reg = util::metrics()) {
    next->requests = &reg->counter("hpcfail.serve.requests");
  }
  return *next;
}

std::string Server::handle_line(std::string_view line) {
  if (util::MetricsRegistry* reg = util::metrics()) {
    reg->counter("hpcfail.serve.requests").increment();
  }
  return std::string(line);
}

void Server::publish(std::uint64_t id) {
  util::metrics()->gauge("hpcfail.serve.epoch").set(static_cast<std::int64_t>(id));
}

void Server::observe(util::MetricsRegistry& reg, double us) {
  reg.histogram("hpcfail.serve.request_latency_us", latency_bounds()).observe(us);
}

void Server::unreasoned(util::MetricsRegistry& reg) {
  // hpcfail-lint: allow(hot-path-metrics)
  reg.counter("hpcfail.serve.tail_polls").increment();
}

void Server::tolerated(util::MetricsRegistry& reg) {
  // hpcfail-lint: allow(hot-path-metrics) -- once at boot, never per request
  reg.gauge("hpcfail.serve.epoch").set(0);
}

}  // namespace hpcfail::serve
