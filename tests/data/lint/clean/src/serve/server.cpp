// Fixture: conforming serve instrumentation — instruments are looked up
// once per metrics generation in bind_instruments and read through the
// bound slots everywhere else.  A comment quoting reg->counter(name) and
// a free histogram(values) call never match.
#include "util/metrics.hpp"

namespace hpcfail::serve {

const Server::Instruments& Server::bind_instruments() {
  auto next = std::make_unique<Instruments>();
  if (util::MetricsRegistry* reg = util::metrics()) {
    next->requests = &reg->counter("hpcfail.serve.requests");
    next->request_latency_us =
        &reg->histogram("hpcfail.serve.request_latency_us", latency_bounds());
    next->epoch = &reg->gauge("hpcfail.serve.epoch");
  }
  bindings_.push_back(std::move(next));
  return *bindings_.back();
}

std::string Server::handle_line(std::string_view line) {
  const Instruments& m = instruments();
  if (m.requests != nullptr) m.requests->increment();
  (void)histogram(line);
  return "reg->counter(\"in a literal is text, not a call\")";
}

}  // namespace hpcfail::serve
