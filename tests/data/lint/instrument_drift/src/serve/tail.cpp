// Drifted tail reader: the error counter is looked up where it fires.
#include "util/metrics.hpp"

namespace hpcfail::serve {

void count_tail_error() {
  if (util::MetricsRegistry* reg = util::metrics()) {
    reg->counter("hpcfail.serve.tail_errors").increment();
  }
}

}  // namespace hpcfail::serve
