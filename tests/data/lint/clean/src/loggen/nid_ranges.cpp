// Clean node-list writer: digits go straight into the output buffer (no
// snprintf per piece).
#include <string>

#include "util/strings.hpp"

namespace hpcfail::loggen {

void append_piece(std::string& out, unsigned lo, unsigned hi) {
  util::append_uint(out, lo, 5);
  out += '-';
  util::append_uint(out, hi, 5);
}

}  // namespace hpcfail::loggen
