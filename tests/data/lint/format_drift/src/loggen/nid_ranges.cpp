// Drifted node-list writer: one snprintf per range piece.
#include <cstdio>
#include <string>

namespace hpcfail::loggen {

void append_piece(std::string& out, unsigned lo, unsigned hi) {
  char buf[32];
  snprintf(buf, sizeof buf, "%05u-%05u", lo, hi);
  out += buf;
}

}  // namespace hpcfail::loggen
