// Drifted render hot path: per-field temporaries and snprintf are back.
// Mentions in comments never match: snprintf(buf, ...), std::to_string(x).
#include <cstdio>
#include <sstream>
#include <string>

namespace hpcfail::loggen {

void append_reading(std::string& out, double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", value);
  out += buf;
}

void append_job(std::string& out, long job_id) {
  out += "JobId=" + std::to_string(job_id);
  out += "std::to_string(job_id) in a literal is text, not a call";
}

std::string manifest(int days) {
  std::ostringstream text;
  text << "days=" << days;
  return text.str();
}

void append_cname(std::string& out, const Topology& topo, NodeId node) {
  out += topo.cname_of(node).to_string();
}

void table(std::string& out, const Topology& topo, NodeId node) {
  // hpcfail-lint: allow(hot-path-format)
  out += topo.cname_of(node).to_string();
}

void tolerated(NameTable& names, const Topology& topo, NodeId node) {
  // hpcfail-lint: allow(hot-path-format) -- once per node when the table is built
  names.add(topo.cname_of(node).to_string());
}

}  // namespace hpcfail::loggen
