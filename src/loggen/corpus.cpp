#include "loggen/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "loggen/renderer.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"

namespace hpcfail::loggen {

using logmodel::LogSource;

namespace {

constexpr std::array<std::string_view, logmodel::kLogSourceCount> kFileNames = {
    "p0-console.log", "p0-messages.log", "p0-consumer.log",
    "controller.log", "erd.log",         "scheduler.log"};

}  // namespace

std::string_view source_file_name(logmodel::LogSource source) noexcept {
  return kFileNames[static_cast<std::size_t>(source)];
}

std::size_t Corpus::bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& t : text) total += t.size();
  return total;
}

namespace {

/// Routine daemon noise the classifiers must skip; none of these payloads
/// match any fault signature.
constexpr std::array<std::string_view, 8> kConsoleChatter = {
    "usb 1-1: new high-speed USB device",
    "eth0: link becomes ready",
    "audit: backlog limit exceeded adjustment",
    "perf: interrupt took too long, lowering rate",
    "device-mapper: uevent: version 1.0.3",
    "random: crng init done",
    "igb 0000:01:00.0: changing MTU",
    "NFS: state manager reclaiming locks",
};

constexpr std::array<std::string_view, 6> kMessagesChatter = {
    "systemd[1]: Started Session 2114 of user ops.",
    "crond[3321]: (root) CMD (run-parts /etc/cron.hourly)",
    "sshd[881]: Accepted publickey for ops from 10.1.0.4",
    "dbus[640]: [system] Successfully activated service",
    "ntpd[512]: kernel time sync status change 2001",
    "rsyslogd: action resumed (module builtin:omfile)",
};

/// One rendered line and where it goes.
struct Line {
  util::TimePoint time;
  LogSource source;
  std::string text;
};

/// Appends `lines` to their sources in (time, index) order: the order a
/// stable sort by time gives, from 16-byte keys instead of whole lines.
void concatenate(const std::vector<Line>& lines, Corpus& corpus) {
  std::vector<std::pair<std::int64_t, std::uint32_t>> order(lines.size());
  for (std::uint32_t i = 0; i < lines.size(); ++i) order[i] = {lines[i].time.usec, i};
  std::sort(order.begin(), order.end());
  for (const auto& [time, i] : order) {
    std::string& out = corpus.of(lines[i].source);
    out += lines[i].text;
    out += '\n';
  }
}

}  // namespace

Corpus build_corpus(const faultsim::SimulationResult& sim) {
  Corpus corpus;
  corpus.system = sim.config.system;
  corpus.begin = sim.config.begin;
  corpus.days = sim.config.days;

  const bool has_external = corpus.system.name != platform::SystemName::S5;
  const LogRenderer renderer(sim.topology, corpus.system.scheduler, sim.symbols);

  // Every non-scheduler record plus the routine chatter, one line each.
  std::vector<Line> lines;
  lines.reserve(sim.records.size());
  for (const auto& r : sim.records) {
    if (r.source == LogSource::Scheduler) continue;  // jobs render below
    if (!has_external &&
        (r.source == LogSource::Controller || r.source == LogSource::Erd)) {
      continue;  // S5 has no external log universe
    }
    renderer.append(lines.emplace_back(Line{r.time, r.source, {}}).text, r);
  }

  // Routine chatter: raw daemon lines matching no fault signature.
  const double chatter_rate = sim.config.benign.routine_chatter_lines_per_day;
  if (chatter_rate > 0.0 && sim.topology.node_count() > 0) {
    util::Rng rng(sim.config.seed ^ 0xc4a77e5ULL);
    const auto total = static_cast<std::size_t>(
        chatter_rate * static_cast<double>(std::max(1, sim.config.days)));
    for (std::size_t i = 0; i < total; ++i) {
      const util::TimePoint t =
          sim.config.begin + util::Duration::seconds(rng.uniform_int(
                                 0, static_cast<std::int64_t>(sim.config.days) * 86400 - 1));
      const platform::NodeId node{static_cast<std::uint32_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(sim.topology.node_count()) - 1))};
      const bool console = rng.bernoulli(0.7);
      const LogSource source = console ? LogSource::Console : LogSource::Messages;
      const std::string_view text =
          console ? kConsoleChatter[static_cast<std::size_t>(rng.uniform_int(0, 7))]
                  : kMessagesChatter[static_cast<std::size_t>(rng.uniform_int(0, 5))];
      renderer.append_chatter(lines.emplace_back(Line{t, source, {}}).text, t, node, source,
                              text);
      ++corpus.chatter_lines;
    }
  }
  concatenate(lines, corpus);

  // The scheduler file from the jobs table, ordered by event time (Torque
  // timestamps do not sort lexically).
  std::vector<Line> sched_lines;
  for (const auto& job : sim.jobs) {
    for (const JobLineAt& at : job_lines(job)) {
      Line& line = sched_lines.emplace_back(Line{at.time, LogSource::Scheduler, {}});
      renderer.append_job_line(line.text, job, at);
    }
  }
  concatenate(sched_lines, corpus);
  return corpus;
}

std::string manifest_to_string(const Corpus& corpus) {
  const auto& sys = corpus.system;
  const auto& topo = sys.topology;
  std::ostringstream out;
  out << "label=" << sys.label << '\n'
      << "machine_type=" << sys.machine_type << '\n'
      << "system=" << static_cast<int>(sys.name) << '\n'
      << "scheduler=" << (sys.scheduler == platform::SchedulerKind::Slurm ? "slurm" : "torque")
      << '\n'
      << "naming=" << (topo.naming == platform::NamingScheme::CrayCname ? "cray" : "hostname")
      << '\n'
      << "cabinet_cols=" << topo.cabinet_cols << '\n'
      << "cabinet_rows=" << topo.cabinet_rows << '\n'
      << "chassis_per_cabinet=" << topo.chassis_per_cabinet << '\n'
      << "slots_per_chassis=" << topo.slots_per_chassis << '\n'
      << "nodes_per_slot=" << topo.nodes_per_slot << '\n'
      << "max_nodes=" << topo.max_nodes << '\n'
      << "begin=" << util::format_iso(corpus.begin) << '\n'
      << "days=" << corpus.days << '\n';
  return out.str();
}

Corpus corpus_from_manifest(const std::string& manifest) {
  Corpus corpus;
  platform::TopologyConfig topo;
  int system_index = 0;
  for (const auto line : util::split(manifest, '\n')) {
    const auto trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error("corpus manifest: malformed line");
    }
    const auto key = trimmed.substr(0, eq);
    const auto value = trimmed.substr(eq + 1);
    auto as_int = [&value, &key]() {
      const auto v = util::parse_i64(value);
      if (!v) throw std::runtime_error("corpus manifest: bad integer for " + std::string(key));
      return static_cast<int>(*v);
    };
    if (key == "label") {
      corpus.system.label = value;
    } else if (key == "machine_type") {
      corpus.system.machine_type = value;
    } else if (key == "system") {
      system_index = as_int();
    } else if (key == "scheduler") {
      corpus.system.scheduler = value == "slurm" ? platform::SchedulerKind::Slurm
                                                 : platform::SchedulerKind::Torque;
    } else if (key == "naming") {
      topo.naming = value == "cray" ? platform::NamingScheme::CrayCname
                                    : platform::NamingScheme::Hostname;
    } else if (key == "cabinet_cols") {
      topo.cabinet_cols = as_int();
    } else if (key == "cabinet_rows") {
      topo.cabinet_rows = as_int();
    } else if (key == "chassis_per_cabinet") {
      topo.chassis_per_cabinet = as_int();
    } else if (key == "slots_per_chassis") {
      topo.slots_per_chassis = as_int();
    } else if (key == "nodes_per_slot") {
      topo.nodes_per_slot = as_int();
    } else if (key == "max_nodes") {
      topo.max_nodes = static_cast<std::uint32_t>(as_int());
    } else if (key == "begin") {
      const auto t = util::parse_iso(value);
      if (!t) throw std::runtime_error("corpus manifest: bad begin timestamp");
      corpus.begin = *t;
    } else if (key == "days") {
      corpus.days = as_int();
    }
    // Unknown keys are ignored for forward compatibility.
  }
  corpus.system.name = static_cast<platform::SystemName>(system_index);
  corpus.system.topology = topo;
  corpus.system.nodes = platform::Topology{topo}.node_count();
  return corpus;
}

void write_corpus(const Corpus& corpus, const std::string& dir) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  {
    std::ofstream manifest(fs::path(dir) / "manifest.txt");
    if (!manifest) throw std::runtime_error("write_corpus: cannot open manifest");
    manifest << manifest_to_string(corpus);
    manifest.flush();
    if (!manifest) throw std::runtime_error("write_corpus: short write to manifest.txt");
  }
  for (std::size_t i = 0; i < kFileNames.size(); ++i) {
    if (corpus.text[i].empty()) continue;
    std::ofstream file(fs::path(dir) / kFileNames[i], std::ios::binary);
    if (!file) throw std::runtime_error("write_corpus: cannot open log file");
    file << corpus.text[i];
    if (HPCFAIL_FAULT_SITE("loggen.write.badbit")) file.setstate(std::ios::badbit);
    file.flush();
    // An unchecked stream here turns a full disk into a silently truncated
    // corpus; fail loud with the file that broke.
    if (!file) {
      throw std::runtime_error("write_corpus: short write to " +
                               std::string(kFileNames[i]));
    }
  }
}

Corpus read_corpus_header(const std::string& dir) {
  namespace fs = std::filesystem;
  std::ifstream manifest(fs::path(dir) / "manifest.txt");
  if (!manifest) throw std::runtime_error("read_corpus: missing manifest.txt in " + dir);
  std::ostringstream buf;
  buf << manifest.rdbuf();
  return corpus_from_manifest(buf.str());
}

Corpus read_corpus(const std::string& dir) {
  namespace fs = std::filesystem;
  Corpus corpus = read_corpus_header(dir);
  for (std::size_t i = 0; i < kFileNames.size(); ++i) {
    std::ifstream file(fs::path(dir) / kFileNames[i], std::ios::binary);
    if (!file) continue;  // absent source (e.g. no ERD on S5)
    std::ostringstream text;
    text << file.rdbuf();
    corpus.text[i] = text.str();
  }
  return corpus;
}

}  // namespace hpcfail::loggen
