#include "corpus_oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "loggen/renderer.hpp"

namespace hpcfail::oracle {

namespace {

using logmodel::EventType;
using logmodel::LogRecord;
using logmodel::LogSource;

std::string ref_iso(util::TimePoint t) {
  const util::CivilTime c = util::civil_time(t);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02d.%06d", c.year, c.month,
                c.day, c.hour, c.minute, c.second, c.usec);
  return buf;
}

std::string ref_syslog(util::TimePoint t) {
  static const char* const kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                        "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
  const util::CivilTime c = util::civil_time(t);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%s %2d %02d:%02d:%02d", kMonths[c.month - 1], c.day,
                c.hour, c.minute, c.second);
  return buf;
}

std::string ref_torque(util::TimePoint t) {
  const util::CivilTime c = util::civil_time(t);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%02d/%02d/%04d %02d:%02d:%02d", c.month, c.day, c.year,
                c.hour, c.minute, c.second);
  return buf;
}

std::string compress_node_list(std::vector<platform::NodeId> nodes,
                               platform::NamingScheme naming) {
  const char* prefix = naming == platform::NamingScheme::CrayCname ? "nid" : "node";
  const int width = naming == platform::NamingScheme::CrayCname ? 5 : 4;
  if (nodes.empty()) return std::string(prefix) + "[]";
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  char buf[32];
  if (nodes.size() == 1) {
    std::snprintf(buf, sizeof buf, "%s%0*u", prefix, width, nodes[0].value);
    return buf;
  }
  std::string out = prefix;
  out += '[';
  std::size_t i = 0;
  bool first = true;
  while (i < nodes.size()) {
    std::size_t j = i;
    while (j + 1 < nodes.size() && nodes[j + 1].value == nodes[j].value + 1) ++j;
    if (!first) out += ',';
    first = false;
    if (j == i) {
      std::snprintf(buf, sizeof buf, "%0*u", width, nodes[i].value);
    } else {
      std::snprintf(buf, sizeof buf, "%0*u-%0*u", width, nodes[i].value, width,
                    nodes[j].value);
    }
    out += buf;
    i = j + 1;
  }
  out += ']';
  return out;
}

std::string internal_payload(const LogRecord& r, const logmodel::SymbolTable& symbols) {
  const std::string detail{symbols.view(r.detail)};
  switch (r.type) {
    case EventType::KernelPanic: return "Kernel panic - not syncing: " + detail;
    case EventType::KernelOops:
      return "BUG: unable to handle kernel paging request at 00000000deadbeef";
    case EventType::CallTrace: return " [<ffffffff81234567>] " + detail + "+0x1a2/0x400";
    case EventType::MachineCheckException:
      return "mce: [Hardware Error]: Machine check events logged: " + detail;
    case EventType::HardwareError: return "EDAC MC0: " + detail;
    case EventType::CpuCorruption:
      return "mce: [Hardware Error]: PCC processor context corrupt: " + detail;
    case EventType::CpuStall: return "INFO: rcu_sched self-detected stall on CPU: " + detail;
    case EventType::BiosError: return "HEST: " + detail;
    case EventType::FirmwareBug: return "[Firmware Bug]: " + detail;
    case EventType::DriverBug: return "WARNING: driver bug: " + detail;
    case EventType::SegFault: return "app[31337]: segfault at 0 ip 00007f err 4: " + detail;
    case EventType::InvalidOpcode: return "invalid opcode: 0000 [#1] SMP: " + detail;
    case EventType::PageAllocationFailure: return detail + ", mode:0x4020";
    case EventType::OomKill: return detail + " score 987 or sacrifice child";
    case EventType::HungTaskTimeout:
      return "INFO: task blocked for more than 120 seconds: " + detail;
    case EventType::LustreBug: return "LustreError: LBUG - ASSERTION failed: " + detail;
    case EventType::LustreError: return "LustreError: 11-0: " + detail;
    case EventType::DvsError: return "DVS: " + detail;
    case EventType::InodeError: return "LDISKFS-fs error: bad inode: " + detail;
    case EventType::InterconnectError: return "hsn: link error detected: " + detail;
    case EventType::NodeShutdown: return "Shutdown: system going down: " + detail;
    case EventType::NodeHalt: return "System halted: " + detail;
    case EventType::NodeBoot: return "Booting Linux on physical CPU 0x0: " + detail;
    default: return detail;
  }
}

std::string controller_payload(const LogRecord& r, const logmodel::SymbolTable& symbols) {
  const std::string detail{symbols.view(r.detail)};
  char value[48];
  std::snprintf(value, sizeof value, "%.3f", r.value);
  switch (r.type) {
    case EventType::SedcTemperatureWarning:
      return std::string("ec_sedc_warning: CPU_TEMP reading ") + value +
             " outside allowed band";
    case EventType::SedcVoltageWarning:
      return std::string("ec_sedc_warning: VDD reading ") + value + " below minimum";
    case EventType::SedcAirVelocityWarning:
      return std::string("ec_sedc_warning: AIR_VEL reading ") + value + " below minimum";
    case EventType::SedcFanSpeedWarning:
      return std::string("ec_environment: fan speed deviation reading ") + value;
    case EventType::SedcReading: return "sedc: " + detail + " value=" + value;
    case EventType::CabinetPowerFault: return "cabinet power fault detected";
    case EventType::CabinetMicroFault: return "cabinet micro controller fault";
    case EventType::CommunicationFault: return "communication fault: controller timeout";
    case EventType::ModuleHealthFault: return "module health fault";
    case EventType::RpmFault: return "RPM fault on fan 3";
    case EventType::EcbFault: return "ECB fault: circuit breaker tripped";
    case EventType::CabinetSensorCheck: return "cabinet sensor check failed";
    case EventType::GetSensorReadingFailed: return "get sensor reading failed";
    case EventType::BladeHeartbeatFault: return "bc heartbeat fault";
    case EventType::L0SysdMce: return "L0_sysd_mce: " + detail;
    default: return detail;
  }
}

struct Renderer {
  const platform::Topology& topo;
  platform::SchedulerKind scheduler;
  const logmodel::SymbolTable& symbols;

  [[nodiscard]] std::string location(const LogRecord& r, const char* none) const {
    if (r.has_node()) return topo.cname_of(r.node).to_string();
    if (r.has_blade()) return topo.cname_of_blade(r.blade).to_string();
    if (r.has_cabinet()) return topo.cname_of_cabinet(r.cabinet).to_string();
    return none;
  }

  [[nodiscard]] std::string render(const LogRecord& r) const {
    const std::string jobid = r.has_job() ? " jobid=" + std::to_string(r.job_id) : "";
    switch (r.source) {
      case LogSource::Console:
      case LogSource::Consumer: {
        std::string line = ref_iso(r.time) + ' ' + topo.node_name(r.node);
        if (topo.config().naming == platform::NamingScheme::CrayCname) {
          line += ' ' + topo.cname_of(r.node).to_string();
        }
        line += r.source == LogSource::Consumer ? " hwerrd: " : " kernel: ";
        return line + internal_payload(r, symbols) + jobid;
      }
      case LogSource::Messages:
        return ref_syslog(r.time) + ' ' + topo.node_name(r.node) + " nhc[2114]: " +
               std::string(symbols.view(r.detail)) + jobid;
      case LogSource::Controller:
        return ref_iso(r.time) + ' ' + location(r, "c?-?") + " cc: " +
               controller_payload(r, symbols);
      case LogSource::Erd: {
        std::string line = ref_iso(r.time) + " erd ev=" +
                           std::string(loggen::erd_event_name(r.type)) + " src=" +
                           location(r, "c0-0");
        if (r.has_node()) line += " node=" + topo.node_name(r.node);
        return line + ' ' + std::string(symbols.view(r.detail));
      }
      case LogSource::Scheduler:
      case LogSource::kCount:
        break;
    }
    return {};
  }

  [[nodiscard]] std::vector<std::pair<util::TimePoint, std::string>> job_lines(
      const jobs::Job& job) const {
    std::vector<std::pair<util::TimePoint, std::string>> lines;
    char buf[64];
    std::snprintf(buf, sizeof buf, " MemPerNode=%.1fG", job.mem_per_node_gb);
    const std::string alloc_fields =
        "Apid=" + std::to_string(job.apid) + " User=" + job.user + " App=" + job.app_name +
        " NodeList=" + compress_node_list(job.nodes, topo.config().naming) +
        " NodeCnt=" + std::to_string(job.nodes.size()) + buf;
    const std::string id = std::to_string(job.job_id);
    const std::string reason{to_string(job.outcome)};
    const std::string code = std::to_string(job.exit_code());
    const util::TimePoint over = job.start + util::Duration::seconds(30);
    const util::TimePoint cancel = job.end - util::Duration::seconds(1);
    const util::TimePoint epi = job.end + util::Duration::seconds(5);
    const bool overallocated = job.outcome == jobs::JobOutcome::Overallocated;
    const bool cancelled = job.outcome == jobs::JobOutcome::UserCancelled;
    const std::string overalloc =
        "OverallocCnt=" + std::to_string(job.overallocated_nodes) +
        " allocated memory exceeds node capacity";

    if (scheduler == platform::SchedulerKind::Slurm) {
      const auto slurm = [&lines](util::TimePoint t, const std::string& payload) {
        lines.emplace_back(t, ref_iso(t) + " slurmctld: " + payload);
      };
      slurm(job.start, "sched: Allocate JobId=" + id + ' ' + alloc_fields);
      if (overallocated) slurm(over, "error: JobId=" + id + ' ' + overalloc);
      if (cancelled) slurm(cancel, "scancel JobId=" + id + " by user " + job.user);
      slurm(job.end, "JobId=" + id + " Ended ExitCode=" + code + ":0 Reason=" + reason);
      slurm(epi, "epilog complete JobId=" + id);
      return lines;
    }
    const auto torque = [&lines, &id](util::TimePoint t, const std::string& payload) {
      lines.emplace_back(t, ref_torque(t) + ";0008;PBS_Server;Job;" + id + ".sdb;" + payload);
    };
    torque(job.start, "Job Run " + alloc_fields);
    if (overallocated) torque(over, overalloc);
    if (cancelled) torque(cancel, "Job deleted by user " + job.user);
    torque(job.end, "Exit_status=" + code + " Reason=" + reason);
    torque(epi, "Epilogue complete");
    return lines;
  }
};

constexpr const char* kConsoleChatter[] = {
    "usb 1-1: new high-speed USB device",
    "eth0: link becomes ready",
    "audit: backlog limit exceeded adjustment",
    "perf: interrupt took too long, lowering rate",
    "device-mapper: uevent: version 1.0.3",
    "random: crng init done",
    "igb 0000:01:00.0: changing MTU",
    "NFS: state manager reclaiming locks",
};

constexpr const char* kMessagesChatter[] = {
    "systemd[1]: Started Session 2114 of user ops.",
    "crond[3321]: (root) CMD (run-parts /etc/cron.hourly)",
    "sshd[881]: Accepted publickey for ops from 10.1.0.4",
    "dbus[640]: [system] Successfully activated service",
    "ntpd[512]: kernel time sync status change 2001",
    "rsyslogd: action resumed (module builtin:omfile)",
};

}  // namespace

loggen::Corpus reference_corpus(const faultsim::SimulationResult& sim) {
  loggen::Corpus corpus;
  corpus.system = sim.config.system;
  corpus.begin = sim.config.begin;
  corpus.days = sim.config.days;

  const bool has_external = corpus.system.name != platform::SystemName::S5;
  const Renderer renderer{sim.topology, corpus.system.scheduler, sim.symbols};

  struct Line {
    util::TimePoint time;
    LogSource source;
    std::string text;
  };
  std::vector<Line> lines;
  for (const auto& r : sim.records) {
    if (r.source == LogSource::Scheduler) continue;
    if (!has_external && (r.source == LogSource::Controller || r.source == LogSource::Erd)) {
      continue;
    }
    lines.push_back({r.time, r.source, renderer.render(r)});
  }

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
      std::string text;
      if (console) {
        text = ref_iso(t) + ' ' + sim.topology.node_name(node);
        if (sim.topology.config().naming == platform::NamingScheme::CrayCname) {
          text += ' ' + sim.topology.cname_of(node).to_string();
        }
        text += " kernel: ";
        text += kConsoleChatter[rng.uniform_int(0, 7)];
      } else {
        text = ref_syslog(t) + ' ' + sim.topology.node_name(node) + " daemon[1]: ";
        text += kMessagesChatter[rng.uniform_int(0, 5)];
      }
      lines.push_back({t, console ? LogSource::Console : LogSource::Messages,
                       std::move(text)});
      ++corpus.chatter_lines;
    }
  }

  std::stable_sort(lines.begin(), lines.end(),
                   [](const Line& a, const Line& b) { return a.time < b.time; });
  for (const auto& line : lines) {
    corpus.of(line.source) += line.text + '\n';
  }

  std::vector<std::pair<util::TimePoint, std::string>> sched_lines;
  for (const auto& job : sim.jobs) {
    for (auto& line : renderer.job_lines(job)) sched_lines.push_back(std::move(line));
  }
  std::stable_sort(sched_lines.begin(), sched_lines.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& line : sched_lines) {
    corpus.of(LogSource::Scheduler) += line.second + '\n';
  }
  return corpus;
}

}  // namespace hpcfail::oracle
