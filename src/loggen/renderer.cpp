#include "loggen/renderer.hpp"

#include "loggen/nid_ranges.hpp"
#include "util/strings.hpp"

namespace hpcfail::loggen {

using logmodel::EventType;
using logmodel::LogRecord;
using logmodel::LogSource;

namespace {

/// A payload template: `head`, then the record's detail when `detail` is
/// set, then `tail`.
struct Template {
  std::string_view head;
  std::string_view tail;
  bool detail = true;
};

/// Kernel payload for an internal event type (shared with the consumer
/// grammar).
Template internal_payload(EventType t) noexcept {
  switch (t) {
    case EventType::KernelPanic: return {"Kernel panic - not syncing: ", ""};
    case EventType::KernelOops:
      return {"BUG: unable to handle kernel paging request at 00000000deadbeef", "", false};
    case EventType::CallTrace: return {" [<ffffffff81234567>] ", "+0x1a2/0x400"};
    case EventType::MachineCheckException:
      return {"mce: [Hardware Error]: Machine check events logged: ", ""};
    case EventType::HardwareError: return {"EDAC MC0: ", ""};
    case EventType::CpuCorruption:
      return {"mce: [Hardware Error]: PCC processor context corrupt: ", ""};
    case EventType::CpuStall: return {"INFO: rcu_sched self-detected stall on CPU: ", ""};
    case EventType::BiosError: return {"HEST: ", ""};
    case EventType::FirmwareBug: return {"[Firmware Bug]: ", ""};
    case EventType::DriverBug: return {"WARNING: driver bug: ", ""};
    case EventType::SegFault: return {"app[31337]: segfault at 0 ip 00007f err 4: ", ""};
    case EventType::InvalidOpcode: return {"invalid opcode: 0000 [#1] SMP: ", ""};
    case EventType::PageAllocationFailure: return {"", ", mode:0x4020"};
    case EventType::OomKill: return {"", " score 987 or sacrifice child"};
    case EventType::HungTaskTimeout:
      return {"INFO: task blocked for more than 120 seconds: ", ""};
    case EventType::LustreBug: return {"LustreError: LBUG - ASSERTION failed: ", ""};
    case EventType::LustreError: return {"LustreError: 11-0: ", ""};
    case EventType::DvsError: return {"DVS: ", ""};
    case EventType::InodeError: return {"LDISKFS-fs error: bad inode: ", ""};
    case EventType::InterconnectError: return {"hsn: link error detected: ", ""};
    case EventType::NodeShutdown: return {"Shutdown: system going down: ", ""};
    case EventType::NodeHalt: return {"System halted: ", ""};
    case EventType::NodeBoot: return {"Booting Linux on physical CPU 0x0: ", ""};
    default: return {"", ""};
  }
}

/// Controller payload for controller-scoped event types; sensor warnings
/// and readings carry the record's value as "%.3f".
void controller_payload(std::string& out, const LogRecord& r, std::string_view detail) {
  const auto reading = [&out, &r](std::string_view head, std::string_view tail) {
    out += head;
    util::append_fixed(out, r.value, 3);
    out += tail;
  };
  std::string_view text = detail;
  switch (r.type) {
    case EventType::SedcTemperatureWarning:
      return reading("ec_sedc_warning: CPU_TEMP reading ", " outside allowed band");
    case EventType::SedcVoltageWarning:
      return reading("ec_sedc_warning: VDD reading ", " below minimum");
    case EventType::SedcAirVelocityWarning:
      return reading("ec_sedc_warning: AIR_VEL reading ", " below minimum");
    case EventType::SedcFanSpeedWarning:
      return reading("ec_environment: fan speed deviation reading ", "");
    case EventType::SedcReading:
      out += "sedc: ";
      out += detail;
      return reading(" value=", "");
    case EventType::CabinetPowerFault: text = "cabinet power fault detected"; break;
    case EventType::CabinetMicroFault: text = "cabinet micro controller fault"; break;
    case EventType::CommunicationFault: text = "communication fault: controller timeout"; break;
    case EventType::ModuleHealthFault: text = "module health fault"; break;
    case EventType::RpmFault: text = "RPM fault on fan 3"; break;
    case EventType::EcbFault: text = "ECB fault: circuit breaker tripped"; break;
    case EventType::CabinetSensorCheck: text = "cabinet sensor check failed"; break;
    case EventType::GetSensorReadingFailed: text = "get sensor reading failed"; break;
    case EventType::BladeHeartbeatFault: text = "bc heartbeat fault"; break;
    case EventType::L0SysdMce: out += "L0_sysd_mce: "; break;
    default: break;
  }
  out += text;
}

/// Kernel payload of `r` through its internal_payload template.
void append_internal(std::string& out, const LogRecord& r, std::string_view detail) {
  const Template tpl = internal_payload(r.type);
  out += tpl.head;
  if (tpl.detail) out += detail;
  out += tpl.tail;
}

}  // namespace

std::string_view erd_event_name(EventType t) noexcept {
  switch (t) {
    case EventType::NodeHeartbeatFault: return "ec_node_failed";
    case EventType::NodeVoltageFault: return "ec_node_voltage_fault";
    case EventType::BladeHeartbeatFault: return "ec_bc_heartbeat_fault";
    case EventType::EcHeartbeatStop: return "ec_heartbeat_stop";
    case EventType::EcL0Failed: return "ec_l0_failed";
    case EventType::EcHwError: return "ec_hw_error";
    case EventType::LinkError: return "ec_link_error";
    case EventType::LaneDegrade: return "ec_lane_degrade";
    case EventType::LinkFailover: return "ec_link_failover";
    case EventType::LinkFailoverFailed: return "ec_failover_failed";
    case EventType::GetSensorReadingFailed: return "ec_get_sensor_failed";
    default: return "ec_event";
  }
}

void NameTable::add(std::string_view name) {
  text_ += name;
  ends_.push_back(static_cast<std::uint32_t>(text_.size()));
}

JobLines job_lines(const jobs::Job& job) noexcept {
  JobLines lines;
  const auto add = [&lines](util::TimePoint t, JobLine line) {
    lines.at[lines.count++] = JobLineAt{t, line};
  };
  add(job.start, JobLine::Allocate);
  if (job.outcome == jobs::JobOutcome::Overallocated) {
    add(job.start + util::Duration::seconds(30), JobLine::Overallocation);
  }
  if (job.outcome == jobs::JobOutcome::UserCancelled) {
    add(job.end - util::Duration::seconds(1), JobLine::Cancel);
  }
  add(job.end, JobLine::End);
  add(job.end + util::Duration::seconds(5), JobLine::Epilogue);
  return lines;
}

LogRenderer::LogRenderer(const platform::Topology& topo, platform::SchedulerKind scheduler,
                         const logmodel::SymbolTable& symbols)
    : naming_(topo.config().naming), scheduler_(scheduler), symbols_(symbols) {
  // Every name is formatted once here, off the per-line path.
  for (std::uint32_t n = 0; n < topo.node_count(); ++n) {
    node_names_.add(topo.node_name(platform::NodeId{n}));
    // hpcfail-lint: allow(hot-path-format) -- once per node when the table is built
    node_cnames_.add(topo.cname_of(platform::NodeId{n}).to_string());
  }
  for (std::uint32_t b = 0; b < topo.blade_count(); ++b) {
    // hpcfail-lint: allow(hot-path-format) -- once per blade when the table is built
    blade_cnames_.add(topo.cname_of_blade(platform::BladeId{b}).to_string());
  }
  for (std::uint32_t c = 0; c < topo.cabinet_count(); ++c) {
    // hpcfail-lint: allow(hot-path-format) -- once per cabinet when the table is built
    cabinet_cnames_.add(topo.cname_of_cabinet(platform::CabinetId{c}).to_string());
  }
}

// An id outside the topology renders as Topology::node_name and
// Cname::to_string render it: "nid-invalid" and the default cname "c0-0".

std::string_view LogRenderer::node_name(platform::NodeId n) const noexcept {
  return n.value < node_names_.size() ? node_names_[n.value] : "nid-invalid";
}

std::string_view LogRenderer::node_cname(platform::NodeId n) const noexcept {
  return n.value < node_cnames_.size() ? node_cnames_[n.value] : "c0-0";
}

std::string_view LogRenderer::location_cname(const LogRecord& r,
                                              std::string_view none) const noexcept {
  if (r.has_node()) return node_cname(r.node);
  if (r.has_blade()) {
    return r.blade.value < blade_cnames_.size() ? blade_cnames_[r.blade.value] : "c0-0";
  }
  if (r.has_cabinet()) {
    return r.cabinet.value < cabinet_cnames_.size() ? cabinet_cnames_[r.cabinet.value]
                                                    : "c0-0";
  }
  return none;
}

void LogRenderer::append_console_head(std::string& out, util::TimePoint t,
                                      platform::NodeId node) const {
  util::append_iso(out, t);
  out += ' ';
  out += node_name(node);
  if (naming_ == platform::NamingScheme::CrayCname) {
    out += ' ';
    out += node_cname(node);
  }
}

void LogRenderer::append_console(std::string& out, const LogRecord& r) const {
  append_console_head(out, r.time, r.node);
  out += r.source == LogSource::Consumer ? " hwerrd: " : " kernel: ";
  append_internal(out, r, symbols_.view(r.detail));
  if (r.has_job()) {
    out += " jobid=";
    util::append_int(out, r.job_id);
  }
}

void LogRenderer::append_messages(std::string& out, const LogRecord& r) const {
  util::append_syslog(out, r.time);
  out += ' ';
  out += node_name(r.node);
  out += " nhc[2114]: ";
  out += symbols_.view(r.detail);
  if (r.has_job()) {
    out += " jobid=";
    util::append_int(out, r.job_id);
  }
}

void LogRenderer::append_controller(std::string& out, const LogRecord& r) const {
  util::append_iso(out, r.time);
  out += ' ';
  out += location_cname(r, "c?-?");
  out += " cc: ";
  controller_payload(out, r, symbols_.view(r.detail));
}

void LogRenderer::append_erd(std::string& out, const LogRecord& r) const {
  util::append_iso(out, r.time);
  out += " erd ev=";
  out += erd_event_name(r.type);
  out += " src=";
  out += location_cname(r, "c0-0");
  if (r.has_node()) {
    out += " node=";
    out += node_name(r.node);
  }
  out += ' ';
  out += symbols_.view(r.detail);
}

void LogRenderer::append_scheduler(std::string& out, const LogRecord& r) const {
  // Minimal record-level rendering; full job groups come from
  // append_job_line which also carries the node list.
  util::append_iso(out, r.time);
  out += scheduler_ == platform::SchedulerKind::Slurm ? " slurmctld: " : " pbs_server: ";
  const std::string_view detail = symbols_.view(r.detail);
  switch (r.type) {
    case EventType::JobStart:
      out += "sched: Allocate JobId=";
      util::append_int(out, r.job_id);
      out += " App=";
      out += detail;
      break;
    case EventType::JobEnd:
      out += "JobId=";
      util::append_int(out, r.job_id);
      out += " Ended ExitCode=";
      util::append_int(out, static_cast<int>(r.value));
      out += ":0 Reason=";
      out += detail;
      break;
    case EventType::JobCancelled:
      out += "scancel JobId=";
      util::append_int(out, r.job_id);
      out += ' ';
      out += detail;
      break;
    case EventType::JobOverallocation:
      out += "error: JobId=";
      util::append_int(out, r.job_id);
      out += " allocated memory exceeds node capacity";
      break;
    case EventType::EpilogueRun:
      out += "epilog complete JobId=";
      util::append_int(out, r.job_id);
      break;
    case EventType::NhcSuspectMode:
      out += "NHC: suspect JobId=";
      util::append_int(out, r.job_id);
      break;
    default:
      out += detail;
      break;
  }
}

void LogRenderer::append(std::string& out, const LogRecord& r) const {
  switch (r.source) {
    case LogSource::Console:
    case LogSource::Consumer:
      append_console(out, r);
      break;
    case LogSource::Messages:
      append_messages(out, r);
      break;
    case LogSource::Controller:
      append_controller(out, r);
      break;
    case LogSource::Erd:
      append_erd(out, r);
      break;
    case LogSource::Scheduler:
      append_scheduler(out, r);
      break;
    case LogSource::kCount:
      break;
  }
}

void LogRenderer::append_chatter(std::string& out, util::TimePoint t, platform::NodeId node,
                                 LogSource source, std::string_view text) const {
  if (source == LogSource::Console) {
    append_console_head(out, t, node);
    out += " kernel: ";
  } else {
    util::append_syslog(out, t);
    out += ' ';
    out += node_name(node);
    out += " daemon[1]: ";
  }
  out += text;
}

void LogRenderer::append_job_line(std::string& out, const jobs::Job& job,
                                  const JobLineAt& at) const {
  const bool slurm = scheduler_ == platform::SchedulerKind::Slurm;
  // Slurm:  ISO_TS slurmctld: <payload>
  // Torque: MM/DD/YYYY HH:MM:SS;0008;PBS_Server;Job;<id>.sdb;<payload>
  if (slurm) {
    util::append_iso(out, at.time);
    out += " slurmctld: ";
  } else {
    util::append_torque(out, at.time);
    out += ";0008;PBS_Server;Job;";
    util::append_int(out, job.job_id);
    out += ".sdb;";
  }
  const auto job_id = [&] {
    out += "JobId=";
    util::append_int(out, job.job_id);
  };
  switch (at.line) {
    case JobLine::Allocate:
      if (slurm) {
        out += "sched: Allocate ";
        job_id();
        out += ' ';
      } else {
        out += "Job Run ";
      }
      out += "Apid=";
      util::append_int(out, job.apid);
      out += " User=";
      out += job.user;
      out += " App=";
      out += job.app_name;
      out += " NodeList=";
      append_node_list(out, job.nodes, naming_);
      out += " NodeCnt=";
      util::append_uint(out, job.nodes.size());
      out += " MemPerNode=";
      util::append_fixed(out, job.mem_per_node_gb, 1);
      out += 'G';
      break;
    case JobLine::Overallocation:
      if (slurm) {
        out += "error: ";
        job_id();
        out += ' ';
      }
      out += "OverallocCnt=";
      util::append_uint(out, job.overallocated_nodes);
      out += " allocated memory exceeds node capacity";
      break;
    case JobLine::Cancel:
      if (slurm) {
        out += "scancel ";
        job_id();
        out += " by user ";
      } else {
        out += "Job deleted by user ";
      }
      out += job.user;
      break;
    case JobLine::End:
      if (slurm) {
        job_id();
        out += " Ended ExitCode=";
        util::append_int(out, job.exit_code());
        out += ":0";
      } else {
        out += "Exit_status=";
        util::append_int(out, job.exit_code());
      }
      out += " Reason=";
      out += to_string(job.outcome);
      break;
    case JobLine::Epilogue:
      if (slurm) {
        out += "epilog complete ";
        job_id();
      } else {
        out += "Epilogue complete";
      }
      break;
  }
}

}  // namespace hpcfail::loggen
