// Renders structured records into raw log-file lines in the dialects of the
// system being simulated, and whole jobs into scheduler-log line groups.
//
// Line grammars (all timestamps UTC):
//   console     ISO_TS <nodename> [<cname>] kernel: <payload> [jobid=N]
//   messages    SYSLOG_TS <nodename> nhc[pid]: <payload> [jobid=N]
//   consumer    ISO_TS <nodename> [<cname>] hwerrd: <payload>
//   controller  ISO_TS <cname> cc: <payload> [value=V]
//   erd         ISO_TS erd ev=<event> src=<cname> [node=<nodename>] <detail>
//   scheduler   Slurm:  ISO_TS slurmctld: <payload>
//               Torque: MM/DD/YYYY HH:MM:SS;0008;PBS_Server;Job;<id>.sdb;<payload>
//
// Every line is appended onto a caller's string without a trailing newline:
// node names and cnames come from tables built once per topology, and
// timestamps, digits and node lists are written in place, so rendering a
// line makes no temporary strings and calls no snprintf.
//
// The parsers in src/parsers invert these grammars exactly; the round-trip
// property is tested in tests/roundtrip_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "jobs/job.hpp"
#include "logmodel/record.hpp"
#include "logmodel/symbol_table.hpp"
#include "platform/system_config.hpp"
#include "platform/topology.hpp"

namespace hpcfail::loggen {

/// Names formatted once and packed into one buffer, looked up by index.
class NameTable {
 public:
  void add(std::string_view name);
  [[nodiscard]] std::size_t size() const noexcept { return ends_.size(); }
  [[nodiscard]] std::string_view operator[](std::size_t i) const noexcept {
    const std::uint32_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::string_view(text_).substr(begin, ends_[i] - begin);
  }

 private:
  std::string text_;
  std::vector<std::uint32_t> ends_;  ///< end offset of entry i in text_
};

/// The scheduler-log lines of a job, in the order a job emits them.
enum class JobLine : std::uint8_t { Allocate, Overallocation, Cancel, End, Epilogue };

/// One scheduler-log line of a job and its event time (Torque timestamps
/// do not sort lexically, so the corpus writer sorts by this time).
struct JobLineAt {
  util::TimePoint time;
  JobLine line = JobLine::Allocate;
};

/// The lines `job` renders (three to five), in emission order.
struct JobLines {
  std::array<JobLineAt, 5> at{};
  std::size_t count = 0;

  [[nodiscard]] const JobLineAt* begin() const noexcept { return at.data(); }
  [[nodiscard]] const JobLineAt* end() const noexcept { return at.data() + count; }
};
[[nodiscard]] JobLines job_lines(const jobs::Job& job) noexcept;

class LogRenderer {
 public:
  /// `symbols` resolves every record's detail Symbol and must outlive the
  /// renderer (it is the table the records were emitted through).
  LogRenderer(const platform::Topology& topo, platform::SchedulerKind scheduler,
              const logmodel::SymbolTable& symbols);

  /// Appends one record's line.  Scheduler-source records render via the
  /// job grammar without a node list; jobs render through append_job_line.
  void append(std::string& out, const logmodel::LogRecord& r) const;

  /// Appends one scheduler-log line of `job` (an entry of job_lines(job)),
  /// in the dialect of the system's scheduler.
  void append_job_line(std::string& out, const jobs::Job& job, const JobLineAt& at) const;

  /// Appends one routine-chatter line: the console grammar under "kernel:"
  /// or the messages grammar under "daemon[1]:".
  void append_chatter(std::string& out, util::TimePoint t, platform::NodeId node,
                      logmodel::LogSource source, std::string_view text) const;

 private:
  [[nodiscard]] std::string_view node_name(platform::NodeId n) const noexcept;
  [[nodiscard]] std::string_view node_cname(platform::NodeId n) const noexcept;
  /// The cname of a record's most specific location, or `none`.
  [[nodiscard]] std::string_view location_cname(const logmodel::LogRecord& r,
                                                std::string_view none) const noexcept;
  /// ISO_TS <nodename> [<cname>] — the console/consumer line head.
  void append_console_head(std::string& out, util::TimePoint t, platform::NodeId node) const;
  void append_console(std::string& out, const logmodel::LogRecord& r) const;
  void append_messages(std::string& out, const logmodel::LogRecord& r) const;
  void append_controller(std::string& out, const logmodel::LogRecord& r) const;
  void append_erd(std::string& out, const logmodel::LogRecord& r) const;
  void append_scheduler(std::string& out, const logmodel::LogRecord& r) const;

  platform::NamingScheme naming_;
  platform::SchedulerKind scheduler_;
  const logmodel::SymbolTable& symbols_;
  NameTable node_names_;
  NameTable node_cnames_;
  NameTable blade_cnames_;
  NameTable cabinet_cnames_;
};

/// ERD event name for an external event type (e.g. "ec_node_failed").
[[nodiscard]] std::string_view erd_event_name(logmodel::EventType t) noexcept;

}  // namespace hpcfail::loggen
