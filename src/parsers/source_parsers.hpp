// Per-line parsers for each raw log source; exact inverses of the grammars
// in loggen/renderer.cpp.  Every parser is total: any malformed line yields
// nullopt, never an exception (the property suite fuzzes this).
#pragma once

#include <optional>
#include <string_view>

#include "jobs/job_table.hpp"
#include "logmodel/record.hpp"
#include "logmodel/symbol_table.hpp"
#include "platform/topology.hpp"

namespace hpcfail::parsers {

struct ParseContext {
  const platform::Topology* topo = nullptr;
  /// Table detail strings are interned into, straight from the line's
  /// string_views (no per-record allocation).  Parsers yield nullopt when
  /// unset, like topo.  Each ingest chunk task points this at its
  /// chunk-local table; ingest remaps at retire time.
  logmodel::SymbolTable* symbols = nullptr;
  /// Year of the corpus window's first day; syslog timestamps carry none.
  int base_year = 1970;
  /// Month (1..12) of the window's first day.  Syslog months calendar-
  /// earlier than this belong to base_year + 1, so a corpus straddling
  /// New Year dates its post-rollover lines correctly (valid for windows
  /// shorter than 12 months; stateless, hence shard-order independent).
  int base_month = 1;
};

/// console / consumer: ISO_TS <nodename> [<cname>] (kernel|hwerrd): <payload>
[[nodiscard]] std::optional<logmodel::LogRecord> parse_console_line(
    std::string_view line, const ParseContext& ctx) noexcept;

/// messages: SYSLOG_TS <nodename> nhc[pid]: <payload>
[[nodiscard]] std::optional<logmodel::LogRecord> parse_messages_line(
    std::string_view line, const ParseContext& ctx) noexcept;

/// controller: ISO_TS <cname> cc: <payload>
[[nodiscard]] std::optional<logmodel::LogRecord> parse_controller_line(
    std::string_view line, const ParseContext& ctx) noexcept;

/// erd: ISO_TS erd ev=<event> src=<cname> [node=<nodename>] <detail>
[[nodiscard]] std::optional<logmodel::LogRecord> parse_erd_line(
    std::string_view line, const ParseContext& ctx) noexcept;

/// Stateful scheduler-log parser: emits records and incrementally fills a
/// JobTable (allocations, ends, cancellations, over-allocation marks).
class SchedulerLogParser {
 public:
  SchedulerLogParser(const ParseContext& ctx, jobs::JobTable& table)
      : ctx_(ctx), table_(table) {}

  /// Parses one line (Slurm or Torque dialect, auto-detected); updates the
  /// table as a side effect.
  [[nodiscard]] std::optional<logmodel::LogRecord> parse_line(std::string_view line);

 private:
  [[nodiscard]] std::optional<logmodel::LogRecord> parse_torque_line(std::string_view line);
  [[nodiscard]] std::optional<logmodel::LogRecord> register_allocation(
      std::string_view payload, std::int64_t job_id, util::TimePoint time,
      logmodel::LogRecord r);

  ParseContext ctx_;
  jobs::JobTable& table_;
};

}  // namespace hpcfail::parsers
