#include "parse_oracle.hpp"

#include <algorithm>
#include <optional>
#include <string_view>
#include <vector>

#include "parsers/source_parsers.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace hpcfail::oracle {

using logmodel::LogRecord;
using logmodel::LogSource;

parsers::ParsedCorpus reference_parse(const loggen::Corpus& corpus) {
  parsers::ParsedCorpus out;
  out.system = corpus.system;
  out.topology = platform::Topology{corpus.system.topology};
  out.begin = corpus.begin;
  out.days = corpus.days;

  logmodel::SymbolTable symbols;
  const auto begin_civil = util::civil_time(corpus.begin);
  parsers::ParseContext ctx;
  ctx.topo = &out.topology;
  ctx.symbols = &symbols;
  ctx.base_year = begin_civil.year;
  ctx.base_month = begin_civil.month;

  struct Stateless {
    LogSource source;
    std::optional<LogRecord> (*parse)(std::string_view, const parsers::ParseContext&);
  };
  const Stateless stateless[] = {
      {LogSource::Console, &parsers::parse_console_line},
      {LogSource::Consumer, &parsers::parse_console_line},
      {LogSource::Messages, &parsers::parse_messages_line},
      {LogSource::Controller, &parsers::parse_controller_line},
      {LogSource::Erd, &parsers::parse_erd_line},
  };

  std::vector<LogRecord> records;
  const auto take = [&](const std::optional<LogRecord>& record) {
    ++out.total_lines;
    if (record) {
      records.push_back(*record);
    } else {
      ++out.skipped_lines;
    }
  };
  for (const Stateless& s : stateless) {
    for (const auto line : util::split_lines(corpus.of(s.source))) take(s.parse(line, ctx));
  }
  parsers::SchedulerLogParser scheduler(ctx, out.jobs);
  for (const auto line : util::split_lines(corpus.of(LogSource::Scheduler))) {
    take(scheduler.parse_line(line));
  }
  out.jobs.finalize();

  std::stable_sort(records.begin(), records.end(),
                   [](const LogRecord& a, const LogRecord& b) { return a.time < b.time; });
  out.parsed_records = records.size();
  out.store = logmodel::LogStore{std::move(records), std::move(symbols)};
  return out;
}

}  // namespace hpcfail::oracle
