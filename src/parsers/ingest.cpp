#include "parsers/ingest.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <istream>
#include <new>
#include <stdexcept>
#include <streambuf>
#include <utility>

#include "parsers/source_parsers.hpp"
#include "util/chunked_reader.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/scan.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"
#include "util/trace.hpp"

namespace hpcfail::parsers {

using logmodel::LogRecord;
using logmodel::LogSource;

LineParseFn line_parser_for(LogSource source) noexcept {
  switch (source) {
    case LogSource::Console:
    case LogSource::Consumer:
      return &parse_console_line;
    case LogSource::Messages:
      return &parse_messages_line;
    case LogSource::Controller:
      return &parse_controller_line;
    case LogSource::Erd:
      return &parse_erd_line;
    case LogSource::Scheduler:
    default:
      return nullptr;
  }
}

std::string_view to_string(IngestErrorKind kind) noexcept {
  switch (kind) {
    case IngestErrorKind::Resource: return "resource";
    case IngestErrorKind::MissingFile: return "missing-file";
    case IngestErrorKind::StreamIo: break;
  }
  return "stream-io";
}

std::string IngestError::to_string() const {
  std::string out(parsers::to_string(kind));
  out += " error in ";
  out += logmodel::to_string(source);
  if (!file.empty()) out += " (" + file + ")";
  if (kind == IngestErrorKind::StreamIo) {
    out += " at byte offset " + std::to_string(byte_offset);
  }
  out += ": " + message;
  return out;
}

namespace {

/// Result of parsing one chunk's lines on a pool worker.  Detail Symbols
/// point into the chunk-local table; RunRecords::append remaps them into
/// the run's table at retire time.
struct ChunkResult {
  std::vector<LogRecord> records;
  logmodel::SymbolTable symbols;
  std::size_t lines = 0;
  std::size_t skipped = 0;
};

std::int64_t steady_us() noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Ingest-layer instrument slots, all nullptr when metrics are dark.  The
/// stall counters separate time blocked on the producer (reading the next
/// chunk) from time blocked on consumers (waiting for the oldest in-flight
/// parse), which is the read-vs-parse balance knob `max_inflight_chunks`
/// tunes.
struct IngestInstruments {
  util::Counter* bytes_read = nullptr;
  util::Counter* chunks = nullptr;
  util::Counter* records_parsed = nullptr;
  util::Counter* lines_skipped = nullptr;
  util::Counter* read_stall_us = nullptr;
  util::Counter* retire_stall_us = nullptr;

  static IngestInstruments bind() {
    IngestInstruments m;
    if (util::MetricsRegistry* reg = util::metrics()) {
      m.bytes_read = &reg->counter("hpcfail.ingest.bytes_read");
      m.chunks = &reg->counter("hpcfail.ingest.chunks");
      m.records_parsed = &reg->counter("hpcfail.ingest.records_parsed");
      m.lines_skipped = &reg->counter("hpcfail.ingest.lines_skipped");
      m.read_stall_us = &reg->counter("hpcfail.ingest.read_stall_us");
      m.retire_stall_us = &reg->counter("hpcfail.ingest.retire_stall_us");
    }
    return m;
  }

  [[nodiscard]] bool on() const noexcept { return bytes_read != nullptr; }
};

/// Parallel sources always append in this order, so time-tied records
/// from different sources keep one order whatever the caller passed.
constexpr LogSource kParallelOrder[] = {
    LogSource::Console, LogSource::Consumer, LogSource::Messages,
    LogSource::Controller, LogSource::Erd,
};

/// The run's append sequence: every retired record in retirement order,
/// plus the table their detail Symbols resolve against.  LogStore's
/// constructor sorts the sequence by time once ingest is done.
struct RunRecords {
  std::vector<LogRecord> records;
  logmodel::SymbolTable symbols;

  /// Appends a retired chunk whose Symbols point into `chunk_symbols`.
  /// Throws (if at all) before a record lands, so the caller's line
  /// accounting stays exact when a retire fails.
  void append(const std::vector<LogRecord>& batch,
              const logmodel::SymbolTable& chunk_symbols) {
    if (HPCFAIL_FAULT_SITE("store.append_batch.bad_alloc")) throw std::bad_alloc{};
    if (batch.empty()) return;
    // absorb() is a hash probe per *distinct* string, the remap a table
    // lookup per record.
    const std::vector<logmodel::Symbol> remap = symbols.absorb(chunk_symbols);
    const std::size_t first = records.size();
    records.insert(records.end(), batch.begin(), batch.end());
    for (std::size_t i = first; i < records.size(); ++i) {
      records[i].detail = remap[records[i].detail.id];
    }
  }
};

/// read -> parse pipeline over one source stream.  Chunks retire in
/// submission order (FIFO), so records append in the file's line order no
/// matter how the pool schedules the parse tasks.
void ingest_parallel_source(std::istream& in, LineParseFn parse, const ParseContext& ctx,
                            const IngestOptions& options, util::ThreadPool& pool,
                            std::size_t inflight, RunRecords& run,
                            std::size_t& total_lines, std::size_t& skipped) {
  util::ChunkedLineReader reader(in, options.chunk_bytes);
  std::deque<std::future<ChunkResult>> pending;
  const IngestInstruments m = IngestInstruments::bind();

  const auto retire_front = [&] {
    if (HPCFAIL_FAULT_SITE("ingest.retire.bad_alloc")) throw std::bad_alloc{};
    ChunkResult r;
    if (m.on()) {
      const std::int64_t t0 = steady_us();
      r = pending.front().get();
      m.retire_stall_us->add(
          static_cast<std::uint64_t>(std::max<std::int64_t>(0, steady_us() - t0)));
    } else {
      r = pending.front().get();
    }
    pending.pop_front();
    // append() throws (if at all) before touching the records, so counting
    // the chunk's lines only after it returns keeps the partial-result
    // invariant total_lines == parsed + skipped when a retire fails.
    const std::size_t records = r.records.size();
    run.append(r.records, r.symbols);
    total_lines += r.lines;
    skipped += r.skipped;
    if (m.on()) {
      m.records_parsed->add(records);
      m.lines_skipped->add(r.skipped);
    }
  };

  const auto read_next = [&](std::string& out) {
    if (!m.on()) return reader.next(out);
    const std::int64_t t0 = steady_us();
    const bool more = reader.next(out);
    m.read_stall_us->add(
        static_cast<std::uint64_t>(std::max<std::int64_t>(0, steady_us() - t0)));
    if (more) {
      m.bytes_read->add(out.size());
      m.chunks->increment();
    }
    return more;
  };

  std::string chunk;
  try {
    while (read_next(chunk)) {
      // ctx is captured by value (four words): a queued task must not hold
      // references into this frame once an exception starts unwinding it.
      pending.push_back(
          pool.submit([text = std::move(chunk), parse, ctx]() -> ChunkResult {
            util::TraceSpan span("hpcfail.ingest.parse_chunk");
            if (HPCFAIL_FAULT_SITE("ingest.parse.bad_alloc")) throw std::bad_alloc{};
            ChunkResult r;
            ParseContext local = ctx;
            local.symbols = &r.symbols;  // intern straight from the chunk buffer
            // Zero-allocation line walk: the cursor hands out views into the
            // chunk buffer one at a time, so the per-chunk vector of line
            // views (and its resize churn) is gone from the hot loop.
            r.records.reserve(util::scan::count_byte(text, '\n') + 1);
            util::scan::LineCursor cursor(text);
            std::string_view line;
            while (cursor.next(line)) {
              ++r.lines;
              if (auto rec = parse(line, local)) {
                r.records.push_back(*rec);
              } else {
                ++r.skipped;
              }
            }
            return r;
          }));
      chunk = {};
      if (pending.size() >= inflight) retire_front();
    }
    while (!pending.empty()) retire_front();
  } catch (...) {
    // Tasks capture everything by value, so nothing dangles — but join
    // anyway so an ingest error doesn't leave parse work running after the
    // caller regains control.
    for (auto& f : pending) {
      if (f.valid()) f.wait();
    }
    throw;
  }
}

void ingest_scheduler_source(std::istream& in, const ParseContext& ctx,
                             const IngestOptions& options, jobs::JobTable& jobs,
                             RunRecords& run, std::size_t& total_lines,
                             std::size_t& skipped) {
  util::ChunkedLineReader reader(in, options.chunk_bytes);
  // The scheduler parser is stateful and sequential; it interns directly
  // into the run's table and appends straight to the run's records.
  ParseContext sched_ctx = ctx;
  sched_ctx.symbols = &run.symbols;
  SchedulerLogParser sched(sched_ctx, jobs);
  const IngestInstruments m = IngestInstruments::bind();
  std::size_t parsed_here = 0;
  std::size_t skipped_here = 0;
  std::string chunk;
  while (reader.next(chunk)) {
    util::TraceSpan span("hpcfail.ingest.parse_chunk");
    if (m.on()) {
      m.bytes_read->add(chunk.size());
      m.chunks->increment();
    }
    util::scan::LineCursor cursor(chunk);
    std::string_view line;
    while (cursor.next(line)) {
      ++total_lines;
      if (auto rec = sched.parse_line(line)) {
        run.records.push_back(*rec);
        ++parsed_here;
      } else {
        ++skipped;
        ++skipped_here;
      }
    }
  }
  if (m.on()) {
    m.records_parsed->add(parsed_here);
    m.lines_skipped->add(skipped_here);
  }
}

/// Runs one source's pipeline, converting the two recoverable data-plane
/// failures — a stream I/O error from the reader and an allocation failure
/// anywhere in the chunk pipeline — into a structured IngestError.  Logic
/// errors and everything else stay loud.
template <typename Fn>
std::optional<IngestError> run_source_guarded(LogSource source, Fn&& fn) {
  try {
    fn();
    return std::nullopt;
  } catch (const util::IoError& e) {
    return IngestError{IngestErrorKind::StreamIo, source, {}, e.byte_offset, e.what()};
  } catch (const std::bad_alloc&) {
    return IngestError{IngestErrorKind::Resource, source, {}, 0,
                       "allocation failure in the ingest pipeline"};
  }
}

}  // namespace

IngestResult ingest_stream(const loggen::Corpus& header,
                           const std::vector<SourceStream>& sources,
                           const IngestOptions& options) {
  util::TraceSpan run_span("hpcfail.ingest.run");
  IngestResult out;
  out.system = header.system;
  out.topology = platform::Topology{header.system.topology};
  out.begin = header.begin;
  out.days = header.days;
  util::ThreadPool& pool = options.pool != nullptr ? *options.pool : util::default_pool();
  const std::size_t inflight = options.max_inflight_chunks != 0
                                   ? options.max_inflight_chunks
                                   : 2 * pool.size();

  const auto begin_civil = util::civil_time(header.begin);
  ParseContext ctx;
  ctx.topo = &out.topology;
  ctx.base_year = begin_civil.year;
  ctx.base_month = begin_civil.month;

  const auto stream_of = [&sources](LogSource s) -> std::istream* {
    for (const auto& src : sources) {
      if (src.source == s) return src.in;
    }
    return nullptr;
  };

  RunRecords run;
  std::size_t skipped = 0;

  for (const LogSource source : kParallelOrder) {
    std::istream* in = stream_of(source);
    if (in == nullptr) continue;
    util::TraceSpan span("hpcfail.ingest.source_" +
                         util::trace_name_segment(logmodel::to_string(source)));
    out.error = run_source_guarded(source, [&] {
      ingest_parallel_source(*in, line_parser_for(source), ctx, options, pool, inflight,
                             run, out.total_lines, skipped);
    });
    if (out.error) break;
  }

  if (!out.error) {
    if (std::istream* in = stream_of(LogSource::Scheduler)) {
      util::TraceSpan span("hpcfail.ingest.source_scheduler");
      out.error = run_source_guarded(LogSource::Scheduler, [&] {
        ingest_scheduler_source(*in, ctx, options, out.jobs, run, out.total_lines,
                                skipped);
      });
    }
  }
  out.jobs.finalize();

  // Build the store even after a failure: everything retired before the
  // error is a record-accurate partial result, and the line accounting
  // (total_lines = parsed + skipped) covers exactly what was seen.
  out.skipped_lines = skipped;
  out.parsed_records = run.records.size();
  out.store = logmodel::LogStore{std::move(run.records), std::move(run.symbols)};
  return out;
}

namespace {

/// Read-only streambuf over text the caller keeps alive, so a resident
/// source feeds the chunked reader without first being copied into a
/// stringstream.
class TextViewBuf final : public std::streambuf {
 public:
  explicit TextViewBuf(std::string_view text) noexcept : text_(text) {}

 protected:
  std::streamsize xsgetn(char* out, std::streamsize n) override {
    const std::size_t k = std::min(static_cast<std::size_t>(n), text_.size() - pos_);
    std::memcpy(out, text_.data() + pos_, k);
    pos_ += k;
    return static_cast<std::streamsize>(k);
  }
  int_type underflow() override {
    return pos_ < text_.size() ? traits_type::to_int_type(text_[pos_]) : traits_type::eof();
  }
  int_type uflow() override {
    const int_type c = underflow();
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++pos_;
    return c;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

struct TextStream {
  explicit TextStream(std::string_view text) : buf(text) {}
  TextViewBuf buf;
  std::istream in{&buf};
};

}  // namespace

IngestResult ingest_corpus(const loggen::Corpus& corpus, const IngestOptions& options) {
  std::deque<TextStream> streams;  // a deque never moves its elements
  std::vector<SourceStream> sources;
  for (std::size_t i = 0; i < logmodel::kLogSourceCount; ++i) {
    if (corpus.text[i].empty()) continue;
    sources.push_back({static_cast<LogSource>(i), &streams.emplace_back(corpus.text[i]).in});
  }
  return ingest_stream(corpus, sources, options);
}

IngestResult ingest_files(const std::string& dir, const IngestOptions& options) {
  namespace fs = std::filesystem;
  const loggen::Corpus header = loggen::read_corpus_header(dir);

  std::vector<std::ifstream> files;
  std::vector<SourceStream> sources;
  files.reserve(logmodel::kLogSourceCount);
  sources.reserve(logmodel::kLogSourceCount);
  for (std::size_t i = 0; i < logmodel::kLogSourceCount; ++i) {
    const auto source = static_cast<LogSource>(i);
    const fs::path path = fs::path(dir) / loggen::source_file_name(source);
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      // Absent source (e.g. no ERD on S5): never invisible, optionally fatal.
      if (util::MetricsRegistry* reg = util::metrics()) {
        reg->counter("hpcfail.ingest.files_missing").increment();
      }
      if (options.missing_file_policy == MissingFilePolicy::Error) {
        IngestResult out;
        out.system = header.system;
        out.topology = platform::Topology{header.system.topology};
        out.begin = header.begin;
        out.days = header.days;
        out.error = IngestError{IngestErrorKind::MissingFile, source, path.string(), 0,
                                "source file is absent and missing_file_policy is Error"};
        return out;
      }
      continue;
    }
    files.push_back(std::move(file));
    sources.push_back(SourceStream{source, &files.back()});
  }
  IngestResult out = ingest_stream(header, sources, options);
  if (out.error && out.error->file.empty()) {
    out.error->file = (fs::path(dir) / loggen::source_file_name(out.error->source)).string();
  }
  return out;
}

}  // namespace hpcfail::parsers
