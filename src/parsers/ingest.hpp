#pragma once
// Corpus ingestion: raw text of every source -> finalized LogStore +
// JobTable, through one chunked, bounded-memory pipeline.  On-disk corpora
// (ingest_files), open streams (ingest_stream) and resident in-memory
// corpora (ingest_corpus, which views each source string as a stream
// without copying it) all run the same driver.
//
// The pipeline per non-scheduler source:
//
//   ChunkedLineReader --chunk--> ThreadPool parse task --records--> append
//
// The reader hands out fixed-size chunks split on line boundaries; up to
// `max_inflight_chunks` chunks are being parsed concurrently while the
// next one is read (read -> parse pipelining); parsed chunks are retired
// in submission order, so the record sequence appended to the store is
// exactly the file's line order, sources in kParallelOrder.  Each retired
// chunk's SymbolTable is absorbed into the run's table at retirement, so
// Symbol ids are the same for any thread count.  Peak text residency is
// chunk_bytes x (inflight + 1) instead of the corpus size.
//
// The scheduler source is parsed sequentially (its lines mutate the
// JobTable in order) but still streams chunk by chunk.  LogStore's
// constructor then sorts the appended sequence stably by time.
//
// Error surface: malformed *lines* are skipped and counted (never fatal),
// but *stream-level* failures — an I/O error mid-file, an allocation
// failure mid-pipeline, a missing source file under MissingFilePolicy::
// Error — stop the run and surface as a structured IngestError on the
// returned IngestResult, alongside the record-accurate partial store built
// from everything retired before the failure.  Configuration mistakes
// (missing/malformed manifest) still throw: they mean there is no corpus,
// not a damaged one.  The `ingest.*` fault sites (util/fault.hpp) let the
// sweep in tests/faultinject_test.cpp provoke every degraded ending.
//
// The serial reference this driver is checked against — split the text
// into lines, parse them in order, stable_sort — lives in
// tests/support/parse_oracle.hpp; tests/ingest_test.cpp pins the two to
// identical records, indexes and line counts across chunk geometries and
// thread counts.

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "jobs/job_table.hpp"
#include "loggen/corpus.hpp"
#include "logmodel/log_store.hpp"
#include "parsers/source_parsers.hpp"
#include "platform/topology.hpp"
#include "util/thread_pool.hpp"

namespace hpcfail::parsers {

struct ParsedCorpus {
  platform::SystemConfig system;
  platform::Topology topology;
  logmodel::LogStore store;
  jobs::JobTable jobs;
  util::TimePoint begin;  ///< log window start, from the manifest
  int days = 0;           ///< log window length, from the manifest
  std::size_t total_lines = 0;
  std::size_t parsed_records = 0;
  std::size_t skipped_lines = 0;  ///< malformed or not fault-relevant
};

/// What to do when a per-source log file named by the manifest layout is
/// absent from the corpus directory.
enum class MissingFilePolicy {
  /// Skip the source, like read_corpus (S5 legitimately has no external
  /// logs) — but count it in `hpcfail.ingest.files_missing` so the skip is
  /// no longer invisible.
  Skip,
  /// Stop and report IngestErrorKind::MissingFile.
  Error,
};

struct IngestOptions {
  /// Target chunk size in bytes; a chunk grows past this only when a
  /// single line is longer.  256 KiB keeps the in-flight buffers a small
  /// fraction of peak RSS at no measurable throughput cost.
  std::size_t chunk_bytes = std::size_t{1} << 18;
  /// Chunks parsed concurrently per source; 0 means 2 x pool size.
  std::size_t max_inflight_chunks = 0;
  /// Pool for chunk parsing; null = shared default pool.  A 1-thread pool
  /// parses fully serially.
  util::ThreadPool* pool = nullptr;
  /// Absent source files: skip-with-metric (default) or structured error.
  MissingFilePolicy missing_file_policy = MissingFilePolicy::Skip;
};

/// One open source stream; `in` must outlive the ingest call.
struct SourceStream {
  logmodel::LogSource source;
  std::istream* in = nullptr;
};

enum class IngestErrorKind {
  StreamIo,     ///< the stream reported badbit/failbit that is not EOF
  Resource,     ///< std::bad_alloc mid-pipeline (parse, retire, or merge)
  MissingFile,  ///< a source file is absent and missing_file_policy == Error
};

[[nodiscard]] std::string_view to_string(IngestErrorKind kind) noexcept;

/// Structured description of why an ingest run stopped early.
struct IngestError {
  IngestErrorKind kind = IngestErrorKind::StreamIo;
  logmodel::LogSource source = logmodel::LogSource::Console;
  std::string file;             ///< on-disk file, when ingesting a directory
  std::size_t byte_offset = 0;  ///< stream offset where detected (StreamIo)
  std::string message;

  /// "<kind> in <source> (<file>, offset N): <message>" one-liner.
  [[nodiscard]] std::string to_string() const;
};

/// ParsedCorpus plus the explicit error surface.  When `error` is set the
/// base holds the record-accurate partial result: every record retired
/// before the failure, finalized and queryable, with total_lines /
/// parsed_records / skipped_lines accounting for every line seen.
struct IngestResult : ParsedCorpus {
  std::optional<IngestError> error;

  [[nodiscard]] bool ok() const noexcept { return !error.has_value(); }
};

/// Streams a corpus directory (manifest.txt + per-source log files, as
/// written by loggen::write_corpus).  Absent source files follow
/// options.missing_file_policy.  Throws on a missing/malformed manifest;
/// data-plane failures come back as IngestResult::error.
[[nodiscard]] IngestResult ingest_files(const std::string& dir,
                                        const IngestOptions& options = {});

/// Ingests a resident corpus (e.g. loggen::build_corpus output) through
/// the same pipeline, reading each non-empty source string in place.  The
/// corpus's manifest fields set the system, topology and window.
[[nodiscard]] IngestResult ingest_corpus(const loggen::Corpus& corpus,
                                         const IngestOptions& options = {});

/// Lower-level entry: `header` carries the manifest fields (system,
/// topology, window); `sources` are parsed in the canonical source order
/// regardless of their order in the vector.
[[nodiscard]] IngestResult ingest_stream(const loggen::Corpus& header,
                                         const std::vector<SourceStream>& sources,
                                         const IngestOptions& options = {});

/// The stateless per-line parser the parallel path uses for `source`
/// (nullptr for LogSource::Scheduler, which is stateful).
using LineParseFn = std::optional<logmodel::LogRecord> (*)(std::string_view,
                                                           const ParseContext&);
[[nodiscard]] LineParseFn line_parser_for(logmodel::LogSource source) noexcept;

}  // namespace hpcfail::parsers
