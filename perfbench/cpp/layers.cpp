#include "layers.hpp"

#include <filesystem>

#include "core/engine.hpp"
#include "core/markdown_report.hpp"

namespace perfbench {

using namespace hpcfail;

faultsim::SimulationResult simulate(platform::SystemName system, int days,
                                    std::uint64_t seed) {
  Tracer::Scope span("faultsim.run");
  faultsim::SimulationResult sim =
      faultsim::Simulator(faultsim::scenario_preset(system, days, seed)).run();
  span.set_items(sim.records.size());
  return sim;
}

loggen::Corpus render(const faultsim::SimulationResult& sim) {
  Tracer::Scope span("loggen.build_corpus");
  loggen::Corpus corpus = loggen::build_corpus(sim);
  span.set_bytes(corpus.bytes());
  return corpus;
}

void write(const loggen::Corpus& corpus, const std::string& dir) {
  Tracer::Scope span("loggen.write_corpus");
  loggen::write_corpus(corpus, dir);
  span.set_bytes(corpus.bytes());
}

parsers::IngestResult ingest(const std::string& dir, std::uint64_t corpus_bytes,
                             const parsers::IngestOptions& options, Results& results) {
  parsers::IngestResult parsed;
  {
    Tracer::Scope span("parsers.ingest_files");
    parsed = parsers::ingest_files(dir, options);
    span.set_items(parsed.parsed_records);
    span.set_bytes(corpus_bytes);
  }
  results.check(parsed.ok(), "ingest_files(" + dir + "): " +
                                 (parsed.ok() ? std::string() : parsed.error->to_string()));
  results.check(parsed.parsed_records + parsed.skipped_lines == parsed.total_lines,
                "ingest_files(" + dir + "): parsed + skipped != total lines");
  return parsed;
}

std::size_t analyze(const parsers::ParsedCorpus& parsed) {
  Tracer::Scope span("core.analyze");
  const std::size_t failures = core::AnalysisEngine().analyze(parsed).failures.size();
  span.set_items(failures);
  return failures;
}

std::string report(const parsers::ParsedCorpus& parsed) {
  Tracer::Scope span("core.markdown_report");
  core::ReportInputs inputs;
  inputs.store = &parsed.store;
  inputs.jobs = &parsed.jobs;
  inputs.topology = &parsed.topology;
  inputs.system_label = parsed.system.label;
  inputs.begin = parsed.begin;
  inputs.end = parsed.begin + util::Duration::days(parsed.days);
  std::string text = core::markdown_report(inputs);
  span.set_bytes(text.size());
  return text;
}

void save(const parsers::ParsedCorpus& parsed, const std::string& path, Results& results) {
  Tracer::Scope span("parsers.save_snapshot");
  const auto error = parsers::save_snapshot(parsed, path);
  results.check(!error.has_value(),
                "save_snapshot(" + path + "): " + (error ? error->to_string() : std::string()));
  if (!error) span.set_bytes(std::filesystem::file_size(path));
}

parsers::SnapshotLoadResult load(const std::string& path, Results& results) {
  parsers::SnapshotLoadResult loaded;
  {
    Tracer::Scope span("parsers.load_snapshot");
    loaded = parsers::load_snapshot(path);
    span.set_items(loaded.parsed_records);
    if (loaded.ok()) span.set_bytes(std::filesystem::file_size(path));
  }
  results.check(loaded.ok(), "load_snapshot(" + path + "): " +
                                 (loaded.ok() ? std::string() : loaded.error->to_string()));
  results.check(loaded.parsed_records + loaded.skipped_lines == loaded.total_lines,
                "load_snapshot(" + path + "): parsed + skipped != total lines");
  return loaded;
}

void note_ingest(const parsers::ParsedCorpus& parsed, const std::string& suffix,
                 Results& results) {
  results.set("parsers.records" + suffix, static_cast<double>(parsed.parsed_records));
  results.set("parsers.skipped_lines" + suffix, static_cast<double>(parsed.skipped_lines));
  results.set("parsers.total_lines" + suffix, static_cast<double>(parsed.total_lines));
}

}  // namespace perfbench
