// Traced wrappers around the hpcfail public calls every workload makes.
// Each opens one span named after the layer call (faultsim.run,
// loggen.build_corpus, ...), records the work it did, and — for calls with
// a structured error surface — counts the result in the check ledger.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"
#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/ingest.hpp"
#include "parsers/snapshot.hpp"

namespace perfbench {

[[nodiscard]] hpcfail::faultsim::SimulationResult simulate(hpcfail::platform::SystemName system,
                                                           int days, std::uint64_t seed);

[[nodiscard]] hpcfail::loggen::Corpus render(const hpcfail::faultsim::SimulationResult& sim);

void write(const hpcfail::loggen::Corpus& corpus, const std::string& dir);

/// ingest_files; checks a structured success and parsed + skipped == total.
[[nodiscard]] hpcfail::parsers::IngestResult ingest(
    const std::string& dir, std::uint64_t corpus_bytes,
    const hpcfail::parsers::IngestOptions& options, Results& results);

/// AnalysisEngine::analyze over the whole corpus; returns the failure count.
[[nodiscard]] std::size_t analyze(const hpcfail::parsers::ParsedCorpus& parsed);

/// markdown_report over the corpus window.
[[nodiscard]] std::string report(const hpcfail::parsers::ParsedCorpus& parsed);

void save(const hpcfail::parsers::ParsedCorpus& parsed, const std::string& path,
          Results& results);

/// load_snapshot; checks a structured success and parsed + skipped == total.
[[nodiscard]] hpcfail::parsers::SnapshotLoadResult load(const std::string& path,
                                                        Results& results);

/// Records the line accounting of one ingest as values "<name><suffix>".
void note_ingest(const hpcfail::parsers::ParsedCorpus& parsed, const std::string& suffix,
                 Results& results);

}  // namespace perfbench
