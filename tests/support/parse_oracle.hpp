// Reference parser for the ingest equivalence and fault-sweep tests.
//
// This is the simplest correct way to turn a resident corpus into a
// ParsedCorpus: split each source into lines with util::split_lines, parse
// them in order on one thread into one SymbolTable (stateless sources in
// the pipeline's fixed source order, then the stateful scheduler log),
// and std::stable_sort the records by time.  It has no chunks, no pool and
// no run merge, so a record-for-record match against parsers::ingest_*
// checks the pipeline's chunking, FIFO retirement, symbol absorption and
// LogStore's merge sort at once.  Test-only: production code must not
// include this.
#pragma once

#include "loggen/corpus.hpp"
#include "parsers/ingest.hpp"

namespace hpcfail::oracle {

/// The ParsedCorpus every ingest entry point must produce for `corpus`.
[[nodiscard]] parsers::ParsedCorpus reference_parse(const loggen::Corpus& corpus);

}  // namespace hpcfail::oracle
