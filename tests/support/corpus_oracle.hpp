// Reference renderer for the corpus differential test.
//
// This is the line-at-a-time render path that src/loggen replaced: every
// line is built as its own std::string from snprintf-formatted timestamps,
// digits and node lists, collected with its time, stable-sorted as whole
// lines and concatenated.  It is slow and simple on purpose, and shares no
// formatting code with src/loggen or the util appenders, so a byte-for-byte
// match against build_corpus checks the fast path's order and every field.
// Test-only: production code must not include this.
#pragma once

#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"

namespace hpcfail::oracle {

/// The corpus build_corpus must produce for `sim`, rendered the slow way.
[[nodiscard]] loggen::Corpus reference_corpus(const faultsim::SimulationResult& sim);

}  // namespace hpcfail::oracle
