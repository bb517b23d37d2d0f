// One-call operator report: everything the pipeline knows about a log
// window, rendered as Markdown — failure breakdown, temporal and external
// correlation statistics, lead times, fleet availability and per-failure
// mitigation advice.  This is the artifact a site operator would attach to
// a weekly review; corpus_tool's `report` subcommand writes it.
#pragma once

#include <string>

#include "core/root_cause.hpp"
#include "jobs/job_table.hpp"
#include "logmodel/log_store.hpp"
#include "platform/topology.hpp"

namespace hpcfail::core {

struct AnalysisResult;

struct ReportInputs {
  const logmodel::LogStore* store = nullptr;
  const jobs::JobTable* jobs = nullptr;         ///< may be null
  const platform::Topology* topology = nullptr;
  std::string system_label = "?";
  util::TimePoint begin;
  util::TimePoint end;
};

/// Renders the report from `analysis`, an AnalysisEngine run over exactly
/// the inputs' store, jobs and [begin, end) window.
[[nodiscard]] std::string markdown_report(const ReportInputs& inputs,
                                          const AnalysisResult& analysis);

/// Runs the full analysis over the inputs, then renders the report.
[[nodiscard]] std::string markdown_report(const ReportInputs& inputs);

}  // namespace hpcfail::core
