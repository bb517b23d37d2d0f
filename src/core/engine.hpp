// The unified analysis facade: one call runs the paper's whole holistic
// pipeline over a parsed corpus and returns every headline result.
//
//   AnalysisEngine engine;                       // default AnalysisConfig
//   core::AnalysisResult r = engine.analyze(parsed);
//   // r.failures, r.breakdown, r.lead_time_summary, r.clusters, r.nvf ...
//
// The engine builds one AnalysisContext (memoized detection + diagnosis +
// joins, see analysis_context.hpp) and runs five fixed analyzer stages
// against it, each filling its AnalysisResult sections.  Per-failure
// stages (root-cause evidence collection, lead-time attribution) shard over
// `AnalysisConfig::pool` with deterministic index-ordered assembly — an
// engine run with N threads is byte-identical to the serial run.
#pragma once

#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/analysis_context.hpp"
#include "core/benign_faults.hpp"
#include "core/clusters.hpp"
#include "core/external_correlator.hpp"
#include "core/failure_detector.hpp"
#include "core/leadtime.hpp"
#include "core/report.hpp"
#include "core/root_cause.hpp"

namespace hpcfail::parsers {
struct ParsedCorpus;
}  // namespace hpcfail::parsers

namespace hpcfail::core {

struct AnalysisConfig {
  DetectorConfig detector;
  RootCauseConfig root_cause;
  LeadTimeConfig lead_time;
  CorrelatorConfig correlator;
  /// Consecutive failures closer than this form one spatio-temporal cluster.
  util::Duration cluster_gap = util::Duration::minutes(30);
  /// When non-null the per-failure stages shard over this pool; results
  /// are assembled index-ordered, byte-identical to the serial path.
  util::ThreadPool* pool = nullptr;
};

/// Everything one engine run produces.  Indexes in `lead_times` and
/// `clusters` refer to `failures`.
struct AnalysisResult {
  util::TimePoint begin;
  util::TimePoint end;

  // Detection + diagnosis (Sections III-A/E/F).
  std::vector<AnalyzedFailure> failures;
  std::vector<SwoCluster> swos;
  std::size_t intended_shutdowns_excluded = 0;

  // Root-cause aggregates (Fig 16, Table IV, the S3 layer split).
  CauseBreakdown breakdown;
  LayerShares layers;
  std::vector<ModuleUsage> module_usage;

  // Lead times (Section III-D, Fig 13).
  std::vector<FailureLeadTime> lead_times;
  LeadTimeSummary lead_time_summary;

  // External correspondence (Section III-B, Figs 5-6).
  FaultCorrespondence nvf;
  FaultCorrespondence nhf;
  NhfBreakdown nhf_breakdown;

  // Benign-fault population (Section III-C, Fig 8) and HSN health.
  SedcPopulation sedc;
  BenignFaultAnalyzer::InterconnectSummary interconnect;

  // Spatio-temporal clusters (Observations 1 and 8).
  std::vector<FailureCluster> clusters;
  ClusterSummary cluster_summary;
};

class AnalysisEngine {
 public:
  explicit AnalysisEngine(AnalysisConfig config = {}) : config_(std::move(config)) {}

  /// The analyzer stages in execution order.  Each runs under the trace
  /// span "hpcfail.engine.analyzer_" + trace_name_segment(name).
  [[nodiscard]] static std::span<const std::string_view> analyzer_names() noexcept;

  [[nodiscard]] const AnalysisConfig& config() const noexcept { return config_; }

  /// Analyzes `store` over [begin, end): builds the context once, runs
  /// every analyzer.  Throws std::logic_error on a non-finalized store.
  [[nodiscard]] AnalysisResult analyze(const logmodel::LogStore& store,
                                       const jobs::JobTable* jobs,
                                       util::TimePoint begin,
                                       util::TimePoint end) const;

  /// Analyzes a parsed corpus over its full time extent.
  [[nodiscard]] AnalysisResult analyze(const parsers::ParsedCorpus& parsed) const;

 private:
  AnalysisConfig config_;
};

}  // namespace hpcfail::core
