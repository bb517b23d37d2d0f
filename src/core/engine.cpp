#include "core/engine.hpp"

#include "parsers/ingest.hpp"
#include "util/trace.hpp"

namespace hpcfail::core {

namespace {

constexpr std::string_view kAnalyzerNames[] = {
    "cause-aggregates", "lead-times", "external-correlation", "benign-faults", "clusters",
};

}  // namespace

std::span<const std::string_view> AnalysisEngine::analyzer_names() noexcept {
  return kAnalyzerNames;
}

AnalysisResult AnalysisEngine::analyze(const logmodel::LogStore& store,
                                       const jobs::JobTable* jobs,
                                       util::TimePoint begin, util::TimePoint end) const {
  util::TraceSpan run_span("hpcfail.engine.run");
  const AnalysisContext ctx(store, jobs, begin, end, config_.detector,
                            config_.root_cause, config_.pool);
  AnalysisResult out;
  out.begin = begin;
  out.end = end;
  out.failures = ctx.failures();
  out.swos = ctx.detection().swos;
  out.intended_shutdowns_excluded = ctx.detection().intended_shutdowns_excluded;
  // The stages run in dependency order: the first four read only context
  // state; clusters read the failures already copied into the result.
  {
    util::TraceSpan span("hpcfail.engine.analyzer_cause_aggregates");
    out.breakdown = cause_breakdown(ctx.failures());
    out.layers = layer_shares(ctx.failures());
    out.module_usage = stack_module_usage(ctx.failures());
  }
  {
    util::TraceSpan span("hpcfail.engine.analyzer_lead_times");
    const LeadTimeAnalyzer analyzer(ctx.store(), config_.lead_time);
    out.lead_times = analyzer.lead_times(ctx.failures(), config_.pool);
    out.lead_time_summary = LeadTimeAnalyzer::summarize_lead_times(out.lead_times);
  }
  {
    util::TraceSpan span("hpcfail.engine.analyzer_external_correlation");
    const ExternalCorrelator correlator(ctx.store(), ctx.failures(), config_.correlator);
    out.nvf = correlator.correspondence(logmodel::EventType::NodeVoltageFault,
                                        ctx.begin(), ctx.end());
    out.nhf = correlator.correspondence(logmodel::EventType::NodeHeartbeatFault,
                                        ctx.begin(), ctx.end());
    out.nhf_breakdown = correlator.nhf_breakdown(ctx.begin(), ctx.end());
  }
  {
    util::TraceSpan span("hpcfail.engine.analyzer_benign_faults");
    const BenignFaultAnalyzer benign(ctx.store());
    out.sedc = benign.sedc_population(ctx.begin(), ctx.end());
    out.interconnect = benign.interconnect_summary(ctx.begin(), ctx.end(), ctx.failures());
  }
  {
    util::TraceSpan span("hpcfail.engine.analyzer_clusters");
    out.clusters = cluster_failures(ctx.failures(), config_.cluster_gap);
    out.cluster_summary = summarize_clusters(out.clusters);
  }
  return out;
}

AnalysisResult AnalysisEngine::analyze(const parsers::ParsedCorpus& parsed) const {
  // Full extent of the corpus: [first, last] inclusive, so the window end
  // sits one tick past the last record ([begin, end) semantics everywhere).
  const auto& store = parsed.store;
  const util::TimePoint begin = store.first_time();
  const util::TimePoint end =
      store.size() ? store.last_time() + util::Duration::microseconds(1)
                   : store.first_time();
  return analyze(store, &parsed.jobs, begin, end);
}

}  // namespace hpcfail::core
