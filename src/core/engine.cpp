#include "core/engine.hpp"

#include "parsers/ingest.hpp"
#include "util/trace.hpp"

namespace hpcfail::core {

AnalysisEngine::AnalysisEngine(AnalysisConfig config) : config_(std::move(config)) {
  // Built-in analyzers, in dependency order: aggregates/lead-times/external
  // read only context state; clusters read the failures already copied into
  // the result.  Extension stages registered later see everything below.
  analyzers_.emplace_back(
      "cause-aggregates", [](const AnalysisContext& ctx, AnalysisResult& out) {
        out.breakdown = cause_breakdown(ctx.failures());
        out.layers = layer_shares(ctx.failures());
        out.module_usage = stack_module_usage(ctx.failures());
      });
  analyzers_.emplace_back(
      "lead-times", [this](const AnalysisContext& ctx, AnalysisResult& out) {
        const LeadTimeAnalyzer analyzer(ctx.store(), config_.lead_time);
        out.lead_times = analyzer.lead_times(ctx.failures(), config_.pool);
        out.lead_time_summary = LeadTimeAnalyzer::summarize_lead_times(out.lead_times);
      });
  analyzers_.emplace_back(
      "external-correlation", [this](const AnalysisContext& ctx, AnalysisResult& out) {
        const ExternalCorrelator correlator(ctx.store(), ctx.failures(),
                                            config_.correlator);
        out.nvf = correlator.correspondence(logmodel::EventType::NodeVoltageFault,
                                            ctx.begin(), ctx.end());
        out.nhf = correlator.correspondence(logmodel::EventType::NodeHeartbeatFault,
                                            ctx.begin(), ctx.end());
        out.nhf_breakdown = correlator.nhf_breakdown(ctx.begin(), ctx.end());
      });
  analyzers_.emplace_back(
      "benign-faults", [](const AnalysisContext& ctx, AnalysisResult& out) {
        const BenignFaultAnalyzer benign(ctx.store());
        out.sedc = benign.sedc_population(ctx.begin(), ctx.end());
        out.interconnect =
            benign.interconnect_summary(ctx.begin(), ctx.end(), ctx.failures());
      });
  analyzers_.emplace_back(
      "clusters", [this](const AnalysisContext& ctx, AnalysisResult& out) {
        out.clusters = cluster_failures(ctx.failures(), config_.cluster_gap);
        out.cluster_summary = summarize_clusters(out.clusters);
      });
}

void AnalysisEngine::register_analyzer(std::string name, Analyzer fn) {
  analyzers_.emplace_back(std::move(name), std::move(fn));
}

std::vector<std::string> AnalysisEngine::analyzer_names() const {
  std::vector<std::string> out;
  out.reserve(analyzers_.size());
  for (const auto& [name, fn] : analyzers_) out.push_back(name);
  return out;
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
  for (const auto& [name, fn] : analyzers_) {
    util::TraceSpan span("hpcfail.engine.analyzer_" + util::trace_name_segment(name));
    fn(ctx, out);
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
