#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/markdown_report.hpp"
#include "parsers/ingest.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace hpcfail::serve {

namespace {

/// Request latency bucket edges in microseconds: a cached query answers
/// in single-digit µs, a first query per epoch waits for the engine run.
const std::vector<double>& latency_bounds() {
  static const std::vector<double> bounds = {
      1,    2,    5,     10,    25,    50,     100,    250,    500,
      1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000};
  return bounds;
}

}  // namespace

Server::Server(parsers::ParsedCorpus corpus, ServerConfig config)
    : config_(config),
      topology_(std::move(corpus.topology)),
      jobs_(std::move(corpus.jobs)),
      label_(corpus.system.label),
      corpus_begin_(corpus.begin) {
  util::TraceSpan span("hpcfail.serve.boot");
  parse_ctx_.topo = &topology_;
  const util::CivilTime civil = util::civil_time(corpus_begin_);
  parse_ctx_.base_year = civil.year;
  parse_ctx_.base_month = civil.month;

  auto epoch = std::make_shared<Epoch>();
  epoch->id = 0;
  epoch->store = std::move(corpus.store);
  window_of(epoch->store, epoch->begin, epoch->end);

  // Replay the boot corpus through the monitor so node health covers
  // history, not just the tail.
  boot_alerts_ = monitor_.ingest_all(epoch->store);
  for (const core::Alert& alert : boot_alerts_) apply_alert(alert, health_);
  monitor_watermark_ =
      epoch->store.size() == 0 ? corpus_begin_ : epoch->store.last_time();
  epoch->health = health_;

  publish(std::move(epoch), bind_instruments());
}

void Server::attach_tail(std::string path, logmodel::LogSource source,
                         std::uint64_t offset) {
  parsers::LineParseFn parse = parsers::line_parser_for(source);
  if (parse == nullptr) {
    throw std::invalid_argument(
        "Server::attach_tail: source '" + std::string(logmodel::to_string(source)) +
        "' has no stateless line parser (scheduler logs are not tailable)");
  }
  tails_.push_back(AttachedTail{TailReader(std::move(path), source, offset), parse});
}

Server::TailPoll Server::poll_tail() {
  util::TraceSpan span("hpcfail.serve.tail_poll");
  const Instruments& m = instruments();
  if (m.tail_polls != nullptr) m.tail_polls->increment();

  TailPoll out;
  const std::shared_ptr<Epoch> snap = current();

  logmodel::SymbolTable scratch;
  parsers::ParseContext ctx = parse_ctx_;
  ctx.symbols = &scratch;

  // (record, resolved detail text) in arrival order across the tails.
  std::vector<std::pair<logmodel::LogRecord, std::string>> fresh;
  for (AttachedTail& tail : tails_) {
    TailReader::Poll poll = tail.reader.poll();
    if (!poll.ok()) {
      if (m.tail_errors != nullptr) m.tail_errors->increment();
      if (!out.error.has_value()) out.error = poll.error;
      continue;  // offset did not advance; the next poll retries this tail
    }
    for (const std::string& line : poll.lines) {
      ++out.lines;
      if (line.empty()) continue;
      if (const auto record = tail.parse(line, ctx)) {
        fresh.emplace_back(*record, std::string(scratch.view(record->detail)));
      }
    }
  }
  out.records = fresh.size();
  if (m.tail_lines != nullptr) {
    m.tail_lines->add(out.lines);
    m.tail_records->add(out.records);
  }
  if (fresh.empty()) return out;

  // Build the next epoch: a grown copy of the previous symbols (ids are
  // preserved, so old records stay resolvable) with the fresh tail records
  // interned into it, spliced onto the previous store.  LogStore::appended
  // re-sorts and re-indexes only the suffix the fresh records overlap, so
  // a tail whose times interleave another source's history still lands in
  // time order.
  auto next = std::make_shared<Epoch>();
  next->id = snap->id + 1;
  logmodel::SymbolTable symbols = snap->store.symbols();
  std::vector<logmodel::LogRecord> records;
  records.reserve(fresh.size());
  for (const auto& [record, detail] : fresh) {
    logmodel::LogRecord r = record;
    r.detail = symbols.intern(detail);
    records.push_back(r);
  }
  next->store =
      logmodel::LogStore::appended(snap->store, std::move(records), std::move(symbols));
  window_of(next->store, next->begin, next->end);
  next->tail_records = snap->tail_records + fresh.size();

  // Feed the monitor in arrival order.  It requires non-decreasing times;
  // a tail record older than the watermark (its times interleave another
  // source's already-replayed history) is analyzable but not monitorable.
  for (const auto& [record, detail] : fresh) {
    if (record.time < monitor_watermark_) {
      if (m.monitor_skipped != nullptr) m.monitor_skipped->increment();
      continue;
    }
    monitor_watermark_ = record.time;
    for (core::Alert& alert : monitor_.ingest(record, detail)) {
      apply_alert(alert, health_);
      out.alerts.push_back(std::move(alert));
    }
  }
  next->health = health_;

  publish(std::move(next), m);
  return out;
}

std::string Server::handle_line(std::string_view line) {
  util::TraceSpan span("hpcfail.serve.request");
  const Instruments& m = instruments();
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start =
      m.requests != nullptr ? Clock::now() : Clock::time_point{};
  if (m.requests != nullptr) m.requests->increment();

  const auto finish = [&m, start](std::string response, bool error) {
    if (m.requests != nullptr) {
      if (error) m.request_errors->increment();
      m.request_latency_us->observe(
          std::chrono::duration<double, std::micro>(Clock::now() - start).count());
    }
    return response;
  };

  RequestParse parsed = parse_request(line);
  if (!parsed.ok()) {
    return finish(error_response(parsed.id, parsed.error, parsed.message), true);
  }
  const Request& req = *parsed.request;
  const std::shared_ptr<Epoch> snap = current();

  std::string data;
  std::string bad_params;
  try {
    if (req.verb == "ping") {
      data = data_ping();
    } else if (req.verb == "status") {
      data = data_status(*snap);
    } else if (req.verb == "node_health") {
      data = data_node_health(*snap, req.params, bad_params);
    } else if (req.verb == "lead_time") {
      data = data_lead_time(analysis_of(*snap, m));
    } else if (req.verb == "causes") {
      data = data_causes(analysis_of(*snap, m));
    } else if (req.verb == "report") {
      data = data_report(*snap, analysis_of(*snap, m), req.params, bad_params);
    } else if (req.verb == "metrics") {
      data = data_metrics();
    } else {  // "shutdown" — parse_request only admits table verbs
      data = data_shutdown();
    }
  } catch (const std::exception& e) {
    return finish(error_response(req.id, ProtocolErrorKind::Internal, e.what()), true);
  }
  if (!bad_params.empty()) {
    return finish(error_response(req.id, ProtocolErrorKind::BadParams, bad_params),
                  true);
  }
  return finish(ok_response(req.id, req.verb, snap->id, data), false);
}

std::uint64_t Server::epoch() const noexcept { return current()->id; }

const Server::Instruments& Server::instruments() {
  const Instruments* bound = bound_.load(std::memory_order_acquire);
  if (bound->generation == util::metrics_generation()) return *bound;
  return bind_instruments();
}

const Server::Instruments& Server::bind_instruments() {
  const std::scoped_lock lock(bind_mutex_);
  // Generation first, registry second (as ThreadPool::bound_instruments):
  // an install between the two loads leaves a current registry under a
  // stale generation, so the next request simply rebinds.  The reverse
  // order could cache a dead registry's instruments under the new
  // generation.
  const std::uint64_t generation = util::metrics_generation();
  const Instruments* bound = bound_.load(std::memory_order_relaxed);
  if (bound != nullptr && bound->generation == generation) return *bound;

  auto next = std::make_unique<Instruments>();
  next->generation = generation;
  if (util::MetricsRegistry* reg = util::metrics()) {
    next->requests = &reg->counter("hpcfail.serve.requests");
    next->request_errors = &reg->counter("hpcfail.serve.request_errors");
    next->request_latency_us =
        &reg->histogram("hpcfail.serve.request_latency_us", latency_bounds());
    next->analysis_recomputes = &reg->counter("hpcfail.serve.analysis_recomputes");
    next->cache_hits = &reg->counter("hpcfail.serve.cache_hits");
    next->tail_polls = &reg->counter("hpcfail.serve.tail_polls");
    next->tail_lines = &reg->counter("hpcfail.serve.tail_lines");
    next->tail_records = &reg->counter("hpcfail.serve.tail_records");
    next->monitor_skipped = &reg->counter("hpcfail.serve.monitor_skipped");
    next->tail_errors = &reg->counter("hpcfail.serve.tail_errors");
    next->epoch = &reg->gauge("hpcfail.serve.epoch");
  }
  bound_.store(next.get(), std::memory_order_release);
  bindings_.push_back(std::move(next));
  return *bindings_.back();
}

std::shared_ptr<Server::Epoch> Server::current() const {
  const std::scoped_lock lock(epoch_mutex_);
  return epoch_;
}

void Server::publish(std::shared_ptr<Epoch> next, const Instruments& m) {
  if (m.epoch != nullptr) m.epoch->set(static_cast<std::int64_t>(next->id));
  const std::scoped_lock lock(epoch_mutex_);
  epoch_ = std::move(next);
}

const core::AnalysisResult& Server::analysis_of(Epoch& epoch, const Instruments& m) {
  bool computed = false;
  std::call_once(epoch.once, [this, &epoch, &computed, &m] {
    computed = true;
    util::TraceSpan span("hpcfail.serve.analyze_epoch");
    epoch.analysis = std::make_shared<const core::AnalysisResult>(
        core::AnalysisEngine().analyze(epoch.store, &jobs_, epoch.begin, epoch.end));
    recomputes_.fetch_add(1, std::memory_order_relaxed);
    if (m.analysis_recomputes != nullptr) m.analysis_recomputes->increment();
  });
  if (!computed && m.cache_hits != nullptr) m.cache_hits->increment();
  return *epoch.analysis;
}

void Server::apply_alert(const core::Alert& alert,
                         std::unordered_map<std::uint32_t, NodeHealth>& health) {
  NodeHealth& node = health[alert.node.value];
  switch (alert.kind) {
    case core::AlertKind::PatternWarning:
    case core::AlertKind::ExternalEarlyWarning:
      ++node.warnings;
      break;
    case core::AlertKind::FailureConfirmed:
      ++node.failures;
      node.down = true;
      break;
    case core::AlertKind::NodeRecovered:
      ++node.recoveries;
      node.down = false;
      break;
  }
  node.has_alert = true;
  node.last = alert;
}

void Server::window_of(const logmodel::LogStore& store, util::TimePoint& begin,
                       util::TimePoint& end) const {
  if (store.size() == 0) {
    begin = corpus_begin_;
    end = corpus_begin_;
    return;
  }
  end = store.last_time() + util::Duration::microseconds(1);
  begin = store.first_time();
  if (end - begin > config_.window) begin = end - config_.window;
}

// --------------------------------------------------------------- handlers --

std::string Server::data_ping() const { return "{\"pong\":true}"; }

std::string Server::data_status(const Epoch& epoch) const {
  std::size_t down = 0;
  for (const auto& [id, node] : epoch.health) {
    if (node.down) ++down;
  }
  std::string out = "{\"analysis_recomputes\":";
  util::append_json_number(out, analysis_recomputes());
  out += ",\"epoch\":";
  util::append_json_number(out, epoch.id);
  out += ",\"nodes\":";
  util::append_json_number(out, static_cast<std::uint64_t>(epoch.store.nodes().size()));
  out += ",\"nodes_down\":";
  util::append_json_number(out, static_cast<std::uint64_t>(down));
  out += ",\"records\":";
  util::append_json_number(out, static_cast<std::uint64_t>(epoch.store.size()));
  out += ",\"system\":";
  util::append_json_string(out, label_);
  out += ",\"tail_records\":";
  util::append_json_number(out, static_cast<std::uint64_t>(epoch.tail_records));
  out += ",\"window_begin\":";
  util::append_json_string(out, util::format_iso(epoch.begin));
  out += ",\"window_end\":";
  util::append_json_string(out, util::format_iso(epoch.end));
  out += "}";
  return out;
}

std::string Server::data_node_health(const Epoch& epoch, const util::JsonValue& params,
                                     std::string& bad_params) const {
  const util::JsonValue* name = params.find("node");
  if (name == nullptr || !name->is_string()) {
    bad_params = "node_health needs params.node (string node name)";
    return {};
  }
  const std::optional<platform::NodeId> node =
      topology_.node_from_name(name->as_string());
  if (!node.has_value()) {
    bad_params = "unknown node name \"" + name->as_string() + "\"";
    return {};
  }

  const auto it = epoch.health.find(node->value);
  const NodeHealth* health = it == epoch.health.end() ? nullptr : &it->second;
  const std::size_t in_window =
      epoch.store.node_range(*node, epoch.begin, epoch.end).size();

  std::string out = "{\"down\":";
  out += (health != nullptr && health->down) ? "true" : "false";
  out += ",\"failures\":";
  util::append_json_number(out, health != nullptr ? health->failures : 0);
  out += ",\"last_alert\":";
  if (health != nullptr && health->has_alert) {
    out += "{\"kind\":";
    util::append_json_string(out, core::to_string(health->last.kind));
    out += ",\"message\":";
    util::append_json_string(out, health->last.message);
    out += ",\"suspected\":";
    util::append_json_string(out, logmodel::to_string(health->last.suspected));
    out += ",\"time\":";
    util::append_json_string(out, util::format_iso(health->last.time));
    out += "}";
  } else {
    out += "null";
  }
  out += ",\"node\":";
  util::append_json_string(out, name->as_string());
  out += ",\"records_in_window\":";
  util::append_json_number(out, static_cast<std::uint64_t>(in_window));
  out += ",\"recoveries\":";
  util::append_json_number(out, health != nullptr ? health->recoveries : 0);
  out += ",\"warnings\":";
  util::append_json_number(out, health != nullptr ? health->warnings : 0);
  out += "}";
  return out;
}

std::string Server::data_lead_time(const core::AnalysisResult& analysis) const {
  const core::LeadTimeSummary& s = analysis.lead_time_summary;
  std::string out = "{\"enhanceable\":";
  util::append_json_number(out, static_cast<std::uint64_t>(s.enhanceable));
  out += ",\"enhanceable_fraction\":";
  util::append_json_number(out, s.enhanceable_fraction());
  out += ",\"enhancement_factor\":";
  util::append_json_number(out, s.enhancement_factor());
  out += ",\"failures\":";
  util::append_json_number(out, static_cast<std::uint64_t>(s.failures));
  out += ",\"mean_external_minutes\":";
  util::append_json_number(out, s.external_minutes.mean());
  out += ",\"mean_internal_minutes\":";
  util::append_json_number(out, s.internal_minutes.mean());
  out += "}";
  return out;
}

std::string Server::data_causes(const core::AnalysisResult& analysis) const {
  // Cause names sorted alphabetically, every cause present (zero counts
  // included) so clients see a fixed schema.
  std::vector<std::pair<std::string_view, std::size_t>> counts;
  counts.reserve(logmodel::kRootCauseCount);
  for (std::size_t i = 0; i < logmodel::kRootCauseCount; ++i) {
    const auto cause = static_cast<logmodel::RootCause>(i);
    counts.emplace_back(logmodel::to_string(cause), analysis.breakdown.count(cause));
  }
  std::sort(counts.begin(), counts.end());

  std::string out = "{\"counts\":{";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i != 0) out += ",";
    util::append_json_string(out, counts[i].first);
    out += ":";
    util::append_json_number(out, static_cast<std::uint64_t>(counts[i].second));
  }
  out += "},\"layers\":{\"application\":";
  util::append_json_number(out, analysis.layers.application);
  out += ",\"application_triggered\":";
  util::append_json_number(out, analysis.layers.application_triggered);
  out += ",\"hardware\":";
  util::append_json_number(out, analysis.layers.hardware);
  out += ",\"memory_exhaustion\":";
  util::append_json_number(out, analysis.layers.memory_exhaustion);
  out += ",\"software\":";
  util::append_json_number(out, analysis.layers.software);
  out += ",\"unknown\":";
  util::append_json_number(out, analysis.layers.unknown);
  out += "},\"total\":";
  util::append_json_number(out, static_cast<std::uint64_t>(analysis.breakdown.total));
  out += "}";
  return out;
}

std::string Server::data_report(Epoch& epoch, const core::AnalysisResult& analysis,
                                const util::JsonValue& params, std::string& bad_params) {
  // Rendered on the first report query of the epoch, from the cached
  // engine run, so causes and lead_time never wait for the render.
  std::call_once(epoch.report_once, [this, &epoch, &analysis] {
    util::TraceSpan span("hpcfail.serve.render_report");
    core::ReportInputs inputs;
    inputs.store = &epoch.store;
    inputs.jobs = &jobs_;
    inputs.topology = &topology_;
    inputs.system_label = label_;
    inputs.begin = epoch.begin;
    inputs.end = epoch.end;
    epoch.report = core::markdown_report(inputs, analysis);
  });
  const std::string& report = epoch.report;

  // Slice on "## " headings; the heading text names the section.
  struct Section {
    std::string_view title;
    std::size_t begin = 0;  ///< offset of the heading line
    std::size_t end = 0;    ///< offset one past the slice
  };
  std::vector<Section> sections;
  std::size_t pos = 0;
  while (pos < report.size()) {
    const bool at_heading = report.compare(pos, 3, "## ") == 0;
    const std::size_t eol = report.find('\n', pos);
    const std::size_t next = eol == std::string::npos ? report.size() : eol + 1;
    if (at_heading) {
      if (!sections.empty()) sections.back().end = pos;
      const std::size_t title_end = eol == std::string::npos ? report.size() : eol;
      sections.push_back(Section{
          std::string_view(report).substr(pos + 3, title_end - pos - 3), pos, 0});
    }
    pos = next;
  }
  if (!sections.empty()) sections.back().end = report.size();

  const util::JsonValue* wanted = params.find("section");
  if (wanted == nullptr) {
    std::string out = "{\"sections\":[";
    for (std::size_t i = 0; i < sections.size(); ++i) {
      if (i != 0) out += ",";
      util::append_json_string(out, sections[i].title);
    }
    out += "]}";
    return out;
  }
  if (!wanted->is_string()) {
    bad_params = "report params.section must be a string section title";
    return {};
  }
  for (const Section& section : sections) {
    if (section.title == wanted->as_string()) {
      std::string out = "{\"section\":";
      util::append_json_string(out, section.title);
      out += ",\"text\":";
      util::append_json_string(out, std::string_view(report).substr(
                                  section.begin, section.end - section.begin));
      out += "}";
      return out;
    }
  }
  bad_params = "unknown report section \"" + wanted->as_string() +
               "\"; query report without params to list sections";
  return {};
}

std::string Server::data_metrics() const {
  std::string out = "{\"metrics\":";
  if (util::MetricsRegistry* reg = util::metrics()) {
    out += reg->to_json();
  } else {
    out += "null";
  }
  out += "}";
  return out;
}

std::string Server::data_shutdown() {
  shutdown_.store(true, std::memory_order_relaxed);
  return "{\"stopping\":true}";
}

}  // namespace hpcfail::serve
