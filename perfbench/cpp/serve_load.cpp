// serve_tail and serve_observed: a resident serve::Server booted from a
// snapshot of the days before a split time T, followed by an open-loop
// writer that appends the held-out console and controller lines after T to
// two live tails, and closed-loop query clients beside it.  serve_observed
// is the same traffic with a util::MetricsRegistry installed for the whole
// run, as `hpcfail-serve --metrics-out` does.
#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "layers.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace hpcfail;

constexpr int kSetupRounds = 3;
/// Writer schedule: one batch every kPeriod, kConsoleBatch console lines
/// plus the controller lines that cover the same stretch of log time.
constexpr auto kPeriod = std::chrono::milliseconds(80);
constexpr std::size_t kConsoleBatch = 24;

/// The perf_serve verb mix, sent back to back by every client.
constexpr std::array<const char*, 7> kVerbs = {"status", "ping",   "causes", "lead_time",
                                               "node_health", "report", "metrics"};
constexpr std::array<const char*, 7> kVerbSpans = {
    "serve.handle_line.status",    "serve.handle_line.ping",
    "serve.handle_line.causes",    "serve.handle_line.lead_time",
    "serve.handle_line.node_health", "serve.handle_line.report",
    "serve.handle_line.metrics"};
constexpr std::size_t kStatus = 0;

/// One side of the split: records (and, before T, finished jobs) on that
/// side, with the window clipped to it.
faultsim::SimulationResult split_side(const faultsim::SimulationResult& sim,
                                      util::TimePoint split, int split_day, bool before) {
  faultsim::SimulationResult side;
  side.config = sim.config;
  side.topology = sim.topology;
  side.symbols = sim.symbols;
  if (before) {
    side.config.days = split_day;
  } else {
    side.config.begin = split;
    side.config.days = sim.config.days - split_day;
  }
  for (const logmodel::LogRecord& r : sim.records) {
    if ((r.time < split) == before) side.records.push_back(r);
  }
  if (before) {
    for (const jobs::Job& job : sim.jobs) {
      if (job.end < split) side.jobs.push_back(job);
    }
  }
  return side;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    lines.emplace_back(text, begin, end - begin + 1);
    begin = end + 1;
  }
  if (!lines.empty() && lines.back().back() != '\n') lines.back() += '\n';
  return lines;
}

/// What one set-up round leaves for the timed phase.
struct Booted {
  std::unique_ptr<serve::Server> server;
  std::vector<std::string> console;     ///< held-out console lines, time order
  std::vector<std::string> controller;  ///< held-out controller lines
  std::string console_path;
  std::string controller_path;
  std::size_t boot_records = 0;
  std::string node;  ///< the node node_health asks about
};

Booted boot(const RunOptions& options, util::ThreadPool& pool, Results& results) {
  const int split_day = options.days * 3 / 4;
  const std::string dir = options.work_dir + "/boot";
  const std::string snapshot = options.work_dir + "/boot.snap";
  Booted out;

  loggen::Corpus tail_corpus;
  std::uint64_t boot_bytes = 0;
  {
    const faultsim::SimulationResult sim =
        simulate(platform::SystemName::S2, options.days, options.seed);
    const util::TimePoint split = sim.config.begin + util::Duration::days(split_day);
    const loggen::Corpus boot_corpus = render(split_side(sim, split, split_day, true));
    tail_corpus = render(split_side(sim, split, split_day, false));
    boot_bytes = boot_corpus.bytes();
    write(boot_corpus, dir);
  }
  out.console = lines_of(tail_corpus.of(logmodel::LogSource::Console));
  out.controller = lines_of(tail_corpus.of(logmodel::LogSource::Controller));

  parsers::IngestOptions ingest_options;
  ingest_options.pool = &pool;
  const parsers::IngestResult parsed = ingest(dir, boot_bytes, ingest_options, results);
  note_ingest(parsed, "", results);
  results.set("core.failures", static_cast<double>(analyze(parsed)));
  (void)report(parsed);  // timed only: the daemon renders its own report per epoch
  save(parsed, snapshot, results);
  results.set("parsers.snapshot_bytes", static_cast<double>(std::filesystem::file_size(snapshot)));
  parsers::SnapshotLoadResult loaded = load(snapshot, results);
  out.boot_records = loaded.store.size();

  const Clock::time_point b0 = Clock::now();
  {
    Tracer::Scope span("serve.boot");
    out.server = std::make_unique<serve::Server>(std::move(loaded));
  }
  results.add("serve.boot_ms", 1e3 * seconds_between(b0, Clock::now()));
  // node_health asks about the first node the boot replay alerted on, so
  // every seed's query renders a last_alert and costs about the same.
  const std::vector<core::Alert>& alerts = out.server->boot_alerts();
  out.node = out.server->topology().node_name(
      alerts.empty() ? platform::NodeId{0} : alerts.front().node);

  out.console_path = options.work_dir + "/tail-console.log";
  out.controller_path = options.work_dir + "/tail-controller.log";
  std::ofstream(out.console_path, std::ios::trunc).flush();
  std::ofstream(out.controller_path, std::ios::trunc).flush();
  {
    Tracer::Scope span("serve.attach_tail");
    out.server->attach_tail(out.console_path, logmodel::LogSource::Console);
    out.server->attach_tail(out.controller_path, logmodel::LogSource::Controller);
  }
  // Fill epoch 0's analysis cache, as a daemon's first query would.
  (void)out.server->handle_line(R"({"id":0,"verb":"causes"})");
  return out;
}

/// Parses a response and checks the envelope: ok, echoed id and verb, and
/// an epoch no later than the server's current one.  Returns the parsed
/// document (nullopt when any check failed; `why` says which).
std::optional<serve::JsonValue> check_response(const std::string& response,
                                               std::uint64_t id, std::string_view verb,
                                               const serve::Server& server,
                                               std::string& why) {
  std::optional<serve::JsonValue> doc = serve::JsonValue::parse(response);
  if (!doc || !doc->is_object()) {
    why = "response is not a JSON object";
    return std::nullopt;
  }
  const serve::JsonValue* ok = doc->find("ok");
  const serve::JsonValue* echoed = doc->find("verb");
  const auto epoch = doc->uint_member("epoch");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    why = "error response";
  } else if (doc->uint_member("id") != id || echoed == nullptr || !echoed->is_string() ||
             echoed->as_string() != verb) {
    why = "id or verb not echoed";
  } else if (!epoch || *epoch > server.epoch()) {
    why = "epoch missing or later than the current epoch";
  } else {
    return doc;
  }
  return std::nullopt;
}

/// Status counts one client saw, by epoch.
struct StatusSeen {
  std::uint64_t records = 0;
  std::uint64_t tail_records = 0;
};

}  // namespace

void run_serve(const RunOptions& options, bool observed, Results& results) {
  util::MetricsRegistry registry;
  struct Uninstall {
    bool armed;
    ~Uninstall() {
      if (armed) util::install_metrics(nullptr);
    }
  } uninstall{observed};
  Tracer::enable(options.trace);
  if (observed) {
    Tracer::Scope span("util.install_metrics");
    util::install_metrics(&registry);
  }

  // ---- set-up, repeated; the last round's server is the one measured ----
  Booted booted;
  {
    util::ThreadPool pool(std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4));
    for (int round = 0; round < kSetupRounds; ++round) {
      booted = Booted{};
      const Clock::time_point t0 = Clock::now();
      const Tracer::Group group(Tracer::next_group());
      Tracer::Scope span("bench.setup");
      booted = boot(options, pool, results);
      results.add("setup_s", seconds_between(t0, Clock::now()));
    }
  }
  Tracer::enable(false);
  serve::Server& server = *booted.server;

  const std::size_t controller_batch = std::max<std::size_t>(
      1, (kConsoleBatch * booted.controller.size() + booted.console.size() / 2) /
             std::max<std::size_t>(1, booted.console.size()));

  // Epoch -> cumulative tail records, as published by the writer (this
  // thread); read only after the clients have been joined.
  std::map<std::uint64_t, std::uint64_t> published = {{server.epoch(), 0}};

  std::atomic<bool> stop{false};
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned clients = std::clamp(cores - 1, 1u, 3u);

  // Per-verb latency samples, untraced and traced; fixed-size so the
  // clients' memory does not grow with their throughput.
  constexpr std::size_t kKeptPerVerb = 4096;
  // One cache line apart, so no client's writes slow another client down.
  struct alignas(64) ClientLog {
    std::vector<Reservoir> us;
    std::vector<Reservoir> traced_us;
    std::map<std::uint64_t, StatusSeen> status;
    std::uint64_t passed = 0;
  };
  std::vector<ClientLog> logs(clients);
  for (unsigned c = 0; c < clients; ++c) {
    for (std::size_t v = 0; v < kVerbs.size(); ++v) {
      logs[c].us.emplace_back(kKeptPerVerb, options.seed * 131 + c * 7 + v);
      logs[c].traced_us.emplace_back(kKeptPerVerb, options.seed * 137 + c * 7 + v);
    }
  }

  const auto client_loop = [&](ClientLog& log) {
    std::array<std::string, kVerbs.size()> requests;
    for (std::size_t v = 0; v < kVerbs.size(); ++v) {
      requests[v] = "{\"id\":" + std::to_string(v + 1) + ",\"verb\":\"" + kVerbs[v] + "\"";
      if (std::string_view(kVerbs[v]) == "node_health") {
        requests[v] += ",\"params\":{\"node\":\"" + booted.node + "\"}";
      }
      requests[v] += "}";
    }
    // A response byte-identical to the last one that passed every check
    // passes them too; anything else is parsed and checked in full.
    std::array<std::string, kVerbs.size()> last_valid;
    std::uint64_t passed = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (std::size_t v = 0; v < kVerbs.size(); ++v) {
        const bool traced = Tracer::enabled();
        std::string response;
        const Clock::time_point t0 = Clock::now();
        if (traced) {
          const Tracer::Group group(Tracer::next_group());
          Tracer::Scope span(kVerbSpans[v]);
          response = server.handle_line(requests[v]);
        } else {
          response = server.handle_line(requests[v]);
        }
        const double us = 1e6 * seconds_between(t0, Clock::now());
        (traced ? log.traced_us[v] : log.us[v]).add(us);
        if (response == last_valid[v]) {
          ++passed;
          continue;
        }
        std::string why;
        const auto doc = check_response(response, v + 1, kVerbs[v], server, why);
        if (!doc) {
          results.check(false, std::string("serve ") + kVerbs[v] + ": " + why);
          continue;
        }
        if (v == kStatus) {
          const serve::JsonValue* data = doc->find("data");
          const StatusSeen seen{data ? data->uint_member("records").value_or(0) : 0,
                                data ? data->uint_member("tail_records").value_or(0) : 0};
          const auto [it, inserted] = log.status.emplace(*doc->uint_member("epoch"), seen);
          if (!inserted && (it->second.records != seen.records ||
                            it->second.tail_records != seen.tail_records)) {
            results.check(false, "serve status: two record counts for one epoch");
          }
        }
        ++passed;
        last_valid[v] = std::move(response);
      }
    }
    log.passed = passed;
  };

  const auto client = [&](ClientLog& log) {
    try {
      client_loop(log);
    } catch (const std::exception& e) {
      results.check(false, std::string("serve client: ") + e.what());
    }
  };

  // ---- timed phase ----
  std::vector<std::thread> threads;
  // Stops and joins the clients on every way out of this scope, so no
  // thread outlives the server or the logs it writes.
  struct Joiner {
    std::atomic<bool>& stop;
    std::vector<std::thread>& threads;
    ~Joiner() {
      stop.store(true);
      for (std::thread& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{stop, threads};
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client, std::ref(logs[c]));

  std::vector<double> fresh_ms, late_ms;
  std::uint64_t cumulative = 0;
  std::uint64_t passed = 0;
  {
    std::ofstream console_out(booted.console_path, std::ios::app | std::ios::binary);
    std::ofstream controller_out(booted.controller_path, std::ios::app | std::ios::binary);
    const Clock::time_point start = Clock::now();
    const auto phase = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(options.seconds));
    for (std::size_t i = 0;; ++i) {
      const Clock::time_point due = start + i * kPeriod;
      if (due - start >= phase) break;
      // A traced run traces the second half of the phase only.
      Tracer::enable(options.trace && due - start >= phase / 2);
      if ((i + 1) * kConsoleBatch > booted.console.size() ||
          (i + 1) * controller_batch > booted.controller.size()) {
        results.check(false, "serve: held-out tail exhausted before the run ended");
        break;
      }
      std::this_thread::sleep_until(due);
      late_ms.push_back(1e3 * seconds_between(due, Clock::now()));

      const Tracer::Group group(Tracer::next_group());
      Tracer::Scope batch("bench.batch");
      for (std::size_t k = i * kConsoleBatch; k < (i + 1) * kConsoleBatch; ++k) {
        console_out << booted.console[k];
      }
      for (std::size_t k = i * controller_batch; k < (i + 1) * controller_batch; ++k) {
        controller_out << booted.controller[k];
      }
      console_out.flush();
      controller_out.flush();

      serve::Server::TailPoll poll;
      {
        Tracer::Scope span("serve.poll_tail");
        poll = server.poll_tail();
        span.set_items(poll.records);
      }
      results.check(poll.ok(), "poll_tail: " + (poll.ok() ? std::string() : poll.error->to_string()));
      cumulative += poll.records;
      const std::uint64_t holding = server.epoch();
      published[holding] = cumulative;

      std::string response;
      {
        Tracer::Scope span("serve.handle_line.causes");
        response = server.handle_line(R"({"id":0,"verb":"causes"})");
      }
      fresh_ms.push_back(1e3 * seconds_between(due, Clock::now()));
      std::string why;
      const auto doc = check_response(response, 0, "causes", server, why);
      if (doc && doc->uint_member("epoch") < holding) why = "causes answered from a stale epoch";
      if (doc && why.empty()) {
        ++passed;
      } else {
        results.check(false, "serve writer causes: " + why);
      }
    }
    results.set("phase_s", seconds_between(start, Clock::now()));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  Tracer::enable(false);

  // ---- checks over the whole run ----
  std::uint64_t queries = 0;
  for (ClientLog& log : logs) {
    passed += log.passed;
    for (std::size_t v = 0; v < kVerbs.size(); ++v) {
      queries += log.us[v].count();
      results.merge(std::string("query_us.") + kVerbs[v], log.us[v].values());
      results.merge(std::string("query_us.traced.") + kVerbs[v], log.traced_us[v].values());
    }
    for (const auto& [epoch, seen] : log.status) {
      const auto it = published.find(epoch);
      const bool ok = it != published.end() && seen.tail_records == it->second &&
                      seen.records == booted.boot_records + it->second;
      results.check(ok, "status at epoch " + std::to_string(epoch) +
                            ": records != boot records + tail records polled");
    }
  }
  results.passed(passed);
  const std::uint64_t epochs = server.epoch() + 1;
  results.check(server.analysis_recomputes() <= epochs,
                "analysis_recomputes exceeds the epochs published");
  results.set("queries", static_cast<double>(queries));
  results.set("serve.epochs", static_cast<double>(epochs));
  results.set("serve.analysis_recomputes", static_cast<double>(server.analysis_recomputes()));
  results.set("serve.poll_records", static_cast<double>(cumulative));
  results.merge("refresh_ms", fresh_ms);
  results.merge("serve.generator_late_ms", late_ms);

  if (observed) {
    for (int i = 0; i < 5; ++i) {
      const Clock::time_point t0 = Clock::now();
      std::string json;
      {
        Tracer::enable(options.trace);
        Tracer::Scope span("util.metrics_to_json");
        json = registry.to_json();
        span.set_bytes(json.size());
      }
      results.add("util.metrics_export_ms", 1e3 * seconds_between(t0, Clock::now()));
      results.check(serve::JsonValue::parse(json).has_value(),
                    "MetricsRegistry::to_json is not valid JSON");
    }
    Tracer::enable(false);
  }
}

}  // namespace perfbench
