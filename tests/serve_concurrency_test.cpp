// Concurrency battery for the serve layer: client tasks hammer mixed
// queries while the single writer advances the tail, and every individual
// response must be internally consistent with exactly one published epoch
// — the status verb's record count is a per-epoch invariant (base + one
// record per advance), so a torn read between two epochs cannot pass.  CI
// reruns this suite under ASan and TSan.  The serve fault sites get their
// dedicated sweep in faultinject_test; here a focused pass checks the two
// sites stay structured under concurrent load.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/ingest.hpp"
#include "serve/server.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace hpcfail {
namespace {

class ScopedInjector {
 public:
  explicit ScopedInjector(util::FaultInjector& inj) {
    util::install_fault_injector(&inj);
  }
  ~ScopedInjector() { util::install_fault_injector(nullptr); }
  ScopedInjector(const ScopedInjector&) = delete;
  ScopedInjector& operator=(const ScopedInjector&) = delete;
};

struct Booted {
  loggen::Corpus corpus;
  std::string tail_line;  ///< console line guaranteed to parse into a record
  std::size_t base_records = 0;
  std::unique_ptr<serve::Server> server;
};

/// Last console line that parses into a record (console text interleaves
/// chatter the parsers skip), so a tail append deterministically yields
/// one record at a non-decreasing time.
std::string last_parsable_line(const parsers::ParsedCorpus& parsed,
                               const loggen::Corpus& corpus) {
  const parsers::LineParseFn parse =
      parsers::line_parser_for(logmodel::LogSource::Console);
  logmodel::SymbolTable scratch;
  parsers::ParseContext ctx;
  ctx.topo = &parsed.topology;
  ctx.symbols = &scratch;
  const util::CivilTime civil = util::civil_time(corpus.begin);
  ctx.base_year = civil.year;
  ctx.base_month = civil.month;

  const std::string& text = corpus.of(logmodel::LogSource::Console);
  std::size_t end = text.size();
  while (end > 0) {
    while (end > 0 && text[end - 1] == '\n') --end;
    const std::size_t nl = text.rfind('\n', end == 0 ? 0 : end - 1);
    const std::size_t begin = nl == std::string::npos ? 0 : nl + 1;
    std::string line = text.substr(begin, end - begin);
    if (parse != nullptr && parse(line, ctx).has_value()) return line;
    end = begin;
  }
  return {};
}

Booted boot() {
  Booted out;
  const auto sim =
      faultsim::Simulator(
          faultsim::scenario_preset(platform::SystemName::S2, 1, 4242))
          .run();
  out.corpus = loggen::build_corpus(sim);
  auto parsed = parsers::ingest_corpus(out.corpus);
  out.base_records = parsed.store.size();
  out.tail_line = last_parsable_line(parsed, out.corpus);
  out.server = std::make_unique<serve::Server>(std::move(parsed));
  return out;
}

TEST(ServeConcurrencyTest, ResponsesConsistentWithSomeEpochDuringIngest) {
  Booted booted = boot();
  serve::Server& server = *booted.server;
  const std::string tail_path = "/tmp/hpcfail_serve_concurrency_tail.log";
  std::filesystem::remove(tail_path);
  server.attach_tail(tail_path, logmodel::LogSource::Console);
  const std::string line = booted.tail_line;
  ASSERT_FALSE(line.empty());

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 60;
  constexpr std::uint64_t kAdvances = 8;

  std::atomic<bool> stop{false};
  // Clients that have sent one request of every verb.  The writer waits
  // for all of them, so the load always covers every verb and overlaps
  // the tail advances however fast an epoch rebuild is.
  std::atomic<int> warmed{0};
  util::ThreadPool pool(kClients);
  std::vector<std::future<std::vector<std::string>>> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(pool.submit([srv = &server, &stop, &warmed, c] {
      // Mixed load: cheap verbs, cached-analysis verbs, and the status
      // verb whose payload the main thread cross-checks per epoch.
      static constexpr const char* kVerbs[] = {"status", "ping", "causes",
                                               "lead_time", "status"};
      std::vector<std::string> responses;
      responses.reserve(kQueriesPerClient);
      for (int i = 0; i < kQueriesPerClient && (i < 5 || !stop.load()); ++i) {
        std::string request = R"({"id":)" + std::to_string(c * 1000 + i) +
                              R"(,"verb":")" + kVerbs[i % 5] + R"("})";
        responses.push_back(srv->handle_line(request));
        if (i == 4) warmed.fetch_add(1);
      }
      return responses;
    }));
  }

  // The single writer: advance the tail while the clients are in flight.
  while (warmed.load() < kClients) std::this_thread::yield();
  for (std::uint64_t advance = 1; advance <= kAdvances; ++advance) {
    {
      std::ofstream tail(tail_path, std::ios::app | std::ios::binary);
      tail << line << "\n";
    }
    const auto poll = server.poll_tail();
    ASSERT_TRUE(poll.ok());
    ASSERT_EQ(poll.records, 1u);
    ASSERT_EQ(server.epoch(), advance);
  }
  stop.store(true);

  // Every response must carry a published epoch and, for status, a record
  // count equal to base + epoch — the invariant a torn read would break.
  std::size_t checked_status = 0;
  for (auto& client : clients) {
    for (const std::string& response : client.get()) {
      const auto doc = util::JsonValue::parse(response);
      ASSERT_TRUE(doc.has_value()) << response;
      const auto epoch = doc->uint_member("epoch");
      ASSERT_TRUE(epoch.has_value()) << response;
      ASSERT_LE(*epoch, kAdvances) << response;
      const util::JsonValue* ok = doc->find("ok");
      ASSERT_NE(ok, nullptr);
      ASSERT_TRUE(ok->is_bool() && ok->as_bool()) << response;
      const util::JsonValue* data = doc->find("data");
      ASSERT_NE(data, nullptr) << response;
      if (const util::JsonValue* records = data->find("records")) {
        EXPECT_EQ(static_cast<std::uint64_t>(records->as_number()),
                  booted.base_records + *epoch)
            << "status torn across epochs: " << response;
        ++checked_status;
      }
    }
  }
  EXPECT_GT(checked_status, 0u) << "the mixed load must include status queries";

  // The analysis cache recomputed at most once per published epoch even
  // under concurrent first-queries (call_once), and at least once overall
  // (causes/lead_time were queried).
  EXPECT_GE(server.analysis_recomputes(), 1u);
  EXPECT_LE(server.analysis_recomputes(), kAdvances + 1);
  std::filesystem::remove(tail_path);
}

TEST(ServeConcurrencyTest, ServeFaultSitesStayStructuredUnderLoad) {
  Booted booted = boot();
  serve::Server& server = *booted.server;
  const std::string tail_path = "/tmp/hpcfail_serve_concurrency_fault_tail.log";
  std::filesystem::remove(tail_path);
  server.attach_tail(tail_path, logmodel::LogSource::Console);
  const std::string line = booted.tail_line;
  ASSERT_FALSE(line.empty());

  util::FaultInjector inj;
  inj.arm("serve.request.parse", 3);
  inj.arm("serve.tail.read_io", 2);
  const ScopedInjector scope(inj);

  // Concurrent requests: exactly one of them absorbs the parse fault as a
  // structured bad_request; the rest answer normally.
  util::ThreadPool pool(4);
  std::vector<std::future<std::string>> responses;
  responses.reserve(8);
  for (int i = 0; i < 8; ++i) {
    responses.push_back(pool.submit([srv = &server, i] {
      return srv->handle_line(R"({"id":)" + std::to_string(i) +
                              R"(,"verb":"ping"})");
    }));
  }
  int errors = 0;
  for (auto& response : responses) {
    const std::string text = response.get();
    if (text.find("\"ok\":false") != std::string::npos) {
      ++errors;
      EXPECT_NE(text.find("\"kind\":\"bad_request\""), std::string::npos) << text;
    } else {
      EXPECT_NE(text.find("\"pong\":true"), std::string::npos) << text;
    }
  }
  EXPECT_EQ(errors, 1) << "the armed parse fault fires exactly once";
  EXPECT_EQ(inj.fires("serve.request.parse"), 1u);

  // Two data-bearing polls: the second absorbs the read fault as a
  // structured TailError with the offset intact, the retry drains it.
  for (int advance = 0; advance < 2; ++advance) {
    {
      std::ofstream tail(tail_path, std::ios::app | std::ios::binary);
      tail << line << "\n";
    }
    const auto poll = server.poll_tail();
    if (!poll.ok()) {
      EXPECT_EQ(poll.error->file, tail_path);
      EXPECT_FALSE(poll.error->message.empty());
      const auto retry = server.poll_tail();
      EXPECT_TRUE(retry.ok());
      EXPECT_EQ(retry.records, 1u) << "offset must not advance past the fault";
    }
  }
  EXPECT_EQ(inj.fires("serve.tail.read_io"), 1u);
  EXPECT_EQ(server.epoch(), 2u) << "both tail lines landed despite the fault";
  std::filesystem::remove(tail_path);
}

}  // namespace
}  // namespace hpcfail
