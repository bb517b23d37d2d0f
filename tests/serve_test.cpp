// Serve-layer battery: golden request/response transcripts for every
// protocol verb (byte-pinned per system, S1..S5), the malformed-request
// matrix (every bad input answers a structured error and the daemon keeps
// serving), the epoch cache contract (repeated queries within an epoch
// never recompute; a tail advance bumps the epoch and recomputes once),
// and the tail/session mechanics the daemon is built from.
//
// To regenerate the transcripts after an intentional protocol change:
//   HPCFAIL_UPDATE_GOLDENS=1 ./tests/serve_test
// then review the diff like any golden update.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/ingest.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/tail.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace hpcfail {
namespace {

std::string golden_dir() {
  // Tests run from the build tree; the fixture lives in the source tree.
  for (const char* candidate :
       {"../testdata/serve_golden", "../../testdata/serve_golden",
        "testdata/serve_golden", "/root/repo/testdata/serve_golden"}) {
    if (std::filesystem::is_directory(candidate)) return candidate;
  }
  return {};
}

/// The last line of a source's raw text that actually parses into a record
/// (console text interleaves chatter the parsers skip) — re-appending it
/// to a tail is guaranteed to produce one record without violating the
/// store's time order.
std::string last_parsable_line(const parsers::ParsedCorpus& parsed,
                               const loggen::Corpus& corpus,
                               logmodel::LogSource source) {
  const parsers::LineParseFn parse = parsers::line_parser_for(source);
  logmodel::SymbolTable scratch;
  parsers::ParseContext ctx;
  ctx.topo = &parsed.topology;
  ctx.symbols = &scratch;
  const util::CivilTime civil = util::civil_time(corpus.begin);
  ctx.base_year = civil.year;
  ctx.base_month = civil.month;

  const std::string& text = corpus.of(source);
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

/// A booted daemon plus the context the tests need alongside it.
struct Booted {
  loggen::Corpus corpus;
  std::string node_name;       ///< a real node name for node_health requests
  std::string tail_line;       ///< console line guaranteed to parse
  std::size_t base_records = 0;
  std::unique_ptr<serve::Server> server;
};

Booted boot(platform::SystemName system, int days, unsigned seed,
            serve::ServerConfig config = {}) {
  Booted out;
  const auto sim =
      faultsim::Simulator(faultsim::scenario_preset(system, days, seed)).run();
  out.corpus = loggen::build_corpus(sim);
  auto parsed = parsers::ingest_corpus(out.corpus);
  out.base_records = parsed.store.size();
  if (!parsed.store.nodes().empty()) {
    out.node_name =
        std::string(parsed.topology.node_name(parsed.store.nodes().front()));
  }
  out.tail_line = last_parsable_line(parsed, out.corpus, logmodel::LogSource::Console);
  out.server = std::make_unique<serve::Server>(std::move(parsed), config);
  return out;
}

/// Scratch file with lifetime-scoped cleanup.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_("/tmp/hpcfail_serve_test." + name) {
    std::filesystem::remove(path_);
  }
  ~ScratchFile() { std::filesystem::remove(path_); }
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;

  void append(const std::string& text) const {
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out << text;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

// ------------------------------------------------------- golden transcripts --

/// Transcript format: alternating request line / response line.  The
/// request script covers every verb in the protocol table.
std::vector<std::string> transcript_requests(serve::Server& server,
                                             const std::string& node_name) {
  std::vector<std::string> requests = {
      R"({"id":1,"verb":"ping"})",
      R"({"id":2,"verb":"status"})",
      R"({"id":3,"verb":"causes"})",
      R"({"id":4,"verb":"lead_time"})",
      R"({"id":5,"verb":"node_health","params":{"node":")" + node_name + R"("}})",
      R"({"id":6,"verb":"report"})",
  };
  // Slice the first report section by the name the daemon just listed.
  const std::string listing = server.handle_line(requests.back());
  const auto doc = util::JsonValue::parse(listing);
  std::string section;
  if (doc.has_value()) {
    if (const util::JsonValue* data = doc->find("data")) {
      if (const util::JsonValue* sections = data->find("sections")) {
        if (sections->is_array() && !sections->items().empty() &&
            sections->items().front().is_string()) {
          section = sections->items().front().as_string();
        }
      }
    }
  }
  std::string escaped;
  util::append_json_string(escaped, section);
  requests.push_back(R"({"id":7,"verb":"report","params":{"section":)" + escaped +
                     "}}");
  requests.push_back(R"({"id":8,"verb":"metrics"})");
  requests.push_back(R"({"id":9,"verb":"shutdown"})");
  return requests;
}

class ServeGolden : public ::testing::TestWithParam<platform::SystemName> {};

TEST_P(ServeGolden, TranscriptMatchesGolden) {
  const std::string dir = golden_dir();
  if (dir.empty()) GTEST_SKIP() << "testdata/serve_golden not found";
  Booted booted = boot(GetParam(), 3, 4200);
  const std::string label = booted.corpus.system.label;
  const std::filesystem::path path = std::filesystem::path(dir) / (label + ".txt");

  if (std::getenv("HPCFAIL_UPDATE_GOLDENS") != nullptr) {
    // A fresh daemon, so the transcript-listing probe inside
    // transcript_requests and the recorded responses see the same epoch
    // cache state as a replay does.
    const std::vector<std::string> requests =
        transcript_requests(*booted.server, booted.node_name);
    Booted fresh = boot(GetParam(), 3, 4200);
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    for (const std::string& request : requests) {
      out << request << "\n" << fresh.server->handle_line(request) << "\n";
    }
    GTEST_SKIP() << "golden updated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path
                  << " (run with HPCFAIL_UPDATE_GOLDENS=1 to create)";
  std::string request;
  std::string want;
  std::size_t pairs = 0;
  while (std::getline(in, request)) {
    ASSERT_TRUE(std::getline(in, want)) << "transcript has a request with no response";
    EXPECT_EQ(booted.server->handle_line(request), want)
        << label << " response drifted for request: " << request;
    ++pairs;
  }
  EXPECT_EQ(pairs, 9u) << "transcript must cover all nine scripted requests";
  EXPECT_TRUE(booted.server->shutdown_requested()) << "script ends in shutdown";
}

INSTANTIATE_TEST_SUITE_P(AllSystems, ServeGolden,
                         ::testing::Values(platform::SystemName::S1,
                                           platform::SystemName::S2,
                                           platform::SystemName::S3,
                                           platform::SystemName::S4,
                                           platform::SystemName::S5),
                         [](const auto& info) {
                           return platform::system_preset(info.param).label;
                         });

// --------------------------------------------------- malformed requests ----

TEST(ServeProtocolTest, MalformedRequestsAnswerStructuredErrors) {
  Booted booted = boot(platform::SystemName::S2, 1, 4242);
  serve::Server& server = *booted.server;

  const struct {
    std::string request;
    std::string kind;
  } cases[] = {
      {R"({"id":1,"verb":"pi)", "bad_request"},              // truncated JSON
      {"", "bad_request"},                                    // empty line
      {"[1,2,3]", "bad_request"},                             // not an object
      {R"({"verb":"ping"})", "bad_request"},                  // missing id
      {R"({"id":-1,"verb":"ping"})", "bad_request"},          // negative id
      {R"({"id":1.5,"verb":"ping"})", "bad_request"},         // fractional id
      {R"({"id":1})", "bad_request"},                         // missing verb
      {R"({"id":1,"verb":7})", "bad_request"},                // verb not a string
      {R"({"id":1,"verb":"frobnicate"})", "unknown_verb"},    // not in the table
      {R"({"id":1,"verb":"ping","params":7})", "bad_request"},  // params not object
      {R"({"id":1,"verb":"node_health"})", "bad_params"},       // missing node
      {R"({"id":1,"verb":"node_health","params":{"node":"no-such-node"}})",
       "bad_params"},
      {R"({"id":1,"verb":"report","params":{"section":"No Such Section"}})",
       "bad_params"},
      {R"({"id":1,"verb":"ping"}trailing)", "bad_request"},   // trailing garbage
      // RFC 8259 number grammar: each of these once parsed as an id.
      {R"({"id":01,"verb":"ping"})", "bad_request"},          // leading zero
      {R"({"id":.5e1,"verb":"ping"})", "bad_request"},        // no integer part
      {R"({"id":2.,"verb":"ping"})", "bad_request"},          // empty fraction
      {R"({"id":-,"verb":"ping"})", "bad_request"},           // lone minus
      {R"({"id":1e,"verb":"ping"})", "bad_request"},          // empty exponent
  };
  for (const auto& c : cases) {
    const std::string response = server.handle_line(c.request);
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos)
        << "request: " << c.request << " response: " << response;
    EXPECT_NE(response.find("\"kind\":\"" + c.kind + "\""), std::string::npos)
        << "request: " << c.request << " response: " << response;
    const auto doc = util::JsonValue::parse(response);
    ASSERT_TRUE(doc.has_value()) << "error response must itself be valid JSON";
    ASSERT_NE(doc->find("error"), nullptr);
    EXPECT_NE(doc->find("error")->find("message"), nullptr);
  }

  // Oversized line: limit + 1 bytes of valid-looking JSON is still refused.
  std::string big = R"({"id":1,"verb":"ping","params":{"pad":")";
  big.append(serve::kMaxRequestBytes, 'x');
  big += "\"}}";
  const std::string response = server.handle_line(big);
  EXPECT_NE(response.find("\"kind\":\"oversized\""), std::string::npos) << response;

  // The daemon survived all of it: a well-formed request still answers.
  EXPECT_NE(server.handle_line(R"({"id":99,"verb":"ping"})")
                .find("\"data\":{\"pong\":true}"),
            std::string::npos);
  EXPECT_FALSE(server.shutdown_requested());
}

// ------------------------------------------------------------ epoch cache --

TEST(ServeEpochTest, RepeatedQueriesNeverRecomputeWithinAnEpoch) {
  Booted booted = boot(platform::SystemName::S2, 1, 4242);
  serve::Server& server = *booted.server;
  const ScratchFile tail("epoch_tail.log");
  server.attach_tail(tail.path(), logmodel::LogSource::Console);

  EXPECT_EQ(server.analysis_recomputes(), 0u) << "boot must not analyze eagerly";
  const std::string first = server.handle_line(R"({"id":1,"verb":"causes"})");
  EXPECT_EQ(server.analysis_recomputes(), 1u);
  // Same query, same epoch: answered from the cache, byte-identical.
  EXPECT_EQ(server.handle_line(R"({"id":1,"verb":"causes"})"), first);
  // Different analysis-backed verbs share the one computation.
  (void)server.handle_line(R"({"id":2,"verb":"lead_time"})");
  (void)server.handle_line(R"({"id":3,"verb":"report"})");
  EXPECT_EQ(server.analysis_recomputes(), 1u)
      << "lead_time/report within the epoch must reuse the cached analysis";
  EXPECT_NE(first.find("\"epoch\":0"), std::string::npos);

  // An empty poll is not a tail advance: epoch and cache stay put.
  EXPECT_TRUE(server.poll_tail().ok());
  EXPECT_EQ(server.epoch(), 0u);

  // A record-bearing poll advances the epoch; the next analysis-backed
  // query recomputes exactly once against the grown store.
  ASSERT_FALSE(booted.tail_line.empty());
  tail.append(booted.tail_line + "\n");
  const auto poll = server.poll_tail();
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll.records, 1u) << "re-appended corpus line must parse";
  EXPECT_EQ(server.epoch(), 1u);

  const std::string after = server.handle_line(R"({"id":4,"verb":"causes"})");
  EXPECT_EQ(server.analysis_recomputes(), 2u);
  EXPECT_NE(after.find("\"epoch\":1"), std::string::npos);
  const std::string status = server.handle_line(R"({"id":5,"verb":"status"})");
  EXPECT_NE(status.find("\"records\":" + std::to_string(booted.base_records + 1)),
            std::string::npos)
      << status;
  EXPECT_NE(status.find("\"tail_records\":1"), std::string::npos) << status;
}

// ------------------------------------------------------------- tail reader --

TEST(TailReaderTest, PartialLinesWaitForTheirNewline) {
  const ScratchFile file("tail_partial.log");
  serve::TailReader reader(file.path(), logmodel::LogSource::Console);

  // Absent file: empty poll, no error.
  auto poll = reader.poll();
  EXPECT_TRUE(poll.ok());
  EXPECT_TRUE(poll.lines.empty());

  file.append("alpha\nbeta");  // beta is mid-append
  poll = reader.poll();
  ASSERT_TRUE(poll.ok());
  ASSERT_EQ(poll.lines.size(), 1u);
  EXPECT_EQ(poll.lines[0], "alpha");

  file.append("-still-beta\ngamma\r\n");  // beta completes; gamma is CRLF
  poll = reader.poll();
  ASSERT_TRUE(poll.ok());
  ASSERT_EQ(poll.lines.size(), 2u);
  EXPECT_EQ(poll.lines[0], "beta-still-beta");
  EXPECT_EQ(poll.lines[1], "gamma");

  poll = reader.poll();  // nothing new
  EXPECT_TRUE(poll.ok());
  EXPECT_TRUE(poll.lines.empty());
  EXPECT_EQ(reader.offset(), std::string("alpha\nbeta-still-beta\ngamma\r\n").size());
}

TEST(TailReaderTest, SchedulerTailsAreRejected) {
  Booted booted = boot(platform::SystemName::S2, 1, 4242);
  EXPECT_THROW(
      booted.server->attach_tail("/tmp/never-read.log", logmodel::LogSource::Scheduler),
      std::invalid_argument);
}

// ---------------------------------------------------------------- sessions --

TEST(ServeSessionTest, SerialSessionAnswersInOrderAndStopsOnShutdown) {
  Booted booted = boot(platform::SystemName::S2, 1, 4242);
  std::istringstream in(
      "{\"id\":1,\"verb\":\"ping\"}\n"
      "{\"id\":2,\"verb\":\"shutdown\"}\n"
      "{\"id\":3,\"verb\":\"ping\"}\n");
  std::ostringstream out;
  const std::size_t answered = serve::run_session(*booted.server, in, out);
  EXPECT_EQ(answered, 2u) << "the request after shutdown must not be read";
  const std::string text = out.str();
  EXPECT_NE(text.find("\"id\":1"), std::string::npos);
  EXPECT_NE(text.find("\"stopping\":true"), std::string::npos);
  EXPECT_EQ(text.find("\"id\":3"), std::string::npos);
}

TEST(ServeSessionTest, PooledSessionKeepsResponsesInRequestOrder) {
  Booted booted = boot(platform::SystemName::S2, 1, 4242);
  std::ostringstream script;
  const int kRequests = 40;
  for (int i = 1; i <= kRequests; ++i) {
    script << R"({"id":)" << i << R"(,"verb":)"
           << (i % 3 == 0 ? R"("status")" : R"("ping")") << "}\n";
  }
  std::istringstream in(script.str());
  std::ostringstream out;
  util::ThreadPool pool(4);
  serve::SessionOptions options;
  options.pool = &pool;
  options.max_inflight = 8;
  const std::size_t answered = serve::run_session(*booted.server, in, out, options);
  EXPECT_EQ(answered, static_cast<std::size_t>(kRequests));

  std::istringstream responses(out.str());
  std::string line;
  int expected = 1;
  while (std::getline(responses, line)) {
    EXPECT_NE(line.find("\"id\":" + std::to_string(expected) + ","),
              std::string::npos)
        << "out-of-order response at position " << expected << ": " << line;
    ++expected;
  }
  EXPECT_EQ(expected, kRequests + 1);
}

}  // namespace
}  // namespace hpcfail
