// Microbenchmarks for the util::scan primitives, isolated from the rest
// of the pipeline: newline scanning (LineCursor), branchless timestamp
// parsing (parse_iso over the SWAR digit kernels) and single-pass payload
// classification (SignatureSet via classify_kernel_payload).
//
// Each primitive is measured twice — once under the runtime-dispatched
// tier (AVX2/SSE on x86, whatever active_isa() picked) and once with
// force_isa(Swar), the portable fallback every build ships.  A kernel
// regression shows up here as a tier-level rate change long before it is
// visible through end-to-end ingest noise.  Note the digit kernels are
// header-inline SWAR at every tier, so the timestamp row moving with the
// tier would itself be a bug.
//
// `--json[=PATH]` writes BENCH_scan.json (CI uploads it as an artifact);
// with no flag a human-readable table prints.
// Inputs are real rendered log text (one simulated S1 day, fixed seed),
// not synthetic byte soup, so anchor-byte frequencies match production.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "faultsim/simulator.hpp"
#include "loggen/corpus.hpp"
#include "parsers/line_classifier.hpp"
#include "util/scan.hpp"
#include "util/time.hpp"

namespace {

using namespace hpcfail;
using Clock = std::chrono::steady_clock;

constexpr int kRepeats = 5;          // best-of
constexpr double kMinSeconds = 0.2;  // per measured repeat

struct Rate {
  double mb_per_s = 0.0;
  double items_per_s = 0.0;
};

/// Runs `body` (which processes `bytes` bytes / `items` items per call)
/// in a calibrated loop, returns the best-of-kRepeats rate.
template <typename Body>
Rate measure(std::size_t bytes, std::size_t items, Body&& body) {
  // Calibrate the inner iteration count to ~kMinSeconds per repeat.
  std::size_t iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) body();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (s >= kMinSeconds / 4) break;
    iters *= 4;
  }
  Rate best;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) body();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    const double mb = static_cast<double>(iters * bytes) / 1e6 / s;
    if (mb > best.mb_per_s) {
      best.mb_per_s = mb;
      best.items_per_s = static_cast<double>(iters * items) / s;
    }
  }
  return best;
}

struct Inputs {
  std::string console_text;             ///< whole rendered console stream
  std::vector<std::string> timestamps;  ///< ISO prefixes of console lines
  std::vector<std::string> payloads;    ///< text after "kernel: "
  std::size_t timestamp_bytes = 0;
  std::size_t payload_bytes = 0;
};

Inputs build_inputs() {
  const auto sim =
      faultsim::Simulator(faultsim::scenario_preset(platform::SystemName::S1, 1, 42)).run();
  const auto corpus = loggen::build_corpus(sim);
  Inputs in;
  in.console_text = corpus.of(logmodel::LogSource::Console);
  util::scan::LineCursor cursor(in.console_text);
  std::string_view line;
  while (cursor.next(line)) {
    // Console lines open with an ISO-8601 timestamp; take through the
    // fractional seconds (26 bytes, format_iso width).
    if (line.size() >= 26) in.timestamps.emplace_back(line.substr(0, 26));
    const std::size_t pos = line.find("kernel: ");
    if (pos != std::string_view::npos) in.payloads.emplace_back(line.substr(pos + 8));
  }
  for (const auto& t : in.timestamps) in.timestamp_bytes += t.size();
  for (const auto& p : in.payloads) in.payload_bytes += p.size();
  return in;
}

struct TierResults {
  const char* isa = "";
  Rate newline_scan;      ///< LineCursor over the whole console stream
  Rate timestamp_parse;   ///< parse_iso per extracted timestamp
  Rate classifier;        ///< classify_kernel_payload per payload
};

TierResults run_tier(const Inputs& in) {
  TierResults r;
  r.isa = util::scan::isa_name(util::scan::active_isa()).data();

  std::size_t sink = 0;
  r.newline_scan = measure(in.console_text.size(), 1, [&] {
    util::scan::LineCursor cursor(in.console_text);
    std::string_view line;
    std::size_t lines = 0;
    while (cursor.next(line)) lines += line.size() != 0;
    sink += lines;
  });

  r.timestamp_parse = measure(in.timestamp_bytes, in.timestamps.size(), [&] {
    for (const auto& t : in.timestamps) {
      if (const auto tp = util::parse_iso(t)) sink += static_cast<std::size_t>(tp->usec);
    }
  });

  r.classifier = measure(in.payload_bytes, in.payloads.size(), [&] {
    for (const auto& p : in.payloads) {
      if (parsers::classify_kernel_payload(p)) ++sink;
    }
  });

  // Keep `sink` live without letting the compiler see through it.
  if (sink == static_cast<std::size_t>(-1)) std::fprintf(stderr, "impossible\n");
  return r;
}

void print_tier(const TierResults& r) {
  std::printf("  [%s]\n", r.isa);
  std::printf("    newline_scan     %8.1f MB/s\n", r.newline_scan.mb_per_s);
  std::printf("    timestamp_parse  %8.1f MB/s  (%.1f M/s)\n", r.timestamp_parse.mb_per_s,
              r.timestamp_parse.items_per_s / 1e6);
  std::printf("    classifier       %8.1f MB/s  (%.1f M/s)\n", r.classifier.mb_per_s,
              r.classifier.items_per_s / 1e6);
}

void write_json(const std::string& path, const Inputs& in, const TierResults& fast,
                const TierResults& swar) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perf_scan: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  char buf[1024];
  const auto tier = [&buf](const TierResults& r) {
    std::snprintf(buf, sizeof(buf),
                  "{\"isa\": \"%s\", \"newline_scan_mb_per_s\": %.1f, "
                  "\"timestamp_parse_mb_per_s\": %.1f, "
                  "\"timestamp_parse_per_s\": %.0f, "
                  "\"classifier_mb_per_s\": %.1f, "
                  "\"classifier_lines_per_s\": %.0f}",
                  r.isa, r.newline_scan.mb_per_s, r.timestamp_parse.mb_per_s,
                  r.timestamp_parse.items_per_s, r.classifier.mb_per_s,
                  r.classifier.items_per_s);
    return std::string(buf);
  };
  out << "{\n"
      << "  \"bench\": \"perf_scan\",\n"
      << "  \"corpus\": {\"system\": \"S1\", \"days\": 1, \"seed\": 42, "
      << "\"console_bytes\": " << in.console_text.size()
      << ", \"timestamps\": " << in.timestamps.size()
      << ", \"payloads\": " << in.payloads.size() << "},\n"
      << "  \"repeats\": " << kRepeats << ",\n"
      << "  \"dispatched\": " << tier(fast) << ",\n"
      << "  \"swar\": " << tier(swar) << "\n"
      << "}\n";
  std::fprintf(stderr, "perf_scan: wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json_path = "BENCH_scan.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "usage: perf_scan [--json[=PATH]]\n");
      return 1;
    }
  }

  std::fprintf(stderr, "perf_scan: rendering S1 day (seed 42)...\n");
  const Inputs in = build_inputs();

  // Dispatched tier first (whatever the CPU + HPCFAIL_NO_SIMD resolve to),
  // then pin the portable SWAR floor and measure the same primitives.
  const TierResults fast = run_tier(in);
  util::scan::force_isa(util::scan::Isa::Swar);
  const TierResults swar = run_tier(in);

  if (!json_path.empty()) {
    write_json(json_path, in, fast, swar);
    return 0;
  }
  std::printf("==== perf_scan (console %zu bytes, %zu timestamps, %zu payloads) ====\n",
              in.console_text.size(), in.timestamps.size(), in.payloads.size());
  print_tier(fast);
  print_tier(swar);
  return 0;
}
