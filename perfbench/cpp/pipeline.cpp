// The two batch workloads: batch_fleet (simulate -> render -> write ->
// ingest -> analyze -> report for S1-S5) and ingest_archive (text ingest
// and snapshot restart of one written S2 corpus).  See README.md for why
// each exists and which layer it stresses.
#include <algorithm>
#include <array>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "layers.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace hpcfail;

constexpr std::array<platform::SystemName, 5> kFleet = {
    platform::SystemName::S1, platform::SystemName::S2, platform::SystemName::S3,
    platform::SystemName::S4, platform::SystemName::S5};

/// Runs timed passes until `seconds` have elapsed (at least one; two in a
/// traced run).  In a traced run, odd passes are traced and even passes
/// are not, so the tracing overhead is measured inside one process on warm
/// state.
template <typename Pass>
void timed_passes(const RunOptions& options, Pass&& pass) {
  const Clock::time_point start = Clock::now();
  std::size_t passes = 0;
  const std::size_t min_passes = options.trace ? 2 : 1;
  while (passes < min_passes || seconds_between(start, Clock::now()) < options.seconds) {
    const bool traced = options.trace && passes % 2 == 1;
    Tracer::enable(traced);
    {
      const Tracer::Group group(Tracer::next_group());
      pass(traced ? std::string(".traced") : std::string());
    }
    ++passes;
  }
  Tracer::enable(false);
}

}  // namespace

void run_batch_fleet(const RunOptions& options, Results& results) {
  struct Reference {
    std::string report;
    std::size_t failures = 0;
  };
  std::array<Reference, kFleet.size()> reference;

  util::ThreadPool pool(1);  // the single-thread ingest baseline
  parsers::IngestOptions ingest_options;
  ingest_options.pool = &pool;

  // One scenario: simulate -> render -> write -> ingest -> analyze -> report.
  const auto scenario = [&](std::size_t i, std::string* text, std::size_t* failures) {
    Tracer::Scope span("bench.scenario");
    const std::string dir =
        options.work_dir + "/fleet-" + platform::to_string(kFleet[i]);
    const faultsim::SimulationResult sim = simulate(kFleet[i], options.days, options.seed + i);
    const loggen::Corpus corpus = render(sim);
    write(corpus, dir);
    const parsers::IngestResult parsed = ingest(dir, corpus.bytes(), ingest_options, results);
    *failures = analyze(parsed);
    *text = report(parsed);
    note_ingest(parsed, "." + platform::to_string(kFleet[i]), results);
  };

  // Set-up: the reference pass.  It fills every lazy cache and yields the
  // reports and failure counts every timed pass must reproduce exactly.
  Tracer::enable(options.trace);
  const Clock::time_point setup_start = Clock::now();
  {
    const Tracer::Group group(Tracer::next_group());
    Tracer::Scope span("bench.setup");
    for (std::size_t i = 0; i < kFleet.size(); ++i) {
      scenario(i, &reference[i].report, &reference[i].failures);
    }
  }
  results.add("setup_s", seconds_between(setup_start, Clock::now()));

  timed_passes(options, [&](const std::string& suffix) {
    Tracer::Scope span("bench.pass");
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t i = 0; i < kFleet.size(); ++i) {
      std::string text;
      std::size_t failures = 0;
      scenario(i, &text, &failures);
      const std::string system = platform::to_string(kFleet[i]);
      results.check(text == reference[i].report,
                    "batch_fleet " + system + ": report differs from the reference pass");
      results.check(failures == reference[i].failures,
                    "batch_fleet " + system + ": failure count differs");
    }
    results.add("op_ms" + suffix, 1e3 * seconds_between(pass_start, Clock::now()));
  });

  std::size_t failures = 0;
  for (const Reference& r : reference) failures += r.failures;
  results.set("core.failures", static_cast<double>(failures));
}

void run_ingest_archive(const RunOptions& options, Results& results) {
  constexpr int kSetupRounds = 3;
  const std::string dir = options.work_dir + "/archive";
  const std::string snapshot = options.work_dir + "/archive.snap";

  util::ThreadPool pool(std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4));
  parsers::IngestOptions ingest_options;
  ingest_options.pool = &pool;

  // Set-up, repeated: write the S2 corpus directory, then one reference
  // ingest -> analyze -> report that every timed pass must reproduce.
  std::string reference;
  std::size_t failures = 0;
  std::uint64_t corpus_bytes = 0;
  Tracer::enable(options.trace);
  for (int round = 0; round < kSetupRounds; ++round) {
    const Clock::time_point t0 = Clock::now();
    const Tracer::Group group(Tracer::next_group());
    Tracer::Scope span("bench.setup");
    {
      const loggen::Corpus corpus =
          render(simulate(platform::SystemName::S2, options.days, options.seed));
      corpus_bytes = corpus.bytes();
      write(corpus, dir);
    }
    const parsers::IngestResult parsed = ingest(dir, corpus_bytes, ingest_options, results);
    failures = analyze(parsed);
    reference = report(parsed);
    note_ingest(parsed, "", results);
    results.add("setup_s", seconds_between(t0, Clock::now()));
  }
  results.set("core.failures", static_cast<double>(failures));

  timed_passes(options, [&](const std::string& suffix) {
    Tracer::Scope span("bench.pass");
    // corpus dir -> report
    const Clock::time_point t0 = Clock::now();
    parsers::IngestResult parsed = ingest(dir, corpus_bytes, ingest_options, results);
    const std::string text = report(parsed);
    const Clock::time_point t1 = Clock::now();
    results.add("op_ms" + suffix, 1e3 * seconds_between(t0, t1));
    results.check(text == reference,
                  "ingest_archive: text-ingest report differs from the reference");

    save(parsed, snapshot, results);

    // snapshot file -> report (a restart)
    const Clock::time_point t2 = Clock::now();
    parsers::SnapshotLoadResult loaded = load(snapshot, results);
    const std::string restarted = report(loaded);
    results.add("refresh_ms", 1e3 * seconds_between(t2, Clock::now()));
    results.check(restarted == text,
                  "ingest_archive: snapshot report differs from the text-ingest report");

    // Freeing two corpora's stores and job tables is part of every pass.
    Tracer::Scope release("logmodel.release");
    parsed = {};
    loaded = {};
  });
  results.set("parsers.snapshot_bytes", static_cast<double>(std::filesystem::file_size(snapshot)));
}

}  // namespace perfbench
