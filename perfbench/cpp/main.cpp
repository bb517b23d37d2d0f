// perfbench: runs one workload of the hpcfail end-to-end benchmark and
// writes its raw result file (samples, values, check ledger) and, for a
// traced run, its span file.  perfbench/run.py builds this binary, drives
// it and turns the raw results into metrics; see perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work DIR --out FILE [--spans FILE] [--days N]
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "util/scan.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload batch_fleet|ingest_archive|serve_tail|"
               "serve_observed --seed N --seconds S --trace 0|1 --work DIR --out FILE "
               "[--spans FILE] [--days N]\n");
  return 2;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void write_spans(const std::string& path) {
  std::ofstream out(path);
  out << "name\tid\tparent\tgroup\tstart_ns\tend_ns\titems\tbytes\n";
  for (const Span& s : Tracer::collect()) {
    out << s.name << '\t' << s.id << '\t' << s.parent << '\t' << s.group << '\t'
        << s.start_ns << '\t' << s.end_ns << '\t' << s.items << '\t' << s.bytes << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string out_path;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--work") {
      options.work_dir = value;
    } else if (key == "--out") {
      out_path = value;
    } else if (key == "--spans") {
      spans_path = value;
    } else if (key == "--days") {
      options.days = std::stoi(value);
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.work_dir.empty() || out_path.empty() || options.days < 4) {
    return usage();
  }

  Results results;
  try {
    std::filesystem::create_directories(options.work_dir);
    if (options.workload == "batch_fleet") {
      run_batch_fleet(options, results);
    } else if (options.workload == "ingest_archive") {
      run_ingest_archive(options, results);
    } else if (options.workload == "serve_tail") {
      run_serve(options, false, results);
    } else if (options.workload == "serve_observed") {
      run_serve(options, true, results);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }

  std::string header = "\"workload\":";
  append_json_string(header, options.workload);
  header += ",\"seed\":" + std::to_string(options.seed);
  header += ",\"days\":" + std::to_string(options.days);
  header += ",\"trace\":" + std::string(options.trace ? "1" : "0");
  header += ",\"peak_rss_mb\":" + std::to_string(peak_rss_mb());
  header += ",\"spans_dropped\":" + std::to_string(Tracer::dropped());
  header += ",\"host\":{\"isa\":";
  append_json_string(header,
                     std::string(hpcfail::util::scan::isa_name(hpcfail::util::scan::active_isa())));
  header += ",\"compiler\":";
  append_json_string(header, PERFBENCH_COMPILER);
  header += ",\"build_type\":";
  append_json_string(header, PERFBENCH_BUILD_TYPE);
  header += "}";
  std::ofstream(out_path) << results.to_json(header) << '\n';
  if (!spans_path.empty()) write_spans(spans_path);
  return 0;
}
