#!/usr/bin/env python3
"""The hpcfail end-to-end benchmark.

One workload, as BENCHMARK.json runs it (last stdout line is the JSON
result; exit status 0 only when every correctness check passed):

    python3 perfbench/run.py --workload batch_fleet --seed 1 --seconds 10 --trace 0

Every workload, with the end-to-end metrics under the names of the
benchmark doc, their units and sample counts, plus a traced run of each:

    python3 perfbench/run.py all [--seed N] [--seconds S] [--results DIR]

Same-host A/B comparison of two sets of saved result files:

    python3 perfbench/run.py compare BASE_DIR HEAD_DIR

The C++ driver (perfbench/cpp) is built from this checkout's sources into
$CARGO_TARGET_DIR (default .bench_build) on first use.  See README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchstats as bs  # noqa: E402

WORKLOADS = ("batch_fleet", "ingest_archive", "serve_tail", "serve_observed")
SERVE = ("serve_tail", "serve_observed")
VERBS = ("status", "ping", "causes", "lead_time", "node_health", "report", "metrics")
CHILD_TIMEOUT_S = 165


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds the driver; returns its path.  Raises
    RuntimeError when the checkout cannot be built."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    binary = out / "perfbench"
    if not binary.exists():
        raise RuntimeError("build produced no perfbench binary")
    return binary


# ---------------------------------------------------------------- host id --

def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=False)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "none"


def source_digest():
    """sha256 over the program's sources and the benchmark's own files, so
    results from checkouts without git history still name their code."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_fingerprint(raw_host):
    return {
        "cpu_model": cpu_model(),
        "logical_cores": os.cpu_count(),
        "isa": raw_host.get("isa"),
        "compiler": raw_host.get("compiler"),
        "build_type": raw_host.get("build_type"),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }


# Fingerprint fields that must match for two results to be compared.
SAME_HOST_KEYS = ("cpu_model", "logical_cores", "isa", "compiler", "build_type")


# ---------------------------------------------------------------- metrics --

def load_spans(path):
    """(spans, total): the recorded spans, without the client request spans
    (root spans named serve.handle_line.*, which feed no metric: per-verb
    latencies come from the reservoirs), and the count of all spans."""
    spans, total = [], 0
    with open(path, encoding="utf-8") as f:
        next(f)
        for line in f:
            total += 1
            name, sid, parent, group, start, end, items, nbytes = line.rstrip("\n").split("\t")
            if parent == "0" and name.startswith("serve.handle_line."):
                continue
            spans.append({"name": name, "id": int(sid), "parent": int(parent),
                          "group": int(group), "start_ns": int(start), "end_ns": int(end),
                          "items": int(items), "bytes": int(nbytes)})
    return spans, total


def queries_of(raw, traced=False):
    """Client query latencies (µs) of one phase, one list per verb."""
    prefix = "query_us.traced." if traced else "query_us."
    return [raw["series"].get(prefix + verb, []) for verb in VERBS]


def op_p50_ms(raw, traced=False):
    """The workload's unit-operation latency in ms: the median fleet pass or
    archive pass (corpus dir -> report), or for the serve workloads the
    median over verbs of each verb's median query latency.  The verbs differ
    in cost; a pooled median falls between their clusters and jumps with
    small shifts."""
    if raw["workload"] in SERVE:
        return bs.median([bs.median(v) for v in queries_of(raw, traced) if v]) / 1e3
    return bs.median(raw["series"]["op_ms.traced" if traced else "op_ms"])


FLEET_SIZE = 5  # S1-S5 per batch_fleet pass


def refresh_p50_ms(raw):
    """New data -> report latency in ms: the median pass's mean scenario
    time (seed -> its report) on batch_fleet, else the median restart or
    freshness."""
    series = raw["series"]
    if raw["workload"] == "batch_fleet":
        return bs.median(series["op_ms"]) / FLEET_SIZE
    return bs.median(series["refresh_ms"])


def end_to_end(raw):
    """The BENCHMARK.json end-to-end metrics of one untraced run."""
    return {
        "setup_s": (bs.median(raw["series"]["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "op_p50_ms": (op_p50_ms(raw), "ms"),
        "refresh_p50_ms": (refresh_p50_ms(raw), "ms"),
    }


def per_layer(raw, spans):
    """The BENCHMARK.json per-layer metrics of one traced run.  A layer the
    workload never calls reads 0."""
    series, values = raw["series"], raw["values"]
    selfs = bs.self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def per_group_median_s(name):
        # Self time summed within each pass / set-up round, median over them.
        sums = {}
        for s in by_name.get(name, ()):
            sums[s["group"]] = sums.get(s["group"], 0) + selfs[s["id"]]
        return bs.median(list(sums.values())) / 1e9 if sums else 0.0

    def rate(name, field, scale):
        work = sum(s[field] for s in by_name.get(name, ()))
        busy = sum(selfs[s["id"]] for s in by_name.get(name, ())) / 1e9
        return work / scale / busy if busy > 0 else 0.0

    def durations_ms(name, parent_name=None):
        ids = {s["id"] for s in by_name.get(parent_name, ())} if parent_name else None
        return [(s["end_ns"] - s["start_ns"]) / 1e6 for s in by_name.get(name, ())
                if ids is None or s["parent"] in ids]

    def pct(vals, p):
        return bs.percentile(vals, p) if vals else 0.0

    def value_sum(prefix):
        return sum(v for k, v in values.items() if k == prefix or k.startswith(prefix + "."))

    total_lines = value_sum("parsers.total_lines")
    poll_ms = durations_ms("serve.poll_tail")
    out = {
        "faultsim.run_s": per_group_median_s("faultsim.run"),
        "faultsim.records_per_s": rate("faultsim.run", "items", 1.0),
        "loggen.build_corpus_s": per_group_median_s("loggen.build_corpus"),
        "loggen.render_mb_s": rate("loggen.build_corpus", "bytes", 1e6),
        "loggen.write_corpus_s": per_group_median_s("loggen.write_corpus"),
        "parsers.ingest_files_s": per_group_median_s("parsers.ingest_files"),
        "parsers.ingest_mb_s": rate("parsers.ingest_files", "bytes", 1e6),
        "parsers.records": value_sum("parsers.records"),
        "parsers.skipped_ratio": (value_sum("parsers.skipped_lines") / total_lines
                                  if total_lines else 0.0),
        "parsers.save_snapshot_s": per_group_median_s("parsers.save_snapshot"),
        "parsers.load_snapshot_s": per_group_median_s("parsers.load_snapshot"),
        "parsers.snapshot_mb": values.get("parsers.snapshot_bytes", 0.0) / 1e6,
        "core.analyze_ms": 1e3 * per_group_median_s("core.analyze"),
        "core.markdown_report_ms": 1e3 * per_group_median_s("core.markdown_report"),
        "core.failures": values.get("core.failures", 0.0),
        "serve.boot_ms": 1e3 * per_group_median_s("serve.boot"),
        "serve.poll_tail_p50_ms": pct(poll_ms, 50),
        "serve.poll_tail_p90_ms": pct(poll_ms, 90),
        "serve.poll_records": values.get("serve.poll_records", 0.0),
        "serve.recompute_ms": pct(durations_ms("serve.handle_line.causes", "bench.batch"), 50),
        "serve.recomputes_per_epoch": (values["serve.analysis_recomputes"] / values["serve.epochs"]
                                       if values.get("serve.epochs") else 0.0),
        "serve.generator_late_ms": pct(series.get("serve.generator_late_ms", []), 90),
        "util.metrics_export_ms": pct(durations_ms("util.metrics_to_json"), 50),
    }
    for verb in VERBS:
        out["serve.%s_us" % verb] = pct(series.get("query_us.traced." + verb, []), 50)

    out["trace.overhead_pct"] = 100.0 * (op_p50_ms(raw, traced=True) / op_p50_ms(raw) - 1.0)
    wrapper = "bench.batch" if raw["workload"] in SERVE else "bench.pass"
    cov = bs.coverage(spans, wrapper)
    out["trace.coverage_pct"] = 100.0 * min(cov) if cov else 0.0
    out["trace.spans"] = float(raw["span_count"])
    return out


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


# ------------------------------------------------------------ one workload --

def run_workload(binary, workload, seed, seconds, trace, days=None, keep_spans=None):
    """Runs the driver once; returns the raw result dict plus 'spans' (a
    list, traced runs only) and 'exit' (the driver's exit status).  A
    traced run's span file is copied to `keep_spans` when given."""
    work = ROOT / ".bench_work" / ("%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    raw_path, spans_path = work / "raw.json", work / "spans.tsv"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work", str(work / "data"), "--out", str(raw_path)]
    if trace:
        cmd += ["--spans", str(spans_path)]
    if days is not None:
        cmd += ["--days", str(days)]
    try:
        proc = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0 or not raw_path.exists():
            return {"exit": proc.returncode or 1}
        with open(raw_path, encoding="utf-8") as f:
            raw = json.load(f)
        raw["exit"] = 0
        raw["spans"], raw["span_count"] = load_spans(spans_path) if trace else ([], 0)
        if trace and keep_spans:
            shutil.copyfile(spans_path, keep_spans)
        return raw
    except subprocess.TimeoutExpired:
        log("%s: driver timed out after %ds" % (workload, CHILD_TIMEOUT_S))
        return {"exit": 124}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def result_of(raw, trace):
    """The result line of one run: correct, attempted, failed, metrics."""
    correct = raw.get("exit") == 0 and raw.get("failed", 1) == 0
    attempted = int(raw.get("attempted", 0)) or 1
    failed = int(raw.get("failed", 0)) if raw.get("exit") == 0 else attempted
    metrics = {}
    if raw.get("exit") == 0:
        if trace:
            units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
            metrics = {k: {"value": v, "unit": units[k]}
                       for k, v in per_layer(raw, raw["spans"]).items() if k in units}
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(raw).items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def result_path(results_dir, workload, seed, trace, started):
    """Where a run's result file goes; its span file takes the same stem."""
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    return results_dir / ("%s-seed%d-trace%d-%d.json" % (workload, seed, int(trace),
                                                         int(started * 1e6)))


def save_result(path, raw, result, seed, seconds, trace, started):
    doc = {"workload": raw.get("workload"), "seed": seed, "seconds": seconds,
           "trace": int(trace), "started": started,
           "host": host_fingerprint(raw.get("host", {})),
           "errors": raw.get("errors", []), "result": result}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)


def run_and_save(binary, args, workload, trace):
    """One run; saves its result (and span file) under args.results."""
    started = time.time()
    path = result_path(args.results, workload, args.seed, trace, started) if args.results \
        else None
    raw = run_workload(binary, workload, args.seed, args.seconds, trace, args.days,
                       keep_spans=path.with_suffix(".spans.tsv") if path else None)
    result = result_of(raw, trace)
    if path:
        save_result(path, raw, result, args.seed, args.seconds, trace, started)
    return raw, result


def cmd_one(args):
    raw, result = run_and_save(build(), args, args.workload, bool(args.trace))
    if raw.get("exit") == 0:
        print("# host " + json.dumps(host_fingerprint(raw["host"]), sort_keys=True))
        for err in raw.get("errors", []):
            print("# check failed: " + err)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


# -------------------------------------------------------------- all / doc --

def summary_rows(raw):
    """(name, value, unit, samples) rows of the benchmark doc's end-to-end
    metrics for one untraced run.  A tail percentile reads None when the
    run has fewer than 10 samples beyond it."""
    w, series, values = raw["workload"], raw["series"], raw["values"]
    rows = [("setup_s", bs.median(series["setup_s"]), "s", len(series["setup_s"])),
            ("peak_rss_mb", raw["peak_rss_mb"], "MB", 1),
            ("error_rate", raw["failed"] / max(1, raw["attempted"]), "ratio",
             int(raw["attempted"]))]

    def timing(name, samples, scale, unit):
        # The median, plus the highest percentile with >= 10 samples beyond it.
        rows = [(name, bs.median(samples) * scale, unit, len(samples))]
        p = bs.tail_percentile(len(samples))
        if p:
            rows.append(("%s.p%g" % (name, p), bs.percentile(samples, p) * scale, unit,
                         len(samples)))
        return rows

    def named_tail(samples, p, n):
        return bs.percentile(samples, p) if bs.tail_supported(n, p) else None

    if w == "batch_fleet":
        rows += timing("fleet_report_s", series["op_ms"], 1e-3, "s")
    elif w == "ingest_archive":
        rows += timing("archive_report_s", series["op_ms"], 1e-3, "s")
        rows += timing("restart_s", series["refresh_ms"], 1e-3, "s")
    else:
        queries, n = [q for verb in queries_of(raw) for q in verb], int(values["queries"])
        fresh = series["refresh_ms"]
        rows += [("query_p50_us", bs.median(queries), "us", n),
                 ("query_p99_us", named_tail(queries, 99, n), "us", n),
                 ("query_per_s", n / values["phase_s"], "1/s", n),
                 ("fresh_p50_ms", bs.median(fresh), "ms", len(fresh)),
                 ("fresh_p90_ms", named_tail(fresh, 90, len(fresh)), "ms", len(fresh))]
    return rows


def fmt(v):
    return "n/a (too few samples)" if v is None else "%.6g" % v


def cmd_all(args):
    binary = build()
    ok = True
    untraced = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            raw, result = run_and_save(binary, args, workload, trace)
            ok = ok and result["correct"]
            if raw.get("exit") != 0:
                print("%s: driver failed (exit %s)" % (workload, raw.get("exit")))
                continue
            for err in raw.get("errors", []):
                print("%s: check failed: %s" % (workload, err))
            if not trace:
                untraced[workload] = raw
                print("== %s (seed %d, %gs)  host %s" % (
                    workload, args.seed, args.seconds,
                    json.dumps(host_fingerprint(raw["host"]), sort_keys=True)))
                for name, value, unit, n in summary_rows(raw):
                    print("  %-22s %-22s %-6s n=%d" % (name, fmt(value), unit, n))
            else:
                print("  -- traced run: per-layer metrics")
                for name, metric in result["metrics"].items():
                    print("  %-30s %-14s %s" % (name, "%.6g" % metric["value"], metric["unit"]))
    if "serve_tail" in untraced and "serve_observed" in untraced:
        print("== serve_observed - serve_tail, per-verb p50 delta (us)")
        for verb in VERBS:
            a = untraced["serve_tail"]["series"].get("query_us." + verb)
            b = untraced["serve_observed"]["series"].get("query_us." + verb)
            if a and b:
                print("  %-12s %+.3f" % (verb, bs.median(b) - bs.median(a)))
    print("correct: %s" % ok)
    return 0 if ok else 1


# ---------------------------------------------------------------- compare --

def load_results(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        if doc.get("trace") == 0 and doc["result"].get("correct"):
            runs.append(doc)
    return runs


def compare(base_runs, head_runs, spec):
    """Per workload and end-to-end metric, the verdict of the same-host
    rule.  Raises ValueError when the hosts differ or pairs do not
    alternate."""
    hosts = {tuple(r["host"].get(k) for k in SAME_HOST_KEYS) for r in base_runs + head_runs}
    if len(hosts) > 1:
        raise ValueError("results come from different hosts: %s" % sorted(hosts))
    report = {}
    for workload in sorted({r["workload"] for r in base_runs + head_runs}):
        pairs = bs.pair_runs([r for r in base_runs if r["workload"] == workload],
                             [r for r in head_runs if r["workload"] == workload])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [(b["result"]["metrics"][name]["value"], h["result"]["metrics"][name]["value"])
                      for b, h in pairs]
            report[(workload, name)] = bs.verdict(values, metric["better"], metric["bound"])
    return report


def cmd_compare(args):
    try:
        report = compare(load_results(args.base), load_results(args.head), load_spec())
    except ValueError as e:
        print("compare: " + str(e))
        return 2
    regressed = False
    for (workload, name), (verdict, d) in sorted(report.items()):
        regressed |= verdict == "regression"
        line = "%-15s %-16s %-11s pairs=%d wins=%d ties=%d" % (
            workload, name, verdict, d["pairs"], d["wins"], d["ties"])
        if "base_median" in d:
            line += "  base %.6g [%.6g, %.6g]  head %.6g [%.6g, %.6g]" % (
                d["base_median"], d["base_q1"], d["base_q3"],
                d["head_median"], d["head_q1"], d["head_q3"])
        print(line)
    return 1 if regressed else 0


# ------------------------------------------------------------------- main --

def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("head")
        return cmd_compare(p.parse_args(argv[1:]))
    if argv and argv[0] == "all":
        p = argparse.ArgumentParser(prog="run.py all")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
        p.add_argument("--results")
        p.add_argument("--days", type=int, help="simulated days (smoke runs only)")
        args = p.parse_args(argv[1:])
        try:
            return cmd_all(args)
        except RuntimeError as e:
            log(str(e))
            return 2
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--results", help="also save the full result file here")
    p.add_argument("--days", type=int, help="simulated days (smoke runs only)")
    args = p.parse_args(argv)
    try:
        return cmd_one(args)
    except RuntimeError as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
