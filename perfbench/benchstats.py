"""Statistics behind the perfbench numbers: percentiles and the tail rule,
quartiles, span self time and coverage, and the same-host A/B comparison.

Pure functions over plain lists and dicts, so tests/test_benchstats.py can
pin every rule without running a workload.
"""
import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
# A percentile is reported only when at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between order
    statistics (numpy's default 'linear' method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values):
    return statistics.median(values)


def tail_supported(n, p):
    """True when at least TAIL_MIN_BEYOND of n samples lie beyond the p-th
    percentile."""
    return n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9


def tail_percentile(n):
    """The highest percentile in TAIL_PERCENTILES with at least
    TAIL_MIN_BEYOND of n samples beyond it, or None."""
    for p in TAIL_PERCENTILES:
        if tail_supported(n, p):
            return p
    return None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


# ------------------------------------------------------------------ spans --

def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: self time in ns}: each span's duration minus the part of
    its interval its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start_ns"], s["start_ns"]), min(c["end_ns"], s["end_ns"]))
                   for c in children.get(s["id"], ())]
        covered = union_length([iv for iv in clipped if iv[1] > iv[0]])
        out[s["id"]] = (s["end_ns"] - s["start_ns"]) - covered
    return out


def is_layer_span(name):
    """Benchmark wrappers are named bench.*; every other span wraps a call
    into one of the program's layers."""
    return not name.startswith("bench.")


def coverage(spans, wrapper):
    """For each span named `wrapper`, the share of its interval covered by
    the outermost layer spans beneath it.  Returns a list of ratios."""
    by_id = {s["id"]: s for s in spans}
    by_group = {}
    for s in spans:
        by_group.setdefault(s["group"], []).append(s)

    def outermost_layer_under(s, target):
        # s is a layer span with only bench.* wrappers between it and target.
        p = by_id.get(s["parent"])
        while p is not None:
            if p["id"] == target:
                return True
            if is_layer_span(p["name"]):
                return False
            p = by_id.get(p["parent"])
        return False

    out = []
    for w in spans:
        if w["name"] != wrapper:
            continue
        inner = [(s["start_ns"], s["end_ns"]) for s in by_group[w["group"]]
                 if is_layer_span(s["name"]) and outermost_layer_under(s, w["id"])]
        length = w["end_ns"] - w["start_ns"]
        out.append(union_length(inner) / length if length > 0 else 0.0)
    return out


# ---------------------------------------------------------------- compare --

def better_of(better, a, b):
    """+1 when b beats a under `better` ('lower' or 'higher'), -1 when a
    beats b, 0 on a tie."""
    if a == b:
        return 0
    b_wins = b < a if better == "lower" else b > a
    return 1 if b_wins else -1


def count_wins(pairs, better):
    """(head wins, base wins, ties) over (base, head) value pairs."""
    wins = losses = ties = 0
    for base, head in pairs:
        r = better_of(better, base, head)
        if r > 0:
            wins += 1
        elif r < 0:
            losses += 1
        else:
            ties += 1
    return wins, losses, ties


MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(pairs, better, bound):
    """Classifies one metric on one workload from its (base, head) pairs.

    - 'unresolved': fewer than MIN_PAIRS pairs, or either side's spread is
      wider than the bound and not every head run beats every base run;
    - 'gain': head wins at least WIN_SHARE of all pairs (ties count for
      neither) and the medians differ, in head's favour, by more than the
      base runs' interquartile range;
    - 'regression': head's median is worse than base's by more than
      bound x base median;
    - 'same' otherwise.
    Returns (verdict, details dict)."""
    base = [b for b, _ in pairs]
    head = [h for _, h in pairs]
    wins, losses, ties = count_wins(pairs, better)
    details = {"pairs": len(pairs), "wins": wins, "losses": losses, "ties": ties}
    if len(pairs) < MIN_PAIRS:
        return "unresolved", details
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    details.update(base_median=bmed, base_q1=bq1, base_q3=bq3,
                   head_median=hmed, head_q1=hq1, head_q3=hq3,
                   base_spread=spread(base), head_spread=spread(head))
    sign = -1.0 if better == "lower" else 1.0
    gain_by = sign * (hmed - bmed)  # > 0 when head is better
    all_better = all(better_of(better, b, h) > 0 for b in base for h in head)
    if max(details["base_spread"], details["head_spread"]) > bound and not all_better:
        return "unresolved", details
    if wins >= WIN_SHARE * len(pairs) and gain_by > (bq3 - bq1):
        return "gain", details
    if -gain_by > bound * abs(bmed):
        return "regression", details
    return "same", details


def pair_runs(base_runs, head_runs):
    """Pairs base and head runs in time order.  Each run is a dict with a
    'started' timestamp.  The merged, time-ordered sequence must split into
    consecutive (base, head) or (head, base) couples; returns the list of
    (base_run, head_run) or raises ValueError naming the first break."""
    merged = sorted([(r["started"], "base", r) for r in base_runs]
                    + [(r["started"], "head", r) for r in head_runs],
                    key=lambda t: t[0])
    if len(merged) % 2:
        raise ValueError("odd number of runs: %d" % len(merged))
    pairs = []
    for i in range(0, len(merged), 2):
        (_, side_a, a), (_, side_b, b) = merged[i], merged[i + 1]
        if side_a == side_b:
            raise ValueError("runs %d and %d are both %s: pairs must alternate"
                             % (i, i + 1, side_a))
        pairs.append((a, b) if side_a == "base" else (b, a))
    return pairs
