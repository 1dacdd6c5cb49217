"""Statistics of the benchmark: percentiles, failure ratio, span self time,
trace validation. Pure functions, tested by tests/test_benchmath.py."""

import math
import statistics

# A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(samples, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of `samples`.

    Returns None when fewer than MIN_TAIL_SAMPLES samples lie above the
    selected rank, so p90 needs at least 100 samples and p50 at least 20.
    """
    n = len(samples)
    if n == 0 or not 0 < p <= 100:
        return None
    rank = math.ceil(p / 100.0 * n)  # 1-based
    if n - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(samples)[rank - 1]


def min_samples_for(p):
    """Smallest sample count for which percentile(samples, p) reports."""
    n = 1
    while n - math.ceil(p / 100.0 * n) < MIN_TAIL_SAMPLES:
        n += 1
    return n


# Calibration time (the geometric mean of the worker's calibration kernels,
# in ms) that calibrated times are scaled to; about the median on a 4-core
# Xeon (Sapphire Rapids) VM.
REFERENCE_CALIBRATION_MS = 0.65


def calibrated(value, kernels_ms):
    """`value`, a time, scaled to the reference host speed: multiplied by
    REFERENCE_CALIBRATION_MS over the geometric mean of the calibration
    kernels' times taken next to it."""
    if not kernels_ms or min(kernels_ms) <= 0:
        raise ValueError("calibration times must be positive")
    log_mean = sum(math.log(k) for k in kernels_ms) / len(kernels_ms)
    return value * REFERENCE_CALIBRATION_MS / math.exp(log_mean)


def median(values):
    return statistics.median(values) if values else None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else None
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 in (None, 0):
        return None
    return (q3 - q1) / abs(q2)


def failed_op_ratio(attempted, failed):
    """Failed, refused or wrong ops over ops attempted."""
    if attempted <= 0:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed ops must lie in [0, attempted]")
    return failed / attempted


def covered_length(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
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
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover.

    `spans` are dicts with id, parent, start and end (any one time unit);
    returns {id: self time}.
    """
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        inside = [(max(c["start"], span["start"]), min(c["end"], span["end"]))
                  for c in children.get(span["id"], [])]
        inside = [(s, e) for s, e in inside if e > s]
        out[span["id"]] = (span["end"] - span["start"]) - covered_length(inside)
    return out


def validate_trace(doc):
    """Checks a trace-event JSON document (Chrome/Perfetto "X" events as the
    worker writes them). Returns a list of problems; empty when valid."""
    problems = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["no traceEvents list"]
    ids = set()
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"event {i}"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        for key, kind in (("name", str), ("ph", str), ("ts", (int, float)),
                          ("dur", (int, float)), ("pid", int), ("tid", int),
                          ("args", dict)):
            if not isinstance(ev.get(key), kind):
                problems.append(f"{where}: bad or missing {key}")
        if problems and problems[-1].startswith(where):
            continue
        if ev["ph"] != "X":
            problems.append(f"{where}: phase {ev['ph']!r} is not X")
        if ev["dur"] < 0:
            problems.append(f"{where}: negative duration")
        span_id = ev["args"].get("id")
        if not isinstance(span_id, int) or span_id <= 0 or span_id in ids:
            problems.append(f"{where}: span id missing or repeated")
        ids.add(span_id)
    for i, ev in enumerate(doc["traceEvents"]):
        if isinstance(ev, dict) and isinstance(ev.get("args"), dict):
            parent = ev["args"].get("parent")
            if parent not in (0, None) and parent not in ids:
                problems.append(f"event {i}: parent {parent} not in trace")
    return problems


def trace_spans(doc):
    """The spans of a valid trace document, as dicts for self_times()."""
    return [{"id": ev["args"]["id"], "parent": ev["args"]["parent"],
             "op": ev["args"].get("op", 0), "bytes": ev["args"].get("bytes", 0),
             "name": ev["name"], "start": ev["ts"], "end": ev["ts"] + ev["dur"]}
            for ev in doc["traceEvents"]]
