"""Turns the perfbench driver's raw measurements into named metrics and
checks the correctness gate.

Kept free of I/O so its rules are unit-tested (test_ledger.py):

* timings are reported as a median plus a tail: the highest percentile of
  TAIL_LADDER that still has at least MIN_BEYOND samples beyond it, with
  the sample count;
* every ratio is computed by ratio(), which refuses an empty base;
* the gate compares digests of every sweep of one run and fails on any
  mismatch, any resubmitted resume unit, and any failed unit.
"""

import math
import statistics

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10

# The registry names the workloads use. Per-layer metrics are reported for
# all of them on every workload: the trace run scores every sparsifier and
# times every metric the sweep does not run on probe cells.
ALL_ALGOS = ("RN", "KN", "RD", "LD", "SF", "SP-3", "SP-5", "SP-7", "FF",
             "LS", "GS", "LSim", "SCAN", "ER-uw", "TRI", "SIMM", "ALG",
             "LS-MH")
ALL_METRICS = ("betweenness", "closeness", "connectivity", "degree",
               "diameter", "eccentricity", "isolated", "kcore", "spsp")
LAYERS = ("engine", "graph", "metrics", "sparsifiers", "store")
FSYNC_POLICIES = ("none", "batch", "always")

# (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("units_per_s_1t", "units/s", "higher"),
    ("units_per_s", "units/s", "higher"),
    ("resume_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [("sparsifiers.score_s." + a, "s", "lower") for a in ALL_ALGOS]
    spec += [
        ("sparsifiers.critical_share", "ratio", "lower"),
        ("sparsifiers.mask_us_p50", "us", "lower"),
        ("linalg.cg_solve_ms_p50", "ms", "lower"),
        ("linalg.cg_iters", "count", "lower"),
    ]
    for m in ALL_METRICS:
        spec += [
            ("metrics.unit_ms_p50." + m, "ms", "lower"),
            ("metrics.unit_ms_tail." + m, "ms", "lower"),
            ("metrics.units." + m, "count", "higher"),
        ]
    spec += [
        ("graph.dataset_build_s", "s", "lower"),
        ("graph.bfs_per_s", "1/s", "higher"),
        ("graph.apply_us_p50", "us", "lower"),
        ("graph.apply_us_tail", "us", "lower"),
        ("engine.pool_util", "ratio", "higher"),
        ("engine.queue_high_water", "count", "lower"),
        ("engine.score_groups", "count", "lower"),
        ("engine.subgraph_builds", "count", "lower"),
        ("engine.metric_units", "count", "lower"),
        ("engine.metric_seconds", "s", "lower"),
        ("engine.self_s", "s", "lower"),
    ]
    for p in FSYNC_POLICIES:
        spec += [
            ("store.append_us_p50." + p, "us", "lower"),
            ("store.append_us_tail." + p, "us", "lower"),
        ]
    spec += [
        ("store.append_contended_us_p50", "us", "lower"),
        ("store.append_contended_us_tail", "us", "lower"),
        ("store.append_in_sweep_s", "s", "lower"),
        ("store.replay_mb_per_s.seg1", "MB/s", "higher"),
        ("store.replay_mb_per_s.seg8", "MB/s", "higher"),
        ("store.lookup_ns", "ns", "lower"),
        ("store.bytes_per_unit", "B", "lower"),
        ("store.open_s", "s", "lower"),
        ("util.failpoint_ns.unarmed", "ns", "lower"),
        ("util.failpoint_ns.armed_other", "ns", "lower"),
        ("util.cancel_poll_ns.unarmed", "ns", "lower"),
        ("util.cancel_poll_ns.armed", "ns", "lower"),
        ("util.crc32c_gb_per_s", "GB/s", "higher"),
        ("obs.span_ns.off", "ns", "lower"),
        ("obs.span_ns.on", "ns", "lower"),
        ("obs.trace_overhead", "ratio", "lower"),
    ]
    spec += [("obs.self_s." + layer, "s", "lower") for layer in LAYERS]
    return tuple(spec)


def median(values):
    """Median of `values`; 0.0 for no samples."""
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Nearest-rank p-th percentile: the smallest sample with at least p%
    of the samples at or below it. Returns (value, samples beyond it)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Tail:
    """The tail of one timing: which percentile, its value, how many
    samples lie beyond it, and of how many."""

    def __init__(self, pct, value, beyond, count):
        self.pct, self.value, self.beyond, self.count = pct, value, beyond, count

    @property
    def resolved(self):
        return self.beyond >= MIN_BEYOND

    def describe(self):
        if self.count == 0:
            return "no samples"
        text = "p%g of %d samples, %d beyond" % (self.pct, self.count,
                                                  self.beyond)
        if not self.resolved:
            text += "; too few samples for a tail, the median is reported"
        return text


def tail(values):
    """Highest TAIL_LADDER percentile with >= MIN_BEYOND samples beyond it.

    With too few samples for any of them the median row (p50) is returned
    and Tail.resolved is False; with none the value is 0.
    """
    if not values:
        return Tail(None, 0.0, 0, 0)
    best = None
    for p in TAIL_LADDER:
        value, beyond = percentile(values, p)
        if beyond >= MIN_BEYOND:
            best = Tail(p, value, beyond, len(values))
    if best is None:
        value, beyond = percentile(values, 50.0)
        best = Tail(50.0, value, beyond, len(values))
    return best


def ratio(numerator, base):
    """numerator / base; a ratio without a positive base is an error."""
    if not base > 0:
        raise ValueError("ratio with non-positive base %r" % (base,))
    return numerator / base


def gate(raw):
    """Correctness violations of one driver run (empty = correct).

    Every cold sweep of a run uses the same seed, so all of them must
    export byte-identical stores (1-thread vs N-thread is the determinism
    contract) and fold identical series; every resume must submit 0 units
    and fold the cold series; no unit may fail or be cancelled.
    """
    problems = []
    cold = raw["sweeps"]
    if not cold:
        return ["no cold sweep ran"]
    exports = {s["export_digest"] for s in cold}
    if len(exports) != 1:
        problems.append("store exports differ across cold sweeps "
                        "(threads %s): %s" % (
                            sorted({s["threads"] for s in cold}),
                            sorted(exports)))
    series = {s["series_digest"] for s in cold}
    if len(series) != 1:
        problems.append("folded series differ across cold sweeps: %s"
                        % sorted(series))
    resumes = raw["resumes"]
    resubmitted = [r["submitted"] for r in resumes if r["submitted"] > 0]
    if resubmitted:
        problems.append("%d of %d resumes submitted units (up to %d; "
                        "expected 0)" % (len(resubmitted), len(resumes),
                                         max(resubmitted)))
    differing = sum(1 for r in resumes if r["series_digest"] not in series)
    if differing:
        problems.append("%d of %d resumes folded series that differ from "
                        "the cold run's" % (differing, len(resumes)))
    _, failed = counts(raw)
    if failed > 0:
        problems.append("%d units failed or were cancelled" % failed)
    return problems


def counts(raw):
    """(attempted, failed) units over every sweep of a run."""
    runs = raw["sweeps"] + raw["resumes"]
    attempted = sum(s["submitted"] for s in runs)
    failed = sum(s["failed"] + s["cancelled"] for s in runs)
    return attempted, failed


def export_digest(raw):
    return raw["sweeps"][0]["export_digest"]


def _rates(raw, one_thread):
    return [ratio(s["submitted"], s["seconds"]) for s in raw["sweeps"]
            if (s["threads"] == 1) == one_thread and not s.get("warmup")]


def e2e_metrics(raw):
    """End-to-end values by name, plus one note per metric for the log."""
    rates_1t, rates_nt = _rates(raw, True), _rates(raw, False)
    resumes = [r["seconds"] for r in raw["resumes"]]
    units = raw["sweeps"][0]["submitted"]
    values = {
        "setup_s": median(raw["setup_s"]),
        "units_per_s_1t": median(rates_1t),
        "units_per_s": median(rates_nt),
        # Total over count, not a median: on a shared host the per-resume
        # times are bimodal, and a median jumps between the two modes.
        "resume_s": ratio(sum(resumes), len(resumes)),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    notes = {
        "setup_s": "median of %d set-ups (dataset build + store open + "
                   "pool start)" % len(raw["setup_s"]),
        "units_per_s_1t": "median of %d cold 1-thread sweeps of %d units"
                          % (len(rates_1t), units),
        "units_per_s": "median of %d cold %d-thread sweeps of %d units"
                       % (len(rates_nt), raw["threads"], units),
        "resume_s": "mean of %d store reopens + --resume sweeps"
                    % len(resumes),
        "peak_rss_mb": "VmHWM of the driver process after its first "
                       "1-thread and N-thread sweeps",
    }
    return values, notes


def trace_metrics(raw):
    """Per-layer values by name, plus notes for tails and ratios."""
    values, notes = {}, {}
    sweeps = raw["sweeps"]
    untraced_1t, traced_1t, pooled = sweeps[0], sweeps[1], sweeps[2]
    engine = raw["engine"]

    score_s = raw["sparsifiers"]["score_s"]
    for a in ALL_ALGOS:
        values["sparsifiers.score_s." + a] = score_s.get(a, 0.0)
    largest = max(score_s.values()) if score_s else 0.0
    values["sparsifiers.critical_share"] = ratio(largest, pooled["seconds"])
    notes["sparsifiers.critical_share"] = (
        "largest PrepareScores group %.4g s / %d-thread cold sweep %.4g s"
        % (largest, pooled["threads"], pooled["seconds"]))
    values["sparsifiers.mask_us_p50"] = median(raw["sparsifiers"]["mask_us"])

    values["linalg.cg_solve_ms_p50"] = median(raw["cg"]["solve_ms"])
    values["linalg.cg_iters"] = median(raw["cg"]["iterations"])

    # Metric time inside the traced sweep; metrics the sweep does not run
    # were timed on probe cells instead.
    swept = raw["metric_unit_ms"]
    wrapped_s = sum(sum(v) for v in swept.values()) / 1e3
    for m in ALL_METRICS:
        samples = swept.get(m) or raw["probe_metric_unit_ms"].get(m, [])
        t = tail(samples)
        values["metrics.unit_ms_p50." + m] = median(samples)
        values["metrics.unit_ms_tail." + m] = t.value
        values["metrics.units." + m] = len(samples)
        notes["metrics.unit_ms_tail." + m] = t.describe()

    apply_tail = tail(raw["sparsifiers"]["apply_us"])
    values["graph.dataset_build_s"] = raw["dataset_build_s"]
    values["graph.bfs_per_s"] = raw["bfs_per_s"]
    values["graph.apply_us_p50"] = median(raw["sparsifiers"]["apply_us"])
    values["graph.apply_us_tail"] = apply_tail.value
    notes["graph.apply_us_tail"] = apply_tail.describe()

    busy = raw["pool"]["busy_seconds"]
    values["engine.pool_util"] = ratio(busy,
                                       pooled["seconds"] * pooled["threads"])
    notes["engine.pool_util"] = ("pool busy %.4g s / (%.4g s wall x %d "
                                 "threads)" % (busy, pooled["seconds"],
                                               pooled["threads"]))
    values["engine.queue_high_water"] = raw["pool"]["queue_high_water"]
    values["engine.score_groups"] = engine["score_groups"]
    values["engine.subgraph_builds"] = engine["subgraph_builds"]
    values["engine.metric_units"] = traced_1t["submitted"]
    values["engine.metric_seconds"] = engine["metric_seconds"]
    in_sweep = engine["metric_seconds"] - wrapped_s
    values["store.append_in_sweep_s"] = in_sweep
    notes["store.append_in_sweep_s"] = (
        "engine metric_seconds %.4g s - wrapped metric time %.4g s"
        % (engine["metric_seconds"], wrapped_s))
    values["engine.self_s"] = (traced_1t["seconds"] - engine["score_seconds"]
                               - engine["subgraph_seconds"] - wrapped_s
                               - in_sweep)
    notes["engine.self_s"] = (
        "1-thread traced wall %.4g s - score %.4g - subgraph %.4g - "
        "metric %.4g - store %.4g" % (traced_1t["seconds"],
                                      engine["score_seconds"],
                                      engine["subgraph_seconds"], wrapped_s,
                                      in_sweep))

    store = raw["store"]
    for p in FSYNC_POLICIES:
        samples = store["append_us"][p]
        t = tail(samples)
        values["store.append_us_p50." + p] = median(samples)
        values["store.append_us_tail." + p] = t.value
        notes["store.append_us_tail." + p] = t.describe()
    contended = store["append_contended_us"]
    t = tail(contended)
    values["store.append_contended_us_p50"] = median(contended)
    values["store.append_contended_us_tail"] = t.value
    notes["store.append_contended_us_tail"] = (
        "%s; %d threads, batch fsync" % (t.describe(), raw["threads"]))
    values["store.replay_mb_per_s.seg1"] = store["replay_mb_per_s_seg1"]
    values["store.replay_mb_per_s.seg8"] = store["replay_mb_per_s_seg8"]
    notes["store.replay_mb_per_s.seg8"] = (
        "%d files folded (seg1: %d)" % (store["segments_seg8"],
                                        store["segments_seg1"]))
    values["store.lookup_ns"] = store["lookup_ns"]
    values["store.bytes_per_unit"] = ratio(raw["store_bytes"],
                                           traced_1t["submitted"])
    values["store.open_s"] = median(raw["store_open_s"])

    micro = raw["micro"]
    values["util.failpoint_ns.unarmed"] = micro["failpoint_unarmed_ns"]
    values["util.failpoint_ns.armed_other"] = micro["failpoint_armed_other_ns"]
    values["util.cancel_poll_ns.unarmed"] = micro["cancel_poll_unarmed_ns"]
    values["util.cancel_poll_ns.armed"] = micro["cancel_poll_armed_ns"]
    values["util.crc32c_gb_per_s"] = micro["crc32c_gb_per_s"]
    values["obs.span_ns.off"] = micro["span_off_ns"]
    values["obs.span_ns.on"] = micro["span_on_ns"]
    values["obs.trace_overhead"] = ratio(traced_1t["seconds"],
                                         untraced_1t["seconds"])
    notes["obs.trace_overhead"] = (
        "traced 1-thread wall %.4g s / untraced %.4g s"
        % (traced_1t["seconds"], untraced_1t["seconds"]))
    for layer in LAYERS:
        values["obs.self_s." + layer] = raw["self_s"].get(layer, 0.0)
    return values, notes


def result(correct, attempted, failed, values, spec):
    """The driver-facing result object: exactly the metrics of `spec`."""
    missing = [name for name, _, _ in spec if name not in values]
    if missing:
        raise KeyError("metrics not computed: %s" % ", ".join(missing))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in spec},
    }
