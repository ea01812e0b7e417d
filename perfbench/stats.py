"""Statistics and metric reduction shared by run.py and steadiness.py.

The driver binary prints raw samples; this module turns them into the
metrics BENCHMARK.json declares, and analyses the traced run's span log.
"""

import json
import math
import os
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# A percentile is reported only when at least this many samples lie
# beyond it; a p90 therefore needs 100 samples.
TAIL_SAMPLES = 10

WORKLOADS = ("signoff_cold", "eco_served", "fix_loop", "sharded_cold")


def valid_name(name):
    """True for a metric or workload name: a letter or digit first, then
    up to 63 letters, digits, '_', '.' or '-'."""
    return isinstance(name, str) and NAME_RE.match(name) is not None


def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of n samples rank strictly beyond the q-th percentile's
    interpolation position."""
    return n - 1 - math.floor((n - 1) * q / 100.0) if n else 0


def tail_percentile(values, q):
    """The q-th percentile, or None when fewer than TAIL_SAMPLES samples
    lie beyond it (the estimate would rest on a handful of points)."""
    if samples_beyond(len(values), q) < TAIL_SAMPLES:
        return None
    return percentile(values, q)


def median(values):
    return percentile(values, 50)


def quartile_spread(values):
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles
    gives the quartiles (the 'exclusive' method)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


PERCENTILE_RE = re.compile(r"^(.+)_p([0-9]{2})$")


def series_percentile(name, values, q):
    """The q-th percentile of a named series; a tail percentile without
    TAIL_SAMPLES samples beyond it is an error, not a number."""
    if q == 50:
        return median(values)
    v = tail_percentile(values, q)
    if v is None:
        raise ValueError(
            "%s: %d samples leave fewer than %d beyond p%d"
            % (name, len(values), TAIL_SAMPLES, q)
        )
    return v


def _overhead_pct(raw):
    if not raw["op_ms"] or not raw["traced_op_ms"]:
        return None
    return 100.0 * (median(raw["traced_op_ms"]) / median(raw["op_ms"]) - 1.0)


# End-to-end metrics other than "<series>_pNN" percentiles of op_ms.
END_TO_END = {
    "setup_s": lambda raw: median(raw["setup_s"]),
    "ops_per_s": lambda raw: len(raw["op_ms"]) / raw["window_s"],
    "peak_rss_mb": lambda raw: raw["peak_rss_mb"],
}

# Per-layer metrics that are not a sample median, a recorded value, or a
# "<series>_pNN" percentile of a sample series.
PER_LAYER_SPECIAL = {
    "trace.op_ms_p50_untraced": lambda raw: median(raw["op_ms"]) if raw["op_ms"] else None,
    "trace.op_ms_p50_traced": lambda raw: (
        median(raw["traced_op_ms"]) if raw["traced_op_ms"] else None
    ),
    "trace.overhead_pct": _overhead_pct,
}


def end_to_end_value(raw, name):
    m = PERCENTILE_RE.match(name)
    if m and m.group(1) == "op_ms":
        return series_percentile(name, raw["op_ms"], int(m.group(2)))
    if name not in END_TO_END:
        raise ValueError("no reducer for end-to-end metric %r" % name)
    return END_TO_END[name](raw)


def per_layer_value(raw, name):
    """A per-layer metric of a traced run. A layer the workload does not
    exercise reports 0: no calls, no time, no units."""
    samples = raw["samples"]
    m = PERCENTILE_RE.match(name)
    if name in PER_LAYER_SPECIAL:
        v = PER_LAYER_SPECIAL[name](raw)
    elif m and samples.get(m.group(1)):
        v = series_percentile(name, samples[m.group(1)], int(m.group(2)))
    elif samples.get(name):
        v = median(samples[name])
    else:
        v = raw["values"].get(name)
    return 0.0 if v is None else float(v)


def reduce(raw, bench):
    """The result object for one driver record: every end-to-end metric
    (untraced run) or every per-layer metric (traced run)."""
    specs = bench["per_layer"] if raw["trace"] else bench["end_to_end"]
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if not valid_name(name):
            raise ValueError("invalid metric name %r" % name)
        if raw["trace"]:
            value = per_layer_value(raw, name)
        else:
            value = float(end_to_end_value(raw, name))
        metrics[name] = {"value": value, "unit": spec["unit"]}
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def merge_records(raws):
    """One record from the driver processes of a run: latencies, counts
    and samples pooled; each process's set-up time kept (setup_s is
    their median); peak RSS the median over the processes; recorded
    values and the closing load average from the last process; host CPU
    and steal ticks summed, with steal_pct the share of host CPU time the
    hypervisor gave to other guests while the run measured."""
    out = dict(raws[0])
    for key in ("setup_s", "op_ms", "traced_op_ms", "failures"):
        out[key] = [x for r in raws for x in r[key]]
    for key in ("window_s", "attempted", "failed"):
        out[key] = sum(r[key] for r in raws)
    out["peak_rss_mb"] = median([r["peak_rss_mb"] for r in raws])
    out["samples"] = {}
    for r in raws:
        for name, v in r["samples"].items():
            out["samples"].setdefault(name, []).extend(v)
    out["values"] = raws[-1]["values"]
    cpu = sum(r["env"]["cpu_ticks"] for r in raws)
    steal = sum(r["env"]["steal_ticks"] for r in raws)
    out["env"] = dict(raws[0]["env"], load_end=raws[-1]["env"]["load_end"],
                      processes=len(raws), cpu_ticks=cpu, steal_ticks=steal,
                      steal_pct=100.0 * steal / cpu if cpu else 0.0)
    return out


# --- traced-run span analysis -------------------------------------------


def _covered_ns(parent, children):
    """Nanoseconds of the parent's interval that its children cover
    (overlapping children counted once)."""
    iv = sorted(
        (max(c["start_ns"], parent["start_ns"]), min(c["end_ns"], parent["end_ns"]))
        for c in children
    )
    covered = 0
    cur_lo = cur_hi = None
    for lo, hi in iv:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def span_tree(spans):
    """Aggregates spans by their name path ("op/flow/pass.litho"): count,
    total and self milliseconds. Each parent also gets an
    "<unattributed>" child holding the part of its time no child covers,
    so the children of every node add up to the node."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def path(s):
        names = []
        while s is not None:
            names.append(s["name"])
            s = by_id.get(s["parent"])
        return "/".join(reversed(names))

    rows = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        kids = children.get(s["id"], [])
        self_ns = dur - _covered_ns(s, kids)
        p = path(s)
        row = rows.setdefault(p, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += dur / 1e6
        row["self_ms"] += self_ns / 1e6
        if kids:
            u = rows.setdefault(
                p + "/<unattributed>", {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
            )
            u["count"] += 1
            u["total_ms"] += self_ns / 1e6
            u["self_ms"] += self_ns / 1e6
    return dict(sorted(rows.items()))


def format_tree(rows):
    lines = ["%-58s %8s %12s %12s" % ("span path", "count", "total ms", "self ms")]
    for p, r in rows.items():
        lines.append(
            "%-58s %8d %12.3f %12.3f" % (p, r["count"], r["total_ms"], r["self_ms"])
        )
    return "\n".join(lines)
