#!/usr/bin/env python3
"""Steadiness check: is one build's benchmark stable enough for its bounds?

Runs two sets of untraced runs of the same build, alternating which set
goes first in each pair. Set A uses seeds 1..N and set B seeds
N+1..2N, one seed per run. For every workload and end-to-end metric it
prints each set's median, quartiles and quartile spread
(q3 - q1) / median, against the metric's bound:

  * spread: each set's spread must be under the bound (and, to leave
    room for a real change, should be under a third of it);
  * drift: set B's median may not be worse than set A's by more than
    the bound.

Every metric is held to both, setup_s included; setup_s is named in the
output because it is the metric that has failed before.

Each run also records the share of host CPU time the hypervisor stole
for other guests (steal_pct, from /proc/stat). A run above
STEAL_LIMIT_PCT is flagged: its figures show the host, not the
benchmark, and a pass with a flagged run does not count as steady.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]

Run from the checkout root; every run goes through perfbench/run.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

STEAL_LIMIT_PCT = 10.0


def one_run(workload, seed, seconds):
    """The metric values and host steal share of one untraced run."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
    lines = out.stdout.decode().strip().splitlines()
    env = json.loads(lines[-2])["env"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: %d of %d ops failed" % (
            workload, seed, result["failed"], result["attempted"]))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, env["steal_pct"]


def worse_by(spec, a, b):
    """How much worse b is than a, as a share of a (negative = better)."""
    if spec["better"] == "lower":
        return b / a - 1.0
    return a / b - 1.0


def verdict(spec, spreads, drift):
    """(ok, words) for one metric: both sets' spreads and set B's drift
    against the metric's bound."""
    bound = spec["bound"]
    words = []
    ok = True
    if max(spreads) > bound:
        words.append("SPREAD OVER BOUND")
        ok = False
    elif max(spreads) > bound / 3:
        words.append("spread over a third of the bound")
    if drift > bound:
        words.append("DRIFT OVER BOUND")
        ok = False
    return ok, words


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", default=",".join(stats.WORKLOADS))
    args = ap.parse_args()

    bench = stats.load_benchmark(os.getcwd())
    seconds = bench["run_seconds"]
    ok = True
    flagged = 0
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        steal = {"A": [], "B": []}
        for i in range(args.runs):
            seeds = {"A": 1 + i, "B": 1 + args.runs + i}
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                values, steal_pct = one_run(workload, seeds[s], seconds)
                sets[s].append(values)
                steal[s].append(steal_pct)
                if steal_pct > STEAL_LIMIT_PCT:
                    flagged += 1
                    print("%s seed %d: host steal %.1f%% over the %.0f%% limit"
                          % (workload, seeds[s], steal_pct, STEAL_LIMIT_PCT),
                          file=sys.stderr)
            print("%s: pair %d/%d done" % (workload, i + 1, args.runs),
                  file=sys.stderr)
        print("\n== %s (%d runs per set, %d s each; host steal median/max: "
              "A %.1f%%/%.1f%%, B %.1f%%/%.1f%%) ==" % (
                  workload, args.runs, seconds,
                  stats.median(steal["A"]), max(steal["A"]),
                  stats.median(steal["B"]), max(steal["B"])))
        print("%-12s %5s | %-30s | %-30s | %7s  %s" % (
            "metric", "bound", "set A median [q1, q3] spread",
            "set B median [q1, q3] spread", "drift", "verdict"))
        for spec in bench["end_to_end"]:
            name = spec["name"]
            cols = []
            spreads = []
            meds = []
            for s in ("A", "B"):
                q1, med, q3, spread = stats.quartile_spread(
                    [r[name] for r in sets[s]])
                cols.append("%9.4g [%8.4g, %8.4g] %5.1f%%" % (
                    med, q1, q3, 100 * spread))
                spreads.append(spread)
                meds.append(med)
            drift = worse_by(spec, meds[0], meds[1])
            metric_ok, words = verdict(spec, spreads, drift)
            ok = ok and metric_ok
            print("%-12s %5.2f | %s | %s | %+6.1f%%  %s" % (
                name, spec["bound"], cols[0], cols[1], 100 * drift,
                "; ".join(words) or "ok"))
    if flagged:
        print("\n%d run(s) above %.0f%% host steal: this pass measured the "
              "host; run it again on a quieter one." % (
                  flagged, STEAL_LIMIT_PCT))
    steady = ok and not flagged
    print("\nsteady within bounds: %s" % ("yes" if steady else "NO"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
