#!/usr/bin/env python3
"""The dfmkit benchmark: builds dfmkit and the driver from source, runs one
workload in five driver processes (one when traced), and prints the
result as the last line of standard output.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a dfmkit checkout. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 runs the traced variant
and reports the per-layer metrics, writing the span log and its
self-time tree under .bench_work/traces/. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
DRIVER_TIMEOUT_S = 170
# Driver processes per untraced run, each measuring a fifth of the
# seconds. Run medians moved by up to 20% from one process to the next
# on identical inputs (host throughput on a shared host) while staying
# within a few percent inside a process; pooling five processes
# averages that out (with three, signoff_cold's run-to-run spread was
# about twice as large). A traced run uses one process.
PROCESSES = 5


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root):
    """Configures dfmkit's own build with the driver hooked in and builds
    the two targets the benchmark runs. Incremental after the first run."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("no dfmkit source tree here (run from the checkout root; "
             "expected CMakeLists.txt and src/)")
    build_dir = os.path.join(root, BUILD_DIR)
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            hook = os.path.join(HERE, "hook.cmake")
            cmd = ["cmake", "-S", root, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                   "-DCMAKE_PROJECT_dfmkit_INCLUDE=" + hook]
            if subprocess.call(cmd, stdout=sys.stderr) != 0:
                fail("cmake configure failed")
        jobs = str(len(os.sched_getaffinity(0)))
        cmd = ["cmake", "--build", build_dir, "--target", "perfbench_driver",
               "dfmkit", "-j", jobs]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            fail("build failed")
    return (os.path.join(build_dir, "perfbench_driver"),
            os.path.join(build_dir, "tools", "dfmkit"))


def run_driver(driver, argv):
    """Runs the driver and returns its raw record. Exit code 3 (the
    workload does not fit nproc) and every other failure end this
    process with the driver's code and no result."""
    try:
        proc = subprocess.run([driver] + argv, stdout=subprocess.PIPE,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode, proc.returncode)
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        fail("driver printed no record")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=stats.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-failures", type=int, default=0,
                    help=argparse.SUPPRESS)  # test hook, see driver
    args = ap.parse_args()

    root = os.getcwd()
    bench = stats.load_benchmark(root)
    driver, dfmkit = build(root)

    processes = 1 if args.trace else PROCESSES
    work = os.path.join(WORK_DIR, "run-%d" % os.getpid())
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / processes),
            "--trace", str(args.trace), "--work-dir", work, "--dfmkit", dfmkit]
    spans_path = None
    if args.trace:
        traces = os.path.join(WORK_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        spans_path = os.path.join(
            traces, "%s-seed%d.spans.json" % (args.workload, args.seed))
        argv += ["--spans-out", spans_path]
    if args.inject_failures:
        argv += ["--inject-failures", str(args.inject_failures)]
    raws = []
    try:
        for _ in range(processes):
            shutil.rmtree(work, ignore_errors=True)  # fresh scratch each
            raws.append(run_driver(driver, argv))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    raw = stats.merge_records(raws)

    if spans_path:
        with open(spans_path) as f:
            tree = stats.span_tree(json.load(f))
        with open(spans_path.replace(".spans.json", ".tree.json"), "w") as f:
            json.dump(tree, f, indent=1)
        print(stats.format_tree(tree), file=sys.stderr)

    result = stats.reduce(raw, bench)
    if raw["failures"]:
        print("perfbench: failed checks: " + "; ".join(raw["failures"]),
              file=sys.stderr)
    # Host context of this result (nproc, load average at start and end,
    # dfmkit revision), then the result itself as the last line.
    print(json.dumps({"env": raw["env"], "setup_s": raw["setup_s"],
                      "ops": len(raw["op_ms"]) + len(raw["traced_op_ms"])}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
