#!/usr/bin/env python3
"""Runs the vertexica benchmark.

    python3 vxbench/run.py --workload pr-dense --seed 1 --seconds 20 --trace 0
    python3 vxbench/run.py --workload all            # every workload, all
                                                     # named metrics
    python3 vxbench/run.py --smoke                   # tiny sizes, self-checks

Run from the root of a vertexica checkout. The first call configures and
builds the `vxbench` binary (vxbench/CMakeLists.txt, Release) into
.bench_build/vxbench; later calls rebuild incrementally. Each workload runs
in its own process so that its peak resident set is its own.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end metrics of BENCHMARK.json; with `--trace 1` they are the
per-layer metrics derived from the run's spans (vxbench/vxtrace.py). Lines
before it print every metric the workload measured, by name and unit. The
full record (run metadata included) is written to
.bench_build/vxbench-results/<workload>.seed<seed>.trace<0|1>.json, which
vxbench/compare.py reads. Exit status: 0 when every output check passed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import vxtrace  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "vxbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "vxbench-results")
BINARY = os.path.join(BUILD_DIR, "vxbench")

# The default seed, and a second seed kept for checking claims: a gain
# claimed on the default seed must also hold on the held-out one.
DEFAULT_SEED = 1
HELD_OUT_SEED = 4242

WORKLOADS = ["pr-dense", "sssp-tail", "serve-mix", "pipe-hybrid"]

# The end-to-end metrics every workload reports (BENCHMARK.json), and the
# workload's own named metric each one is: (named metric, scale to unit).
END_TO_END = {
    "pr-dense": {"main_ms": ("pr_vertex_s", 1e3),
                 "aux_ms": ("pr_sql_s", 1e3)},
    "sssp-tail": {"main_ms": ("sssp_tail_s", 1e3),
                  "aux_ms": ("sssp_chain_s", 1e3)},
    "serve-mix": {"main_ms": ("serve_p50_ms", 1.0),
                  "aux_ms": ("serve_p90_ms", 1.0)},
    "pipe-hybrid": {"main_ms": ("hybrid_query_s", 1e3),
                    "aux_ms": ("scan_query_ms", 1.0)},
}
for _slots in END_TO_END.values():
    _slots["setup_s"] = ("setup_s", 1.0)
    _slots["peak_rss_mb"] = ("peak_rss_mb", 1.0)
E2E_UNITS = {"setup_s": "s", "main_ms": "ms", "aux_ms": "ms",
             "peak_rss_mb": "MB"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=10)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # not a git checkout


def build():
    """Configures (once) and builds the vxbench binary; False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "vxbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                log(proc.stdout[-4000:])
                log("vxbench: build failed: " + " ".join(cmd))
                return False
    return True


def run_workload(workload, seed, seconds, trace, tiny=False):
    """Runs one workload in its own process; returns its record (the
    binary's report plus the per-layer metrics in trace mode)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    trace_path = None
    if trace:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        trace_path = os.path.join(RESULTS_DIR, f"{workload}.trace.json")
        cmd += ["--trace-out", trace_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no report (exit {proc.returncode})")
    record = json.loads(lines[-1])
    record["exit_code"] = proc.returncode
    record["git_sha"] = git_sha()
    if trace:
        spans = vxtrace.load(trace_path)
        record["layers"] = vxtrace.layer_metrics(spans)
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
        record["trace_summary"] = vxtrace.summary(spans)
    return record


def end_to_end(record):
    out = {}
    for name, (named, scale) in END_TO_END[record["workload"]].items():
        out[name] = {"value": record["metrics"][named]["value"] * scale,
                     "unit": E2E_UNITS[name]}
    return out


def correct(record):
    return record["exit_code"] == 0 and record["failed"] == 0 and \
        record["attempted"] > 0


def print_record(record):
    meta = {k: record[k] for k in ("workload", "seed", "seconds", "git_sha",
                                   "build_type", "dcheck", "nproc",
                                   "threads")}
    log("run: " + json.dumps(meta))
    log("inputs: " + json.dumps(record["inputs"]))
    for name, m in sorted(record["metrics"].items()):
        print(f"{record['workload']:12} {name:22} {m['value']:14.6g} "
              f"{m['unit']:6} (n={m['samples']})")
    for line in record.get("trace_summary", []):
        print(line)
    for name, m in record.get("layers", {}).items():
        print(f"{record['workload']:12} {name:32} {m['value']:14.6g} "
              f"{m['unit']}")


def save(record):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = (f"{record['workload']}.seed{record['seed']}"
            f".trace{1 if record['trace'] else 0}.json")
    path = os.path.join(RESULTS_DIR, name)
    with tempfile.NamedTemporaryFile("w", dir=RESULTS_DIR, delete=False,
                                     suffix=".tmp") as f:
        json.dump({k: v for k, v in record.items() if k != "trace_summary"},
                  f, indent=1)
    os.replace(f.name, path)


def run_all(seed, seconds):
    """Every workload once, untraced: prints every named metric, and
    fail_frac over all checked operations."""
    attempted = failed = 0
    metrics = {}
    ok = True
    for workload in WORKLOADS:
        record = run_workload(workload, seed, seconds, trace=False)
        save(record)
        print_record(record)
        attempted += record["attempted"]
        failed += record["failed"]
        ok = ok and correct(record)
        for name, m in record["metrics"].items():
            if name in ("setup_s", "peak_rss_mb", "fail_frac"):
                name = f"{name}[{workload}]"
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
    metrics["fail_frac"] = {"value": failed / max(attempted, 1),
                            "unit": "ratio"}
    print(f"{'all':12} {'fail_frac':22} {metrics['fail_frac']['value']:14.6g}"
          f" ratio (n={attempted})")
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's own tests at tiny sizes")
    args = parser.parse_args()

    if not build():
        return 1
    if args.smoke:
        import test_vxbench
        return test_vxbench.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    save(record)
    print_record(record)
    metrics = record["layers"] if args.trace else end_to_end(record)
    ok = correct(record)
    print(json.dumps({"correct": ok, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
