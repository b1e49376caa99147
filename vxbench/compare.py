#!/usr/bin/env python3
"""Compares two sets of benchmark results, one row per workload and metric.

    python3 vxbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records vxbench/run.py saves
(<workload>.seed<N>.trace<0|1>.json), typically one per seed; copy
.bench_build/vxbench-results aside after running the parent commit. For
every end-to-end metric of BENCHMARK.json (and the workloads' named metrics
behind them) the tool prints both medians, the ratio new/base with its
base, and each side's spread (interquartile range over median):

  - "unresolved" when either spread is wider than the metric's bound,
    unless every new run is better than every base run;
  - "REGRESSION" / "improved" when the medians differ by more than the
    bound in the worse / better direction;
  - "unchanged" otherwise.

Per-layer counts from traced runs (same seed on both sides) must be equal;
a differing count is printed as "count changed". Exit status 1 when any row
is a regression.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# Named metrics that are not end-to-end slots: (better, bound).
EXTRA = {"update_s": ("lower", 0.2), "serve_goodput_rps": ("higher", 0.2)}
COUNT_UNITS = ("count", "B")


def load_dir(path):
    """{workload: {"runs": [untraced records], "traced": {seed: record}}}"""
    out = {}
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(name, encoding="utf-8") as f:
            record = json.load(f)
        if "workload" not in record:
            continue  # a trace file
        entry = out.setdefault(record["workload"],
                               {"runs": [], "traced": {}})
        if record["trace"]:
            entry["traced"][record["seed"]] = record
        else:
            entry["runs"].append(record)
    return out


def spread(values):
    if len(values) < 2:
        return float("inf")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def verdict(base, new, better, bound):
    mb, mn = statistics.median(base), statistics.median(new)
    sign = 1 if better == "lower" else -1
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved"
    worse = sign * (mn / mb - 1) if mb else 0.0
    if worse > bound:
        return "REGRESSION"
    if -worse > bound:
        return "improved"
    return "unchanged"


def metric_rows(workload, base_runs, new_runs, spec):
    rows = []
    base_e2e = [run.end_to_end(r) for r in base_runs]
    new_e2e = [run.end_to_end(r) for r in new_runs]
    for m in spec["end_to_end"]:
        name = m["name"]
        named = run.END_TO_END[workload][name][0]
        rows.append((f"{name} ({named})", m["unit"], m["better"], m["bound"],
                     [e[name]["value"] for e in base_e2e],
                     [e[name]["value"] for e in new_e2e]))
    for name, (better, bound) in EXTRA.items():
        base = [r["metrics"][name]["value"] for r in base_runs
                if name in r["metrics"]]
        new = [r["metrics"][name]["value"] for r in new_runs
               if name in r["metrics"]]
        if base and new:
            unit = base_runs[0]["metrics"][name]["unit"]
            rows.append((name, unit, better, bound, base, new))
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    base, new = load_dir(argv[1]), load_dir(argv[2])
    regressions = 0
    print(f"{'workload':12} {'metric':30} {'base':>11} {'new':>11} "
          f"{'new/base':>9} {'spread b/n':>13}  verdict")
    for workload in run.WORKLOADS:
        if workload not in base or workload not in new:
            continue
        b, n = base[workload], new[workload]
        if b["runs"] and n["runs"]:
            for name, unit, better, bound, bv, nv in metric_rows(
                    workload, b["runs"], n["runs"], spec):
                mb, mn = statistics.median(bv), statistics.median(nv)
                v = verdict(bv, nv, better, bound)
                regressions += v == "REGRESSION"
                print(f"{workload:12} {name:30} {mb:11.4g} {mn:11.4g} "
                      f"{mn / mb if mb else float('nan'):9.3f} "
                      f"{spread(bv):6.3f}/{spread(nv):6.3f}  {v} "
                      f"(base {mb:.4g} {unit}, n={len(bv)}/{len(nv)}, "
                      f"bound {bound})")
        for seed in sorted(set(b["traced"]) & set(n["traced"])):
            bl, nl = b["traced"][seed]["layers"], n["traced"][seed]["layers"]
            for name, m in bl.items():
                if m["unit"] not in COUNT_UNITS or name not in nl:
                    continue
                if nl[name]["value"] != m["value"]:
                    print(f"{workload:12} {name:30} {m['value']:11.6g} "
                          f"{nl[name]['value']:11.6g}  count changed "
                          f"(seed {seed})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
