"""Span traces written by `vxbench --trace 1`: loading, self time, and the
per-layer metrics derived from them.

A trace is {"spans": [{"id", "parent", "name", "start", "end", "request",
"counters": {...}, "attrs": {...}}, ...]} with times in seconds. A span's
self time is its duration minus the part of its interval that its children
cover (overlapping children are counted once).

Run as a script to summarise a trace file:

    python3 vxbench/vxtrace.py .bench_build/vxbench-results/pr-dense.trace.json
"""

import json
import statistics
import sys


# Per-layer metrics: (name, unit, source). A source is either
#   ("span", span_name, scale)          median duration of the named spans
#   ("counter", counter_name, quantile) quantile of the counter's values
# over every span that carries it. A metric no span feeds reads 0: the
# workload did not touch that layer.
LAYER_METRICS = [
    ("api.prepare_s", "s", ("span", "api.prepare", 1.0)),
    ("api.run_overhead_ms", "ms", ("counter", "api.run_overhead_ms", 0.5)),
    ("vertexica.input_s", "s", ("counter", "vertexica.input_s", 0.5)),
    ("vertexica.worker_s", "s", ("counter", "vertexica.worker_s", 0.5)),
    ("vertexica.split_s", "s", ("counter", "vertexica.split_s", 0.5)),
    ("vertexica.apply_s", "s", ("counter", "vertexica.apply_s", 0.5)),
    ("vertexica.supersteps", "count", ("counter", "vertexica.supersteps", 0.5)),
    ("vertexica.input_rows", "count", ("counter", "vertexica.input_rows", 0.5)),
    ("vertexica.messages", "count", ("counter", "vertexica.messages", 0.5)),
    ("vertexica.frontier_ratio", "ratio",
     ("counter", "vertexica.frontier_ratio", 0.5)),
    ("vertexica.sparse_step_ms", "ms",
     ("counter", "vertexica.sparse_step_ms", 0.5)),
    ("storage.encoded_bytes", "B", ("counter", "storage.encoded_bytes", 0.5)),
    ("storage.decoded_bytes", "B", ("counter", "storage.decoded_bytes", 0.5)),
    ("storage.encode_ratio", "ratio", ("counter", "storage.encode_ratio", 0.5)),
    ("storage.slice_ms", "ms", ("span", "storage.slice", 1e3)),
    ("exec.bytes_materialized", "B",
     ("counter", "exec.bytes_materialized", 0.5)),
    ("exec.fused_ratio", "ratio", ("counter", "exec.fused_ratio", 0.5)),
    ("exec.prune_ratio", "ratio", ("counter", "exec.prune_ratio", 0.5)),
    ("exec.filter_ms", "ms", ("span", "exec.filter", 1e3)),
    ("exec.aggregate_ms", "ms", ("span", "exec.aggregate", 1e3)),
    ("sqlgraph.hash_joins", "count", ("counter", "sqlgraph.hash_joins", 0.5)),
    ("sqlgraph.batch_hash_rows", "count",
     ("counter", "sqlgraph.batch_hash_rows", 0.5)),
    ("sqlgraph.bytes_materialized", "B",
     ("counter", "sqlgraph.bytes_materialized", 0.5)),
    ("pipeline.select_s", "s", ("span", "pipeline.select", 1.0)),
    ("pipeline.pagerank_s", "s", ("span", "pipeline.pagerank", 1.0)),
    ("pipeline.join_s", "s", ("span", "pipeline.join", 1.0)),
    ("pipeline.agg_s", "s", ("span", "pipeline.agg", 1.0)),
    ("server.queue_wait_p50_ms", "ms",
     ("counter", "server.queue_wait_ms", 0.5)),
    ("server.queue_wait_p90_ms", "ms",
     ("counter", "server.queue_wait_ms", 0.9)),
    ("server.queued_frac", "ratio", ("counter", "server.queued_frac", 0.5)),
    ("server.run_p50_ms", "ms", ("counter", "server.run_ms", 0.5)),
    ("server.retries", "count", ("counter", "server.retries", 0.5)),
    ("server.install_s", "s", ("counter", "server.install_s", 0.5)),
    ("gen.late_p90_ms", "ms", ("counter", "gen.late_ms", 0.9)),
    ("trace.overhead_frac", "ratio", ("counter", "trace.overhead_frac", 0.5)),
]

# The phases the coordinator reports per superstep (SuperstepStats).
PHASES = ("vertexica.input", "vertexica.worker", "vertexica.split",
          "vertexica.apply")


def quantile(values, q):
    """Linear-interpolated quantile (the harness's definition)."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def load(path):
    """Reads a trace file and checks its structure; returns the span list."""
    with open(path, encoding="utf-8") as f:
        spans = json.load(f)["spans"]
    ids = set()
    for s in spans:
        for key in ("id", "parent", "name", "start", "end", "request",
                    "counters", "attrs"):
            if key not in s:
                raise ValueError(f"span {s.get('id')} lacks {key!r}")
        if s["end"] < s["start"]:
            raise ValueError(f"span {s['id']} ends before it starts")
        if s["parent"] and s["parent"] not in ids:
            raise ValueError(f"span {s['id']} names unknown parent "
                             f"{s['parent']}")
        ids.add(s["id"])
    return spans


def children_of(spans):
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    return kids


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans):
    """{span id: duration minus the part its children cover}."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        child = [(c["start"], c["end"]) for c in kids.get(s["id"], [])]
        out[s["id"]] = (s["end"] - s["start"]) - covered(
            s["start"], s["end"], child)
    return out


def layer_metrics(spans):
    """The per-layer metrics of one traced run: {name: {value, unit}}."""
    durations = {}
    counters = {}
    for s in spans:
        durations.setdefault(s["name"], []).append(s["end"] - s["start"])
        for key, value in s["counters"].items():
            if value is not None:
                counters.setdefault(key, []).append(value)
    out = {}
    for name, unit, (kind, key, arg) in LAYER_METRICS:
        if kind == "span":
            value = statistics.median(durations[key]) * arg \
                if key in durations else 0.0
        else:
            value = quantile(counters.get(key, []), arg)
        out[name] = {"value": value, "unit": unit}
    return out


def phase_accounting(spans):
    """For each vertexica Engine run that carries phase children: the sum
    of the superstep spans (phase self times plus each superstep's own
    unattributed time) against the run's wall time minus the API overhead.
    Returns a list of (phases_s, run_s_minus_overhead) pairs."""
    kids = children_of(spans)
    selfs = self_times(spans)
    rows = []
    for s in spans:
        if s["name"] != "api.run" or "vertexica.input_s" not in s["counters"]:
            continue
        steps = [c for c in kids.get(s["id"], [])
                 if c["name"] == "vertexica.superstep"]
        phases = 0.0
        for step in steps:
            phases += selfs[step["id"]]
            phases += sum(selfs[c["id"]] for c in kids.get(step["id"], [])
                          if c["name"] in PHASES)
        engine = (s["end"] - s["start"]) - \
            s["counters"]["api.run_overhead_ms"] / 1e3
        rows.append((phases, engine))
    return rows


def summary(spans):
    """Self time per span name, largest first, as printable lines."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        total, count = by_name.get(s["name"], (0.0, 0))
        by_name[s["name"]] = (total + selfs[s["id"]], count + 1)
    lines = [f"{'span':32} {'count':>7} {'self_s':>10}"]
    for name, (total, count) in sorted(by_name.items(),
                                       key=lambda kv: -kv[1][0]):
        lines.append(f"{name:32} {count:7d} {total:10.4f}")
    rows = phase_accounting(spans)
    if rows:
        phases = sum(p for p, _ in rows)
        engine = sum(e for _, e in rows)
        lines.append(f"vertexica phase self time {phases:.4f} s of "
                     f"{engine:.4f} s run time net of API overhead "
                     f"({len(rows)} runs, coverage {phases / engine:.4f})")
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans = load(argv[1])
    print("\n".join(summary(spans)))
    for name, m in layer_metrics(spans).items():
        print(f"{name:32} {m['value']:.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
