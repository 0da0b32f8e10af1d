"""hilbstrata benchmark: four workloads through the public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 10 --trace 0

Every metric is printed as ``metric <name> <value> <unit>``; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``).  Each workload runs
its fixed unit of work at least once and repeats it until ``--seconds``
have passed; timings are medians over the repetitions, in reference
seconds corrected for the machine's current speed (speed.py).  See
README.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import querygen
import speed
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = HERE / "out"

WORKLOADS = ("sweep-serial", "sweep-parallel", "graph-noncatenary", "cli-queries")
SWEEP_N = (50, 56)
GRAPH_WEIGHTS = (26, 27, 28, 29, 30)
QUERY_COUNT = 8000
DEFAULT_SEED = 1
SETUP_SAMPLES = 15
PERCENTILES = (50, 90, 99, 99.9, 99.99)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "us_per_op": "us",
    "cpu_utilization": "ratio",
    "peak_rss_mb": "MB",
}

# An import takes about 50 ms, so the probe samples the machine's speed every 5 ms.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "with speed.SpeedSampler(0.005) as sampler:\n"
    "    t = time.perf_counter()\n"
    "    import hilbstrata, hilbstrata.cli\n"
    "    t = time.perf_counter() - t\n"
    "print(t - sampler.busy(), sampler.reference_seconds(t), hilbstrata.__file__)\n"
)
SAMPLE_PERIOD_S = 0.05


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def load_library():
    """Import hilbstrata from this checkout's ``src`` and nowhere else."""
    if not (SRC / "hilbstrata" / "__init__.py").is_file():
        raise BenchError(f"no hilbstrata sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hilbstrata
    import hilbstrata.cli
    import hilbstrata.graph

    if not Path(hilbstrata.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported hilbstrata from {hilbstrata.__file__}, not from {SRC}")
    return hilbstrata


def import_times(count):
    """(measured, reference) seconds to import hilbstrata and hilbstrata.cli, each in a fresh interpreter."""
    samples = []
    for _ in range(count):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if probe.returncode != 0:
            raise BenchError(f"importing hilbstrata failed:\n{probe.stderr}")
        measured, reference, path = probe.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise BenchError(f"probe imported hilbstrata from {path}")
        samples.append((float(measured), float(reference)))
    return samples


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count):
    """The highest of PERCENTILES with at least ten of ``count`` samples beyond it, or None."""
    best = None
    for p in PERCENTILES:
        if count - math.ceil(p / 100 * count) >= 10:
            best = p
    return best


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def _fields(line):
    return {key: int(value) for key, value in re.findall(r"(\w+)=(\d+)", line)}


def check_verify(code, text, golden, partitions):
    """Covers that failed: all covers of each weight whose line differs from the golden
    line or whose diagram count is not the distinct-partition count, and every cover
    when the exit status or the closing line is wrong."""
    want = golden.splitlines()
    got = text.splitlines()
    covers = {_fields(line)["n"]: _fields(line)["covers"] for line in want[:-1]}
    if code != 0 or len(got) != len(want) or got[-1] != want[-1]:
        return sum(covers.values())
    failed = 0
    for line, expected in zip(got[:-1], want[:-1]):
        n = _fields(expected)["n"]
        if line != expected or _fields(line).get("diagrams") != partitions[n]:
            failed += covers[n]
    return failed


def graph_record(n_nodes, n_edges, witnesses, dot, js):
    """What the benchmark keeps of one weight's graph outputs."""
    canonical = json.dumps([[i, j, list(lengths)] for i, j, lengths in witnesses], separators=(",", ":"))
    return {
        "nodes": n_nodes,
        "edges": n_edges,
        "witnesses": len(witnesses),
        "witnesses_sha256": sha256(canonical.encode()),
        "dot_sha256": sha256(dot),
        "json_sha256": sha256(js),
    }


def check_query(result, expect):
    """True iff one cli.main call gave the answer the benchmark worked out on its own."""
    code, out, err = result
    if not isinstance(code, int) or "Traceback" in err:
        return False
    kind = expect[0]
    if kind == "cover":
        _, u, v = expect
        line = out.rstrip("\n")
        incident = line.endswith("=> INCIDENT")
        return code == 0 and line.startswith(f"u={u} v={v} ") and incident == (" C:OK " in line)
    if kind == "not-cover":
        return code == 2 and out == ""
    return code == 0 and out == expect[1] + "\n"


def query_digest(results):
    digest = hashlib.sha256()
    for code, out, _ in results:
        digest.update(f"{code}\n{out}".encode())
    return digest.hexdigest()


class SweepWorkload:
    """``verify --n-min 50 --n-max 56`` through cli.main; an op is one cover."""

    def __init__(self, workers):
        self.workers = workers

    def prepare(self, seed):
        self.golden = (GOLDEN / "verify_50_56.txt").read_text()
        self.partitions = querygen.distinct_partition_counts(SWEEP_N[1])
        self.ops = sum(_fields(line)["covers"] for line in self.golden.splitlines()[:-1])

    def execute(self, lib):
        argv = ["verify", "--n-min", str(SWEEP_N[0]), "--n-max", str(SWEEP_N[1]), "--workers", str(self.workers)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(argv)
        return code, out.getvalue()

    def check(self, raw):
        code, text = raw
        covers = sum(_fields(line).get("covers", 0) for line in text.splitlines())
        return check_verify(code, text, self.golden, self.partitions), {"covers_checked": (covers, "count")}


class GraphWorkload:
    """Build, detect non-catenary intervals and emit DOT and JSON for weights 26..30; an op is one weight."""

    workers = 1

    def prepare(self, seed):
        self.golden = json.loads((GOLDEN / "graph_26_30.json").read_text())
        self.partitions = querygen.distinct_partition_counts(max(GRAPH_WEIGHTS))
        self.ops = len(GRAPH_WEIGHTS)

    def execute(self, lib):
        graph = lib.graph
        results = {}
        for n in GRAPH_WEIGHTS:
            try:
                g = graph.build_hilbert_graph(n)
                witnesses = graph.detect_noncatenary(g)
                results[n] = (len(g.nodes), len(g.edges), witnesses, graph.emit(g, "dot"), graph.emit(g, "json"))
            except Exception as exc:  # a failed op, counted by check()
                results[n] = exc
        return results

    def check(self, raw):
        failed = 0
        nodes = 0
        for n in GRAPH_WEIGHTS:
            result = raw[n]
            if isinstance(result, Exception):
                failed += 1
                continue
            record = graph_record(*result)
            nodes += record["nodes"]
            if record != self.golden[str(n)] or record["nodes"] != self.partitions[n]:
                failed += 1
        return failed, {"nodes_checked": (nodes, "count")}


class QueryWorkload:
    """A seeded stream of single cli.main calls, closed loop with one client; an op is one query."""

    workers = 1

    def prepare(self, seed):
        self.queries = querygen.make_queries(seed, QUERY_COUNT)
        self.ops = len(self.queries)
        self.golden = None
        if seed == DEFAULT_SEED:
            self.golden = json.loads((GOLDEN / "cli_queries.json").read_text())["sha256"]
        self.latencies = []

    def execute(self, lib):
        main = lib.cli.main
        clock = time.perf_counter
        out, err = io.StringIO(), io.StringIO()
        results, latencies = [], []
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv, _ in self.queries:
                t0 = clock()
                try:
                    code = main(argv)
                except Exception as exc:  # a failed op, counted by check()
                    code = f"exception {exc!r}"
                latencies.append(clock() - t0)
                results.append((code, out.getvalue(), err.getvalue()))
                out.seek(0)
                out.truncate()
                err.seek(0)
                err.truncate()
        return results, latencies

    def check(self, raw):
        results, latencies = raw
        self.latencies.extend(latencies)
        if self.golden is not None and query_digest(results) != self.golden:
            failed = len(results)
        else:
            failed = sum(not check_query(r, expect) for r, (_, expect) in zip(results, self.queries))
        ordered = sorted(self.latencies)
        tail = tail_percentile(len(ordered))
        info = {
            "queries_per_s": (len(ordered) / sum(ordered), "1/s"),
            "query_samples": (len(ordered), "count"),
            "query_p50_us": (percentile(ordered, 50) * 1e6, "us"),
        }
        if tail is not None:
            info[f"query_p{tail:g}_us"] = (percentile(ordered, tail) * 1e6, "us")
        return failed, info


def make_workload(name):
    if name == "sweep-serial":
        return SweepWorkload(1)
    if name == "sweep-parallel":
        return SweepWorkload(min(2, len(os.sched_getaffinity(0))))
    if name == "graph-noncatenary":
        return GraphWorkload()
    return QueryWorkload()


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def timed(workload, lib):
    """Run one unit of work; returns (outputs, measured seconds, reference seconds)."""
    with speed.SpeedSampler(SAMPLE_PERIOD_S) as sampler:
        t0 = time.perf_counter()
        raw = workload.execute(lib)
        wall = time.perf_counter() - t0
    return raw, wall, sampler.reference_seconds(wall)


def measure(workload, lib, seconds):
    """Untraced repetitions until ``seconds`` have passed; medians of the per-repetition figures."""
    walls, ref_walls, parent_cpu, children_cpu = [], [], [], []
    attempted = failed = 0
    info = {}
    began = time.perf_counter()
    while True:
        self0, kids0 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
        raw, wall, ref_wall = timed(workload, lib)
        self1, kids1 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
        walls.append(wall)
        ref_walls.append(ref_wall)
        parent_cpu.append(_cpu(self1) - _cpu(self0))
        children_cpu.append(_cpu(kids1) - _cpu(kids0))
        rep_failed, info = workload.check(raw)
        attempted += workload.ops
        failed += rep_failed
        if time.perf_counter() - began >= seconds:
            break
    utilization = [(p + c) / (w * workload.workers) for w, p, c in zip(walls, parent_cpu, children_cpu)]
    wall = statistics.median(ref_walls)
    return {
        "wall_s": wall,
        "wall_raw_s": statistics.median(walls),
        "parent_cpu_s": statistics.median(parent_cpu),
        "children_cpu_s": statistics.median(children_cpu),
        "cpu_utilization": statistics.median(utilization),
        "us_per_op": wall / workload.ops * 1e6,
        "repetitions": len(walls),
        "attempted": attempted,
        "failed": failed,
        "info": info,
    }


def peak_rss_mb():
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def traced_run(workload, lib, name, untraced):
    """One traced execution; returns (per-layer metrics, failed ops)."""
    tracer = tracing.Tracer()
    tracer.install("hilbstrata", tracing.TARGETS, tracing.HOOKS)
    try:
        raw, wall, ref_wall = timed(workload, lib)
    finally:
        tracer.uninstall()
    failed, _ = workload.check(raw)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}.bin")
    metrics = tracing.layer_metrics(tracer, untraced)
    self_total = sum(found[0] for key, found in metrics.items() if found and key.endswith(".self_s"))
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.self_s_sum"] = (self_total, "s")
    metrics["trace.overhead_ratio"] = (ref_wall / untraced["wall_s"], "ratio")
    return metrics, failed


def _print_metric(name, value, unit):
    print(f"metric {name} {value} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        lib = load_library()
        # Import time drifts with the machine's load over seconds, so half the
        # fresh-interpreter probes run before the timed phase and half after.
        setup = import_times(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        workload = make_workload(args.workload)
        workload.prepare(args.seed)
        run = measure(workload, lib, args.seconds)
        setup += import_times(SETUP_SAMPLES // 2)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    end_to_end = {
        "setup_s": statistics.median(ref for _, ref in setup),
        "wall_s": run["wall_s"],
        "us_per_op": run["us_per_op"],
        "cpu_utilization": run["cpu_utilization"],
        "peak_rss_mb": peak_rss_mb(),
    }
    attempted, failed = run["attempted"], run["failed"]

    print(f"workload {args.workload} seed {args.seed} workers {workload.workers} repetitions {run['repetitions']}")
    for name, value in end_to_end.items():
        _print_metric(name, value, END_TO_END[name])
    _print_metric("setup_raw_s", statistics.median(measured for measured, _ in setup), "s")
    _print_metric("wall_raw_s", run["wall_raw_s"], "s")
    for name, (value, unit) in run["info"].items():
        _print_metric(name, value, unit)
    _print_metric("failed_ratio", failed / attempted, "ratio")
    reported = {name: {"value": value, "unit": END_TO_END[name]} for name, value in end_to_end.items()}

    if args.trace:
        layers, traced_failed = traced_run(workload, lib, args.workload, run)
        attempted += workload.ops
        failed += traced_failed
        reported = {}
        for name, found in layers.items():
            if found is None:
                print(f"metric {name} absent")
                continue
            _print_metric(name, *found)
            reported[name] = {"value": found[0], "unit": found[1]}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
