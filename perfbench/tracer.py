"""Outside-in tracing of hilbstrata's layers for the benchmark's traced run.

The tracer replaces the public functions of each layer with wrappers that
record one span per call (name, start, end, parent span).  A wrapper is
installed wherever a consuming module looks the function up: in every
``hilbstrata`` module that holds the function under some name, or on the
class for methods.  Spans are kept in flat in-memory arrays and written out
once at the end.  Only the process that installed the tracer records;
forked pool workers run the wrapped functions without recording, and their
work is measured from ``resource.getrusage`` instead.
"""

import functools
import inspect
import json
import os
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute).  "Class.method" wraps a method on the class.
TARGETS = [
    ("laurent.init", "laurent", "IntLaurentPoly.__init__"),
    ("laurent.add", "laurent", "IntLaurentPoly.__add__"),
    ("laurent.sub", "laurent", "IntLaurentPoly.__sub__"),
    ("laurent.neg", "laurent", "IntLaurentPoly.__neg__"),
    ("laurent.mul", "laurent", "IntLaurentPoly.__mul__"),
    ("laurent.reverse", "laurent", "IntLaurentPoly.reverse"),
    ("laurent.coeff", "laurent", "IntLaurentPoly.coeff"),
    ("diagrams.diagram_init", "diagrams", "CastelnuovoDiagram.__init__"),
    ("diagrams.enumerate_diagrams", "diagrams", "enumerate_diagrams"),
    ("diagrams.hf_leq", "diagrams", "hf_leq"),
    ("diagrams.run_of_ones", "diagrams", "run_of_ones"),
    ("diagrams.parse_diagram", "diagrams", "parse_diagram"),
    ("diagrams.parse_hilbert_function", "diagrams", "parse_hilbert_function"),
    ("resolution.generic_betti", "resolution", "generic_betti"),
    ("strata.stratum_dim", "strata", "stratum_dim"),
    ("strata.tangent_function", "strata", "tangent_function"),
    ("strata.tangent_leq", "strata", "tangent_leq"),
    ("incidence.move_params", "incidence", "move_params"),
    ("incidence.cover_moves", "incidence", "cover_moves"),
    ("incidence.is_length_zero", "incidence", "is_length_zero"),
    ("incidence.find_intermediate", "incidence", "find_intermediate"),
    ("incidence.cover_conditions", "incidence", "cover_conditions"),
    ("incidence.betti_criterion", "incidence", "betti_criterion"),
    ("incidence.is_type_zero", "incidence", "is_type_zero"),
    ("incidence.resolve_incidence", "incidence", "resolve_incidence"),
    ("incidence.verify_intersections", "incidence", "verify_intersections"),
    ("incidence.chow_product", "incidence", "chow_product"),
    ("incidence.verdict_line", "incidence", "verdict_line"),
    ("graph.build_hilbert_graph", "graph", "build_hilbert_graph"),
    ("graph.detect_noncatenary", "graph", "detect_noncatenary"),
    ("graph.emit", "graph", "emit"),
    ("sweep.verify_range", "sweep", "verify_range"),
    ("sweep.sweep_weight", "sweep", "sweep_weight"),
    ("sweep.check_cover", "sweep", "check_cover"),
    ("cli.main", "cli", "main"),
]

MODULES = ("laurent", "diagrams", "resolution", "strata", "incidence", "graph", "sweep", "cli")


class Tracer:
    """Span recorder.  Spans are rows of four parallel arrays; parent -1 is a root."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = Counter()
        self.installed = set()
        self.recording = True
        self._undo = []
        os.register_at_fork(after_in_child=self._stop_recording)

    def _stop_recording(self):
        self.recording = False

    def wrap(self, name, fn, hook=None):
        """Return a recording wrapper for fn; hook(tracer, args, result, parent) runs after each call."""
        sid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack

        def open_span():
            idx = len(start)
            name_of.append(sid)
            parent.append(stack[-1])
            stack.append(idx)
            start.append(perf_counter())
            end.append(0.0)
            return idx

        def close_span(idx):
            end[idx] = perf_counter()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the work done for each item is attributed.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    if not self.recording:
                        yield from inner
                        return
                    idx = open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if hook is not None:
                hook(self, args, result, parent[idx])
            return result

        return traced

    def install(self, package, targets, hooks):
        """Wrap each target of the imported package; a target that no longer exists is skipped."""
        modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        for name, module_name, attr in targets:
            module = sys.modules.get(f"{package}.{module_name}")
            if module is None:
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or method not in vars(owner):
                    continue
                original = vars(owner)[method]
                self._patch(owner, method, self.wrap(name, original, hooks.get(name)))
            else:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(name, original, hooks.get(name))
                for consumer in modules:
                    for key, value in list(vars(consumer).items()):
                        if value is original:
                            self._patch(consumer, key, wrapper)
            self.installed.add(name)

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def summarize(self):
        """Per span name: calls and inclusive seconds; per module: self seconds.

        A span's self time is its duration minus the durations of its direct
        children, so the module self times of one process sum to the
        duration of its root spans.
        """
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * len(dur)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = Counter()
        inclusive = defaultdict(float)
        self_s = defaultdict(float)
        module_of = [n.split(".")[0] for n in self.names]
        for i, sid in enumerate(self.name_of):
            name = self.names[sid]
            calls[name] += 1
            inclusive[name] += dur[i]
            self_s[module_of[sid]] += dur[i] - child[i]
        return calls, inclusive, self_s

    def write(self, path):
        """Write the spans: a JSON header line, then the four arrays as raw bytes."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "layout": ["name_of:int32", "parent:int32", "start:float64", "end:float64"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for column in (self.name_of, self.parent, self.start, self.end):
                column.tofile(handle)


def _count_candidates(tracer, args, result, parent):
    if parent >= 0 and tracer.names[tracer.name_of[parent]] == "incidence.cover_moves":
        tracer.counters["candidate_moves"] += len(result)


def _count_covers(tracer, args, result, parent):
    tracer.counters["cover_moves.covers"] += len(result)


def _count_length_zero(tracer, args, result, parent):
    if result is not None:
        tracer.counters["is_length_zero.covers"] += 1


def _count_width(tracer, args, result, parent):
    pair = args[0]
    width = pair.v - pair.u
    key = "sweep.covers_v_eq_u" if width == 0 else "sweep.covers_v_eq_u1" if width == 1 else "sweep.covers_wide"
    tracer.counters[key] += 1


def _count_sweep(tracer, args, result, parent):
    tracer.counters["sweep.diagrams"] += result.diagrams
    tracer.counters["sweep.covers"] += result.covers


def _count_graph(tracer, args, result, parent):
    tracer.counters["graph.nodes"] += len(result.nodes)
    tracer.counters["graph.edges"] += len(result.edges)


def _count_witnesses(tracer, args, result, parent):
    tracer.counters["graph.witnesses"] += len(result)


def _count_exit(tracer, args, result, parent):
    tracer.counters[f"cli.exit_{result}"] += 1


HOOKS = {
    "incidence.move_params": _count_candidates,
    "incidence.cover_moves": _count_covers,
    "incidence.is_length_zero": _count_length_zero,
    "sweep.check_cover": _count_width,
    "sweep.sweep_weight": _count_sweep,
    "graph.build_hilbert_graph": _count_graph,
    "graph.detect_noncatenary": _count_witnesses,
    "cli.main": _count_exit,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, rusage):
    """The per-layer metrics: name -> (value, unit), or None when a source span is not installed.

    ``rusage`` holds the untraced run's medians of measured seconds:
    wall_raw_s, parent_cpu_s and children_cpu_s.
    """
    calls, inclusive, self_s = tracer.summarize()
    have = tracer.installed
    c = tracer.counters
    modules_present = {name.split(".")[0] for name in have}

    def spans(*names):
        return all(n in have for n in names)

    out = {}

    def put(name, unit, needs, value):
        out[name] = (value, unit) if needs else None

    for module in MODULES:
        put(f"{module}.self_s", "s", module in modules_present, self_s[module])
    put("laurent.mul.calls", "count", spans("laurent.mul"), calls["laurent.mul"])
    put("diagrams.enumerate_diagrams.s", "s", spans("diagrams.enumerate_diagrams"),
        inclusive["diagrams.enumerate_diagrams"])
    for fn in ("diagram_init", "hf_leq", "run_of_ones"):
        put(f"diagrams.{fn}.calls", "count", spans(f"diagrams.{fn}"), calls[f"diagrams.{fn}"])
    put("diagrams.parse.calls", "count", spans("diagrams.parse_diagram", "diagrams.parse_hilbert_function"),
        calls["diagrams.parse_diagram"] + calls["diagrams.parse_hilbert_function"])
    put("resolution.generic_betti.calls", "count", spans("resolution.generic_betti"),
        calls["resolution.generic_betti"])
    for fn in ("stratum_dim", "tangent_function"):
        put(f"strata.{fn}.calls", "count", spans(f"strata.{fn}"), calls[f"strata.{fn}"])
    put("strata.tangent_function.per_cover", "ratio",
        spans("strata.tangent_function", "incidence.cover_moves", "incidence.is_length_zero"),
        _ratio(calls["strata.tangent_function"], c["cover_moves.covers"] + c["is_length_zero.covers"]))
    for fn in ("move_params", "cover_moves", "verify_intersections", "find_intermediate"):
        put(f"incidence.{fn}.calls", "count", spans(f"incidence.{fn}"), calls[f"incidence.{fn}"])
    put("incidence.cover_yield", "ratio", spans("incidence.cover_moves", "incidence.move_params"),
        _ratio(c["cover_moves.covers"], c["candidate_moves"]))
    put("incidence.chow_product.s", "s", spans("incidence.chow_product"), inclusive["incidence.chow_product"])
    for fn in ("build_hilbert_graph", "detect_noncatenary", "emit"):
        put(f"graph.{fn}.s", "s", spans(f"graph.{fn}"), inclusive[f"graph.{fn}"])
    for key in ("graph.nodes", "graph.edges"):
        put(key, "count", spans("graph.build_hilbert_graph"), c[key])
    put("graph.witnesses", "count", spans("graph.detect_noncatenary"), c["graph.witnesses"])
    put("sweep.check_cover.calls", "count", spans("sweep.check_cover"), calls["sweep.check_cover"])
    for key in ("sweep.diagrams", "sweep.covers"):
        put(key, "count", spans("sweep.sweep_weight"), c[key])
    for key in ("sweep.covers_v_eq_u", "sweep.covers_v_eq_u1", "sweep.covers_wide"):
        put(key, "count", spans("sweep.check_cover"), c[key])
    put("sweep.parent_cpu_s", "s", True, rusage["parent_cpu_s"])
    put("sweep.children_cpu_s", "s", True, rusage["children_cpu_s"])
    put("sweep.serial_fraction", "ratio", True, _ratio(rusage["parent_cpu_s"], rusage["wall_raw_s"]))
    put("cli.main.calls", "count", spans("cli.main"), calls["cli.main"])
    for key in ("cli.exit_0", "cli.exit_2"):
        put(key, "count", spans("cli.main"), c[key])
    put("trace.spans", "count", True, len(tracer.start))
    return out
