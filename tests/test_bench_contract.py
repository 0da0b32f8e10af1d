"""The benchmark's output contract: its last stdout line is a strict-JSON result.

Runs the graph workload once untraced and once traced, and the serial
sweep workload once traced, where the tracer wraps the library's functions
and reads their arguments and results, and checks that each run exits 0
and ends with a result that ``json.loads`` reads without the non-standard
constants NaN, Infinity and -Infinity.  A
traced result must be complete: it holds every per-layer metric that
``BENCHMARK.json`` names, each a finite number.  The tracer leaves out a
metric whose function it cannot find, so a deleted or renamed function
shows here.  A traced run writes its span file to ``perfbench/out/``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _run(workload, trace):
    """The strict-JSON result on the last stdout line of one run at ``--seconds 0``."""
    argv = ["perfbench/run.py", "--workload", workload, "--seconds", "0", "--trace", str(trace)]
    run = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    last = run.stdout.splitlines()[-1]
    result = json.loads(last, parse_constant=_no_constant)
    assert result["correct"] is True and result["failed"] == 0
    return result


def _assert_complete(metrics):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    assert not missing, f"per-layer metrics absent from the traced result: {missing}"
    for m in declared:
        value = metrics[m["name"]]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), m["name"]
        assert math.isfinite(value), m["name"]


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_is_a_strict_json_result(trace):
    result = _run("graph-noncatenary", trace)
    assert result["attempted"] == 5 * (1 + trace)
    if trace:
        # The work counts of the weights 26..30, so that a faster detection
        # cannot come from finding fewer intervals, and the per-diagram work
        # done once per node, so that none of it moves onto the edges.
        metrics = result["metrics"]
        _assert_complete(metrics)
        counts = {
            "graph.nodes": 1_131,
            "graph.edges": 2_251,
            "graph.witnesses": 70_970,
            "resolution.generic_betti.calls": 1_131,
            "strata.stratum_dim.calls": 1_131,
            "incidence.cover_moves.calls": 1_131,
        }
        assert {name: metrics[name]["value"] for name in counts} == counts


def test_traced_sweep_result_is_complete():
    # The sweep kernel's traced run: nothing printed after the result, every
    # declared per-layer metric present and finite, and the work counts of
    # the band 50..56.
    metrics = _run("sweep-serial", 1)["metrics"]
    _assert_complete(metrics)
    counts = {
        "sweep.diagrams": 36_661,
        "sweep.covers": 106_074,
        "sweep.covers_v_eq_u": 35_817,
        "sweep.covers_v_eq_u1": 16_861,
        "sweep.covers_wide": 53_396,
        "resolution.generic_betti.calls": 36_661,
        "incidence.cover_moves.calls": 36_661,
    }
    assert {name: metrics[name]["value"] for name in counts} == counts
