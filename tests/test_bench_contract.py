"""The benchmark's output contract: its last stdout line is a strict-JSON result.

Runs the graph workload once untraced and once traced, where the tracer
wraps the library's functions and reads their arguments and results, and
checks that each run exits 0 and ends with a result that ``json.loads``
reads without the non-standard constants NaN, Infinity and -Infinity.  A
traced run writes its span file to ``perfbench/out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_is_a_strict_json_result(trace):
    argv = ["perfbench/run.py", "--workload", "graph-noncatenary", "--seconds", "0", "--trace", str(trace)]
    run = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    last = run.stdout.splitlines()[-1]
    result = json.loads(last, parse_constant=_no_constant)
    assert result["correct"] is True
    assert result["attempted"] == 5 * (1 + trace) and result["failed"] == 0
