"""End-to-end runs of ``verify``: wall time, peak memory, output digest and
work counts, each from a fresh process.

Each run is ``python -m hilbstrata.cli verify --n-min A --n-max B
--workers W`` in a new subprocess whose ``PYTHONPATH`` is the checkout's
``src`` and whose other environment is this process's.  It records the
wall seconds, the peak resident set of the run's processes, its pool
workers included, the SHA-256 of its stdout, its exit status and the
covers of each weight read from its ``n=...`` lines; a run that exits
non-zero also keeps the last line of its stderr, which goes to a
temporary file, so no pipe fills while stdout is read.  The peak is the
``ru_maxrss`` that ``os.wait4`` reports for that one child, so no run's
peak leaks into the next one's, as a running maximum over all children
(``RUSAGE_CHILDREN``) would let it.

By default every worker count from 1 to ``available_cpus()`` runs.  With
``--against DIR`` each run of this checkout is paired with the same run of
the checkout at DIR, and the two alternate run by run, the first side
switching from round to round.  The last line printed is one JSON object:
every run, and for each side and worker count the median and quartiles of
the wall seconds and of the peak RSS, the distinct digests and, with
``--against``, the pairs each side won and whether the two sides' digests
agree.  Timings on a shared machine vary from run to run, so read pairs,
not single runs.

    python tools/e2e.py --n-min 50 --n-max 56 --workers 1 --rounds 10 --against ../parent

The exit status is 1 when a run exited non-zero, else 0.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = re.compile(rb"^n=(\d+): diagrams=\d+ covers=(\d+) ", re.M)


def run_verify(root: Path, n_min: int, n_max: int, workers: int) -> dict:
    """One ``verify`` run of the checkout at ``root`` in a fresh process."""
    command = [sys.executable, "-m", "hilbstrata.cli", "verify", "--n-min", str(n_min), "--n-max", str(n_max),
               "--workers", str(workers)]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err)
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.stdout.close()
        child.returncode = os.waitstatus_to_exitcode(status)
        record = {
            "workers": workers,
            "wall_s": round(wall, 4),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # Linux reports KiB
            "stdout_sha256": hashlib.sha256(out).hexdigest(),
            "exit": child.returncode,
            "covers": {int(n): int(c) for n, c in COUNTS.findall(out)},
        }
        if child.returncode:
            err.seek(0)
            record["stderr_last_line"] = (err.read().decode(errors="replace").splitlines() or [""])[-1]
    return record


def spread(values) -> dict:
    """Median and quartiles (inclusive method) of ``values``."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(runs: list, workers: list) -> dict:
    """Per worker count: the spread of wall seconds and peak RSS, and the digests."""
    out = {}
    for w in workers:
        mine = [r for r in runs if r["workers"] == w]
        out[w] = {
            "runs": len(mine),
            "wall_s": spread([r["wall_s"] for r in mine]),
            "peak_rss_mb": spread([r["peak_rss_mb"] for r in mine]),
            "stdout_sha256": sorted({r["stdout_sha256"] for r in mine}),
        }
    return out


def main(argv=None) -> int:
    # Imported from the checkout itself: the default counts are the CPUs
    # that a sweep of this checkout would use.
    sys.path.insert(0, str(ROOT / "src"))
    from hilbstrata.sweep import available_cpus

    parser = argparse.ArgumentParser(description="End-to-end timings of verify, each run in a fresh process.")
    parser.add_argument("--n-min", type=int, default=1)
    parser.add_argument("--n-max", type=int, required=True)
    parser.add_argument("--workers", type=int, nargs="+", help="worker counts (default: 1 .. available CPUs)")
    parser.add_argument("--rounds", type=int, default=1, help="runs of each side at each worker count")
    parser.add_argument("--against", type=Path, help="a second checkout, run alternately with this one")
    args = parser.parse_args(argv)
    workers = args.workers or list(range(1, available_cpus() + 1))
    if args.rounds < 1 or min(workers) < 1:
        parser.error("--rounds and every --workers count must be at least 1")
    sides = {"this": ROOT} if args.against is None else {"this": ROOT, "against": args.against.resolve()}

    runs = {name: [] for name in sides}
    for r in range(args.rounds):
        order = list(sides) if r % 2 == 0 else list(reversed(sides))
        for w in workers:
            for name in order:
                record = run_verify(sides[name], args.n_min, args.n_max, w)
                runs[name].append({"round": r, **record})
                print(f"round {r} workers {w} {name}: {record['wall_s']} s", file=sys.stderr, flush=True)

    result = {
        "command": f"verify --n-min {args.n_min} --n-max {args.n_max}",
        "cpus": available_cpus(),
        "rounds": args.rounds,
        "sides": {name: summarize(side, workers) for name, side in runs.items()},
        "runs": runs,
    }
    if args.against is not None:
        pairs = list(zip(runs["this"], runs["against"]))
        result["wins"] = {
            w: {
                "this": sum(a["wall_s"] < b["wall_s"] for a, b in pairs if a["workers"] == w),
                "against": sum(b["wall_s"] < a["wall_s"] for a, b in pairs if a["workers"] == w),
            }
            for w in workers
        }
        result["digests_agree"] = all(a["stdout_sha256"] == b["stdout_sha256"] for a, b in pairs)
    print(json.dumps(result))
    return 1 if any(r["exit"] for side in runs.values() for r in side) else 0


if __name__ == "__main__":
    sys.exit(main())
