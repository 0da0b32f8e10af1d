import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "e2e.py"
spec = importlib.util.spec_from_file_location("e2e", TOOL)
e2e = importlib.util.module_from_spec(spec)
spec.loader.exec_module(e2e)


def test_smoke_run_reports_equal_digests_at_one_and_two_workers(capsys):
    assert e2e.main(["--n-max", "12", "--workers", "1", "2"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"command", "cpus", "rounds", "sides", "runs"}
    assert result["command"] == "verify --n-min 1 --n-max 12"
    runs = result["runs"]["this"]
    assert [run["workers"] for run in runs] == [1, 2]
    for run in runs:
        assert set(run) == {"round", "workers", "wall_s", "peak_rss_mb", "stdout_sha256", "exit", "covers"}
        assert run["exit"] == 0 and run["wall_s"] > 0 and run["peak_rss_mb"] > 0
        # JSON keys are strings; weight 12 has 18 covers.
        assert list(run["covers"]) == [str(n) for n in range(1, 13)] and run["covers"]["12"] == 18
    assert runs[0]["stdout_sha256"] == runs[1]["stdout_sha256"]
    sides = result["sides"]["this"]
    assert set(sides) == {"1", "2"}
    assert set(sides["1"]) == {"runs", "wall_s", "peak_rss_mb", "stdout_sha256"}
    assert set(sides["1"]["wall_s"]) == {"q1", "median", "q3"}


def test_failed_run_keeps_its_last_stderr_line(capsys):
    # A weight past the bound fails before any work: exit 1, and the run
    # names the error that the CLI printed.
    assert e2e.main(["--n-min", "100001", "--n-max", "100001", "--workers", "1"]) == 1
    (run,) = json.loads(capsys.readouterr().out.splitlines()[-1])["runs"]["this"]
    assert run["exit"] == 2 and run["covers"] == {}
    assert run["stderr_last_line"].startswith("error: weight 100001 exceeds 100000")
