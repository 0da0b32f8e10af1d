import argparse
import contextlib
import errno
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc

import pytest

from hilbstrata import cli
from hilbstrata.cli import main
from hilbstrata.sweep import available_cpus


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-n", "6")
    assert code == 0
    assert out.splitlines() == ["1,2,3", "1,2,2,1", "1,2,1,1,1", "1,1,1,1,1,1"]


def test_enumerate_streams_a_large_weight(monkeypatch):
    # Weight 1200 has far too many diagrams to list; the first lines must
    # still come out at once, with no recursion as deep as the weight.
    class Enough(Exception):
        pass

    class Head:
        lines = []

        def write(self, text):
            self.lines.append(text)
            if len(self.lines) == 1000:
                raise Enough

    monkeypatch.setattr(sys, "stdout", Head())
    with pytest.raises(Enough):
        main(["enumerate", "-n", "1200"])
    lines = Head.lines
    assert lines[0] == ",".join(map(str, range(1, 49))) + ",24\n"
    assert all(sum(map(int, line.split(","))) == 1200 for line in lines)


def test_betti(capsys):
    code, out, _ = run_cli(capsys, "betti", "--phi", "1,2,3,3,..")
    assert code == 0
    assert out.strip() == "a: {1: 1, 3: 1}, b: {4: 1}"


def test_dim_accepts_diagram_or_function(capsys):
    code, out, _ = run_cli(capsys, "dim", "--phi", "1,1,1")
    assert (code, out.strip()) == (0, "5")
    code, out, _ = run_cli(capsys, "dim", "--phi", "1,2,3,3,..")
    assert (code, out.strip()) == (0, "5")


def test_resolve_incident(capsys):
    code, out, _ = run_cli(capsys, "resolve", "--phi", "1,2,3,3,..", "--psi", "1,3,3,..")
    assert code == 0
    assert out.strip() == "u=1 v=1 dim: 5->6 tangent:OK C:OK type0:N => INCIDENT"


def test_resolve_not_incident(capsys):
    code, out, _ = run_cli(
        capsys, "resolve", "--phi", "1,2,3,4,2,1,1", "--psi", "1,2,3,4,2,2"
    )
    assert code == 0
    assert out.strip().endswith("=> NOT INCIDENT")
    assert "tangent:FAIL" in out


def test_resolve_type_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "resolve",
        "--phi", "1,3,6,10,14,15,16,17,..",
        "--psi", "1,3,6,10,14,16,17,..",
    )
    assert code == 0
    assert "type0:Y" in out and out.strip().endswith("=> INCIDENT")


def test_resolve_names_an_intermediate(capsys):
    code, out, err = run_cli(capsys, "resolve", "--phi", "1,2,2,2,1", "--psi", "1,2,3,2")
    assert code == 2
    assert out == ""
    assert "1,3,6,7,8,.." in err


def test_resolve_rejects_non_run(capsys):
    code, _, err = run_cli(capsys, "resolve", "--phi", "1,1,1,1,1,1", "--psi", "1,2,2,1")
    assert code == 2 and "not a run of ones" in err


def test_parse_error_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "dim", "--phi", "1,3,2")
    assert code == 2 and "staircase" in err


def test_bad_flags_exit_2(capsys):
    assert run_cli(capsys, "enumerate")[0] == 2
    assert run_cli(capsys, "enumerate", "-n", "0")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2


def test_graph_stdout_and_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "graph", "-n", "3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["n"] == 3 and len(record["nodes"]) == 2

    target = tmp_path / "g.dot"
    code, out, _ = run_cli(capsys, "graph", "-n", "3", "-o", str(target))
    assert code == 0 and out == ""
    assert "style=solid" in target.read_text()


def test_graph_unwritable_output_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "g.dot"
    code, out, err = run_cli(capsys, "graph", "-n", "3", "-o", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write") and str(target) in err
    assert not target.parent.exists()


def test_graph_past_the_node_bound_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "graph", "-n", "66")
    assert code == 2 and out == ""
    assert err == "error: weight 66 has more than 20000 diagrams, the most a graph may have\n"


HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "-n", HUGE],
        ["verify", "--n-min", HUGE, "--n-max", HUGE, "--workers", "1"],
        ["verify", "--n-min", HUGE, "--n-max", HUGE, "--workers", "2"],
    ],
    ids=["enumerate", "verify-1-worker", "verify-2-workers"],
)
def test_a_weight_past_the_bound_is_usage_error(capsys, argv):
    # Refused with one line before anything of the weight's size is built.
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: weight {HUGE} exceeds 100000, the largest weight enumerated or counted\n"
    assert peak < 2**20


def test_verify_clean(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all equivalences hold"
    assert "n=8: diagrams=6 covers=5 incident=4 not_incident=1 type_zero=1" in lines


def test_verify_output_independent_of_workers(capsys):
    _, serial, _ = run_cli(capsys, "verify", "--n-max", "10", "--workers", "1")
    _, parallel, _ = run_cli(capsys, "verify", "--n-max", "10", "--workers", "2")
    assert serial == parallel


def test_verify_range_validation(capsys):
    code, _, err = run_cli(capsys, "verify", "--n-min", "9", "--n-max", "3")
    assert code == 2 and "n-min" in err


def test_verify_reports_counterexamples(capsys, monkeypatch):
    import hilbstrata.cli as cli
    from hilbstrata.sweep import SweepSummary

    def fake_range(ns, workers):
        yield SweepSummary(n=5, diagrams=3, covers=2, incident=1,
                           failures=["criterion-equivalence: phi=1,1,1,1,1 psi=1,2,1,1 u=1 v=3"])

    monkeypatch.setattr(cli, "verify_range", fake_range)
    code, out, _ = run_cli(capsys, "verify", "--n-max", "5")
    assert code == 1
    assert "n=5" in out and "FAIL" in out
    assert "counterexample criterion-equivalence: phi=1,1,1,1,1" in out
    assert "all equivalences hold" not in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hilbstrata.cli", "enumerate", "-n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["1,2", "1,1,1"]


def test_import_loads_no_module_that_only_one_command_needs():
    # dataclasses would bring inspect with it; json serves only the graph
    # parser and concurrent.futures and multiprocessing only the parallel
    # sweep, which import them when called.  The emitters write their
    # bytes without json.
    code = (
        "import sys, hilbstrata, hilbstrata.cli\n"
        "loaded = sorted({'concurrent', 'dataclasses', 'inspect', 'json', 'multiprocessing'} & set(sys.modules))\n"
        "from hilbstrata.graph import build_hilbert_graph, emit, parse_graph_json\n"
        "data = emit(build_hilbert_graph(5), 'json')\n"
        "emitted = 'json' in sys.modules\n"
        "same = emit(parse_graph_json(data), 'json') == data\n"
        "print(loaded, emitted, 'json' in sys.modules, same)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] False True True\n"


# One process, one parser: each call must answer as a fresh interpreter
# does.  --help is left out because its text follows the terminal width.
SHARED_PARSER_SEQUENCE = (
    ["betti", "--phi", "1,2", "--bogus"],
    ["betti", "--phi", "1,2,3,3,.."],
    ["resolve", "--phi", "1,2,2,2,1", "--psi", "1,2,3,2"],
    ["resolve", "--phi", "1,2,3,3,..", "--psi", "1,3,3,.."],
    ["dim", "--phi", ""],
    ["verify", "--n-max", "3", "--workers", "1"],
)


def test_shared_parser_answers_as_a_fresh_interpreter(capsys, monkeypatch):
    import hilbstrata.cli as cli

    monkeypatch.setenv("COLUMNS", "80")
    in_process = [run_cli(capsys, *argv) for argv in SHARED_PARSER_SEQUENCE]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in SHARED_PARSER_SEQUENCE:
        proc = subprocess.run(
            [sys.executable, "-m", "hilbstrata.cli", *argv],
            capture_output=True,
            text=True,
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in in_process] == [2, 0, 2, 0, 2, 0]


def main_by_full_parse(argv):
    """``main`` by one top-level parse of the whole of ``argv``: the
    reference the once-only parse must answer as."""
    parser, _ = cli._build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.run(args, sys.stdout)
    except ValueError as exc:
        return cli._usage_error(str(exc))


# Help, missing and extra arguments, abbreviated, repeated and '='-joined
# options, '--', values that look like options, unknown commands and
# options before the command.
ARGV_CORPUS = (
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["-x"],
    ["--"],
    ["nonsense"],
    ["res"],
    ["-h", "resolve"],
    ["--phi", "1,2", "resolve"],
    ["--", "dim", "--phi", "1,1,1"],
    ["resolve"],
    ["resolve", "-h"],
    ["resolve", "--help", "extra"],
    ["resolve", "--phi", "1,2"],
    ["resolve", "--phi", "1,2,3,3,..", "--psi", "1,3,3,.."],
    ["resolve", "--phi=1,2,3,3,..", "--psi=1,3,3,.."],
    ["resolve", "--phi=", "--psi", "1,3,3,.."],
    ["resolve", "--ph", "1,1,1", "--ps", "1,2"],
    ["resolve", "--p", "1,1,1"],
    ["resolve", "--phi", "1,1,1", "--psi", "1,2", "extra"],
    ["resolve", "--phi", "1,1,1", "--psi", "1,2", "--bogus"],
    ["resolve", "--phi", "1,1,1", "--psi", "1,2", "--"],
    ["resolve", "--", "--phi", "1,1,1", "--psi", "1,2"],
    ["resolve", "--phi", "1,2,2,2,1", "--psi", "1,2,3,2"],
    ["resolve", "--phi", "1,1,1,1,1,1", "--psi", "1,2,2,1"],
    ["resolve", "--phi", "1,1", "--psi", "1,1,1"],
    ["resolve", "--phi", "-1,2", "--psi", "1,2"],
    ["betti", "--phi"],
    ["betti", "--phi", "1,2,3,3,.."],
    ["betti", "--phi", "1,3,2"],
    ["betti", "--phi", "1,2", "--bogus"],
    ["dim", "--phi", ""],
    ["dim", "--phi", "-5"],
    ["dim", "--phi", "1,1,1", "--phi", "1,2"],
    ["dim", "--phi", "1 ,1, 1"],
    ["enumerate"],
    ["enumerate", "-n", "4"],
    ["enumerate", "-n4"],
    ["enumerate", "-n=4"],
    ["enumerate", "-n", "0"],
    ["enumerate", "-n", "x"],
    ["graph", "-n", "3", "--format", "xml"],
    ["graph", "-n", "3", "--form", "json"],
    ["verify", "--n-m", "3"],
    ["verify", "--n-min", "5", "--n-max", "3"],
    ["verify", "--n-max", "3", "--workers", "1"],
)


def test_main_answers_as_one_top_level_parse(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    codes = set()
    for argv in ARGV_CORPUS:
        got = run_cli(capsys, *argv)
        assert main_by_full_parse(list(argv)) == got[0], argv
        assert capsys.readouterr() == got[1:], argv
        codes.add(got[0])
    assert codes == {0, 2}


def test_a_subcommand_line_is_parsed_once(monkeypatch):
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["dim", "--phi", "1,1,1"]) == 0
        assert calls == ["hilbstrata dim"]
        calls.clear()
        # Leftover arguments: the top-level parser reports them.
        assert main(["dim", "--phi", "1,1,1", "extra"]) == 2
        assert calls == ["hilbstrata dim", "hilbstrata", "hilbstrata dim"]


def test_closed_pipe_in_process_exits_2(monkeypatch):
    # A stream with no file behind it whose reader has gone.
    class Gone:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Gone())
    assert main(["enumerate", "-n", "5"]) == 2


def test_full_stdout_in_process_exits_2_with_one_line(capsys, monkeypatch):
    # A stream with no file behind it that has no room left.
    class Full:
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["enumerate", "-n", "5"]) == 2
    assert capsys.readouterr().err == "error: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv", [["graph", "-n", "12"], ["enumerate", "-n", "30"], ["verify", "--n-max", "5", "--workers", "1"]]
)
def test_full_stdout_exits_2_with_one_line(argv):
    # No traceback, and the interpreter's last flush adds nothing.
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "hilbstrata.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    assert (proc.returncode, proc.stderr) == (2, b"error: No space left on device\n")


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before the command starts")
def test_closed_stdout_exits_2_with_one_line(capsys, monkeypatch):
    # A process started with standard output closed (``>&-``) has
    # ``sys.stdout`` None.
    proc = subprocess.run(
        [sys.executable, "-m", "hilbstrata.cli", "dim", "--phi", "1,2"],
        stderr=subprocess.PIPE,
        preexec_fn=lambda: os.close(1),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (2, b"error: standard output is closed\n")
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["dim", "--phi", "1,2"]) == 2
    assert capsys.readouterr().err == "error: standard output is closed\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_pipe_exits_2_quietly(unbuffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # The reader leaves after one line of a long listing: a later write fails.
    proc = subprocess.Popen(
        [sys.executable, "-m", "hilbstrata.cli", "enumerate", "-n", "60"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert (first, err) == (b"1,2,3,4,5,6,7,8,9,10,5\n", b"")

    # The reader is gone before the first write: with buffered output, the
    # last flush fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hilbstrata.cli", "dim", "--phi", "1,1,1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"")


@pytest.mark.skipif(available_cpus() < 2, reason="a parallel sweep needs two CPUs")
def test_closed_pipe_during_a_parallel_sweep_exits_2_quietly():
    # The reader leaves after the first weight's line, while the pool is
    # still sweeping.  The output is block-buffered, as it is through any
    # pipe, so the line arrives only because verify flushes each one.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "hilbstrata.cli", "verify", "--n-min", "30", "--n-max", "52", "--workers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert first.startswith(b"n=30: diagrams=296 ") and err == b""


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_a_dead_sweep_worker_ends_verify_with_one_error_line(tmp_path, method):
    # A worker that dies holding a range, as one the kernel's OOM killer
    # ends, must not leave verify waiting for that range forever.  The
    # script's workers call os._exit on their first range: a worker started
    # by spawn or forkserver imports the script as __mp_main__ and so
    # patches its own sweep module.  Weights 20..24 stay tiny, so no run
    # here can exhaust memory, and the timeout turns a hang into a failure.
    script = tmp_path / "dying_worker.py"
    script.write_text(
        "import multiprocessing, os, sys\n"
        "from hilbstrata import cli, sweep\n"
        "def die(task):\n"
        "    os._exit(3)\n"
        "sweep._sweep_chunk = die\n"
        "sweep.available_cpus = lambda: 2\n"
        "if __name__ == '__main__':\n"
        f"    multiprocessing.set_start_method({method!r})\n"
        "    sys.exit(cli.main(['verify', '--n-min', '20', '--n-max', '24', '--workers', '2']))\n"
    )
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: a sweep worker process died, so the sweep is incomplete\n"
