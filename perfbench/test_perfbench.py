"""Tests of the benchmark's own code: percentiles, span self time, the query
generator, the golden checks and the speed correction.  They do not run the
workloads."""

import json
import sys
import types

import pytest

import querygen
import run
import speed
import tracer as tracing


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(8000) == 99
    assert run.tail_percentile(16000) == 99.9
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(999) == 90
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(19) is None


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile([7], 99) == 7


@pytest.fixture
def clock(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(tracing, "perf_counter", lambda: now[0])
    return now


def test_self_time_subtracts_nested_spans(clock):
    t = tracing.Tracer()

    def leaf():
        clock[0] += 4

    def inner():
        clock[0] += 3
        leaf_w()

    def outer():
        clock[0] += 1
        inner_w()
        clock[0] += 2

    leaf_w = t.wrap("a.leaf", leaf)
    inner_w = t.wrap("b.inner", inner)
    t.wrap("a.outer", outer)()
    calls, inclusive, self_s = t.summarize()
    assert list(t.parent) == [-1, 0, 1]
    assert inclusive == {"a.outer": 10, "b.inner": 7, "a.leaf": 4}
    assert self_s == {"a": 3 + 4, "b": 3}
    assert sum(self_s.values()) == inclusive["a.outer"]
    assert calls == {"a.outer": 1, "b.inner": 1, "a.leaf": 1}


def test_generator_spans_cover_each_item(clock):
    t = tracing.Tracer()

    def items():
        for _ in range(3):
            clock[0] += 2
            yield clock[0]

    assert list(t.wrap("m.items", items)()) == [2, 4, 6]
    _, inclusive, _ = t.summarize()
    assert len(t.start) == 4  # three items and the final exhausted step
    assert inclusive["m.items"] == 6


def test_install_wraps_every_lookup_and_skips_missing_names(monkeypatch):
    core = types.ModuleType("fakepkg.core")
    core.double = lambda x: 2 * x
    user = types.ModuleType("fakepkg.user")
    user.twice = core.double
    for name, module in (("fakepkg", types.ModuleType("fakepkg")), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    original = core.double
    t = tracing.Tracer()
    targets = [("core.double", "core", "double"), ("core.gone", "core", "gone"), ("lost.f", "lost", "f")]
    t.install("fakepkg", targets, {})
    assert user.twice(3) == 6 and core.double(4) == 8
    calls, _, _ = t.summarize()
    assert calls["core.double"] == 2
    assert t.installed == {"core.double"}
    t.uninstall()
    assert core.double is original and user.twice is original


def test_layer_metrics_mark_missing_layers_absent():
    t = tracing.Tracer()
    t.installed = {name for name, module, _ in tracing.TARGETS if module != "laurent"}
    metrics = tracing.layer_metrics(t, {"wall_raw_s": 1.0, "parent_cpu_s": 1.0, "children_cpu_s": 0.0})
    assert metrics["laurent.self_s"] is None
    assert metrics["laurent.mul.calls"] is None
    assert metrics["diagrams.self_s"] == (0.0, "s")


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    t = tracing.Tracer()
    t.installed = {name for name, _, _ in tracing.TARGETS}
    layers = tracing.layer_metrics(t, {"wall_raw_s": 1.0, "parent_cpu_s": 1.0, "children_cpu_s": 0.0})
    units = {name: unit for name, (_, unit) in layers.items()}
    units.update({"trace.wall_s": "s", "trace.self_s_sum": "s", "trace.overhead_ratio": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units


def _staircase_shape(s):
    k = 0
    while k < len(s) and s[k] == k + 1:
        k += 1
    tail = s[k:]
    return all(0 < x <= k for x in tail) and all(a >= b for a, b in zip(tail, tail[1:]))


def _parse(text):
    values = [int(x) for x in text.rstrip(".").rstrip(",").split(",")]
    if text.endswith(".."):
        return [b - a for a, b in zip([0] + values, values)]
    return values


def test_query_stream_is_deterministic_per_seed():
    assert querygen.make_queries(7, 300) == querygen.make_queries(7, 300)
    assert querygen.make_queries(7, 300) != querygen.make_queries(8, 300)


def test_query_stream_holds_only_valid_diagrams():
    low, high = querygen.WEIGHTS
    kinds = set()
    for argv, expect in querygen.make_queries(3, 400):
        kinds.add(expect[0])
        texts = [argv[i + 1] for i, arg in enumerate(argv) if arg in ("--phi", "--psi")]
        for text in texts:
            s = _parse(text)
            assert _staircase_shape(s) and querygen.is_diagram(s), text
            assert low <= sum(s) <= high
    assert kinds == {"cover", "not-cover", "betti", "dim"}


def test_random_diagram_has_the_requested_weight():
    import random

    rng = random.Random(0)
    for n in (1, 2, 3, 40, 160):
        s = querygen.random_diagram(rng, n)
        assert sum(s) == n and _staircase_shape(s)


def test_distinct_partition_counts():
    assert querygen.distinct_partition_counts(10) == [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]


def _flip_one_byte(text, index):
    return text[:index] + ("x" if text[index] != "x" else "y") + text[index + 1:]


def test_one_byte_golden_mismatch_fails_that_weight():
    golden = (run.GOLDEN / "verify_50_56.txt").read_text()
    partitions = querygen.distinct_partition_counts(run.SWEEP_N[1])
    assert run.check_verify(0, golden, golden, partitions) == 0
    lines = golden.splitlines(keepends=True)
    third = len(lines[0]) + len(lines[1]) + 12
    covers_52 = run._fields(lines[2])["covers"]
    assert run.check_verify(0, _flip_one_byte(golden, third), golden, partitions) == covers_52
    total = sum(run._fields(line)["covers"] for line in lines[:-1])
    assert run.check_verify(0, _flip_one_byte(golden, len(golden) - 3), golden, partitions) == total
    assert run.check_verify(1, golden, golden, partitions) == total


def test_one_byte_query_digest_mismatch_fails_every_query():
    workload = run.QueryWorkload()
    workload.queries = [(["dim", "--phi", "1,2"], ("dim", "4")), (["dim", "--phi", "1"], ("dim", "2"))]
    workload.latencies = []
    results = [(0, "4\n", ""), (0, "2\n", "")]
    workload.golden = run.query_digest(results)
    assert workload.check((results, [0.001, 0.002]))[0] == 0
    workload.golden = run.query_digest([(0, "4\n", ""), (0, "3\n", "")])
    assert workload.check((results, [0.001, 0.002]))[0] == 2


def test_query_checks_use_the_benchmarks_own_answers():
    line = "u=2 v=3 dim: 10->11 tangent:OK C:OK type0:N => INCIDENT\n"
    assert run.check_query((0, line, ""), ("cover", 2, 3))
    assert not run.check_query((0, line, ""), ("cover", 2, 4))
    assert not run.check_query((0, line.replace("C:OK", "C:FAIL"), ""), ("cover", 2, 3))
    assert run.check_query((2, "", "error: pair is not length zero"), ("not-cover",))
    assert not run.check_query((0, "", ""), ("not-cover",))
    assert not run.check_query(("exception ValueError()", "", ""), ("dim", "4"))


def test_reference_seconds_drop_sampling_time_and_scale_by_speed():
    sampler = speed.SpeedSampler(1.0)
    ref = speed.REFERENCE_S
    sampler.samples = [2 * ref, 2 * ref, ref]  # the last one is taken after the phase
    assert sampler.busy() == pytest.approx(4 * ref)
    assert sampler.reference_seconds(1.0) == pytest.approx((1.0 - 4 * ref) * (0.5 + 0.5 + 1) / 3)


def test_sampler_samples_during_the_phase_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler(0.002) as sampler:
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
