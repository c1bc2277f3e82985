"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench

They cover the percentile helper, the rescaling by the reference kernel,
the variant seeds, the self-time arithmetic of nested spans, that the
traced run's wrappers see every call, that call counts repeat exactly
between two traced runs of one seed, and that a traced run fails when a
counter that must be live reads 0."""

import collections
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------ percentiles

def test_percentile_nearest_rank():
    values = list(range(100, 0, -1))  # order must not matter
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 100) == 100
    assert run.percentile(values, 0) == 1
    # with 100 samples, p90 leaves exactly ten samples above it
    assert sum(1 for v in values if v > run.percentile(values, 90)) == 10


def test_percentile_small_samples():
    assert run.percentile([7.5], 90) == 7.5
    assert run.percentile([1, 2, 3, 4], 50) == 2
    assert run.percentile([1, 2, 3, 4], 90) == 4
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_best_of_skips_ops_that_raised():
    passes = [[3.0, None, 2.0], [1.0, None, 5.0], [2.0, None, 4.0]]
    assert run.best_of(passes) == [1.0, 2.0]


# ------------------------------------------------------------- rescaling

def test_rescaled_cancels_the_machine_speed():
    # the same work on a machine twice as slow reads the same
    fast = run.rescaled(2.0, [run.REF_S, run.REF_S])
    slow = run.rescaled(4.0, [2 * run.REF_S, 2 * run.REF_S])
    assert fast == pytest.approx(2.0) and slow == pytest.approx(2.0)
    # the kernel's times are averaged
    assert run.rescaled(3.0, [run.REF_S, 3 * run.REF_S]) == pytest.approx(1.5)


def test_calibrated_pass_times_the_kernel_around_every_op():
    ops = [workloads.Op((("noop", lambda: 1),), lambda values: (True, "x"))
           for _ in range(4)]
    wl = workloads.Workload(ops)
    plain, calibrated = run.run_pass(wl), run.run_pass(wl, calibrate=True)
    assert plain.ref_s == [] and len(calibrated.ref_s) == len(ops) + 1
    assert plain.digest == calibrated.digest and calibrated.failed == 0


def test_variant_seeds_are_disjoint_between_run_seeds():
    assert workloads.variant_seeds("picture-build", 7) == [7]
    seen = set()
    for seed in range(30):
        keys = workloads.variant_seeds("verify-all", seed)
        assert keys == workloads.variant_seeds("verify-all", seed)
        assert len(set(keys)) == workloads.VERIFY_SEEDS_PER_RUN and not seen & set(keys)
        seen |= set(keys)


# ------------------------------------------------------------- self time

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf(dt):
        clock.advance(dt)

    def middle():
        clock.advance(1.0)
        leaf_w(2.0)
        clock.advance(3.0)
        leaf_w(4.0)

    def outer():
        clock.advance(0.5)
        middle_w()
        clock.advance(0.25)

    leaf_w = tracer.wrap("t.leaf", leaf)
    middle_w = tracer.wrap("t.middle", middle)
    outer_w = tracer.wrap("t.outer", outer)
    outer_w()
    spans = tracer.spans
    assert (spans["t.leaf"].calls, spans["t.leaf"].self_s) == (2, 6.0)
    assert (spans["t.middle"].calls, spans["t.middle"].self_s) == (1, 4.0)
    assert spans["t.middle"].total_s == 10.0
    assert (spans["t.outer"].calls, spans["t.outer"].self_s) == (1, 0.75)
    assert spans["t.outer"].total_s == 10.75
    assert sum(s.self_s for s in spans.values()) == spans["t.outer"].total_s


def test_self_time_of_recursion_and_of_a_raising_child():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def rec(n):
        clock.advance(1.0)
        if n:
            rec_w(n - 1)

    def bad():
        clock.advance(2.0)
        raise KeyError("x")

    def caller():
        clock.advance(1.0)
        with pytest.raises(KeyError):
            bad_w()

    rec_w = tracer.wrap("t.rec", rec)
    bad_w = tracer.wrap("t.bad", bad)
    caller_w = tracer.wrap("t.caller", caller)
    rec_w(3)
    caller_w()
    assert (tracer.spans["t.rec"].calls, tracer.spans["t.rec"].self_s) == (4, 4.0)
    assert tracer.spans["t.rec"].total_s == 4.0 + 3.0 + 2.0 + 1.0
    assert (tracer.spans["t.bad"].calls, tracer.spans["t.bad"].self_s) == (1, 2.0)
    assert tracer.spans["t.caller"].self_s == 1.0


def test_paused_tracer_records_nothing():
    tracer = tracing.Tracer()
    f = tracer.wrap("t.f", lambda: 1)
    tracer.active = False
    assert f() == 1
    tracer.active = True
    assert tracer.spans["t.f"].calls == 0


# ------------------------------------------------------ tracing coverage

def tiny_ops(m, seed):
    """A few ops from every workload, chosen to reach every layer."""
    ops = workloads.picture_build(m, seed).ops[:2]
    ops += workloads.point_eval(m, seed).ops[:2]
    ops += workloads.contraction_path(m, seed).ops[:2]
    for suite in ("span", "invariance"):
        ops.append(workloads._verify_op(m, ["verify", "--config", "builtin:trivial",
                                            "--suite", suite, "--seed", str(seed)]))
    return ops


def run_steps(ops):
    for op in ops:
        for _, step in op.steps:
            step()


def span_calls(tracer):
    return {name: s.calls for name, s in tracer.spans.items()}


def test_wrappers_see_every_call():
    """Count calls to each traced function twice: through its wrapper and
    with a profiler that sees every call of the original code.  A name
    left unrebound (a `from .x import y` copy, a class alias) would make
    the profiler count more."""
    modules = run.fresh_import()
    tracer = tracing.Tracer()
    wrappers = tracing.install(tracer, modules)
    ops = tiny_ops(modules, seed=3)
    names = {fn.__code__: w.span for fn, w in wrappers.items()}
    before = span_calls(tracer)
    seen = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            name = names.get(frame.f_code)
            if name is not None:
                seen[name] += 1

    sys.setprofile(profile)
    try:
        run_steps(ops)
    finally:
        sys.setprofile(None)
    after = span_calls(tracer)
    counted = {n: after[n] - before[n] for n in after if after[n] != before[n]}
    assert counted == dict(seen)
    for name in ("cyclo.add", "cyclo.mul", "epsalgebra.hop", "tensors.act_perm",
                 "tensors.contract_pairs", "sympoly.sym_normalize",
                 "pictures.build_phi", "traces.restitute", "linalg.rank_int"):
        assert counted.get(name), name


def test_class_aliases_are_traced():
    """`__radd__ = __add__` and `__rmul__ = __mul__` share the span of the
    method they alias.  No workload reaches them at this commit, so they
    are called here directly."""
    modules = run.fresh_import()
    tracer = tracing.Tracer()
    tracing.install(tracer, modules)
    c = modules["cyclo"].CycloRational.root(3)
    before = span_calls(tracer)
    assert 0 + c == c
    assert 2 * c == c + c
    after = span_calls(tracer)
    assert after["cyclo.add"] - before["cyclo.add"] == 2
    assert after["cyclo.mul"] - before["cyclo.mul"] == 1


def test_traced_run_fails_on_a_dead_counter(monkeypatch):
    def tiny(m, seed):
        return workloads.Workload(workloads.picture_build(m, seed).ops[:1])

    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    monkeypatch.setitem(run.LIVE, "tiny", ("linalg.rank_int.calls",))
    with pytest.raises(run.DeadCounters):
        run.traced_run("tiny", 0)
    monkeypatch.setitem(run.LIVE, "tiny", ("pictures.build_phi.calls",))
    _, attempted, failed, metrics = run.traced_run("tiny", 0)
    assert (attempted, failed) == (4, 0)
    assert metrics["pictures.build_phi.calls"] == (1, "count")


CHILD = """
import json, sys
sys.path[:0] = [%(here)r, %(src)r]
import run, tracing, test_bench
modules = run.fresh_import()
tracer = tracing.Tracer()
tracing.install(tracer, modules)
test_bench.run_steps(test_bench.tiny_ops(modules, seed=5))
print(json.dumps(test_bench.span_calls(tracer), sort_keys=True))
"""


def test_call_counts_repeat_between_processes():
    code = CHILD % {"here": HERE, "src": os.path.join(ROOT, "src")}
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=300, env=env, check=True)
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0]["cyclo.mul"] > 0


# ---------------------------------------------- agreement with the spec

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_per_layer_metrics_match_the_spec():
    spec = [(m["name"], m["unit"], m["better"]) for m in load_spec()["per_layer"]]
    assert spec == tracing.metric_specs()
    names = {name for name, _, _ in spec}
    for live in run.LIVE.values():
        assert set(live) <= names


def test_gated_workloads_exist():
    names = [w["name"] for w in load_spec()["workloads"]]
    assert names and set(names) <= set(workloads.WORKLOADS)
    assert set(run.LIVE) == set(workloads.WORKLOADS)


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "point-eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
