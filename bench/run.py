"""colorinv benchmark: one seeded workload, timed or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; colorinv is imported from its
`src/`.  A timed run (`--trace 0`) sets up SETUP_REPEATS times, each from a
fresh import, then runs whole passes over the workload's ops in a closed
loop, single-threaded, until S seconds have passed and at least MIN_PASSES
passes have run; on a workload with several variants (verify-all) the
passes cycle through them.  A fixed reference kernel, which uses no
colorinv code, is timed before each set-up and each op and after the last;
`setup_s` and `wall_s` are rescaled by REF_S over its mean time nearby, so
that they read as seconds on a machine that runs the kernel in REF_S
seconds, and a shared host's changes of speed cancel out.  A traced run
(`--trace 1`) runs one untraced pass, then sets up and runs one pass with
every layer traced, both on the first variant.  Every op's output is checked
exactly, and each pass's printed text is compared by SHA-256 with the
digests recorded in digests.json.  Human-readable lines come first; the
last line of standard output is the JSON result."""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import tracing  # noqa: E402  (a sibling file; the script's directory is on sys.path)
import workloads  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 3  # each op's latency is its best over the passes
REF_S = 0.015  # about the reference kernel's time on the baseline machine

# Workload -> per-layer metrics that must read nonzero in a traced run.
LIVE = {
    "picture-build": (
        "groups.eps_exponent.calls", "permutations.act_tuple.calls",
        "permutations.compose.calls", "pictures.coefficient_exponent.calls",
        "sympoly.sym_normalize.calls", "pictures.build_phi.calls",
        "pictures.phi_terms_per_tuple", "textform.format_sym.calls",
    ),
    "point-eval": (
        "cyclo.mul.calls", "cyclo.add.calls", "groups.root.calls",
        "epsalgebra.mul.calls", "epsalgebra.normal_order.calls",
        "epsalgebra.hop.calls", "traces.restitute.calls",
        "traces.trace_monomial.calls", "traces.end_compose.calls",
        "textform.parse_sym.calls", "textform.parse_point.calls",
        "textform.format_eps.calls", "sampling.random_w0_point.calls",
    ),
    "contraction-path": (
        "cyclo.mul.calls", "cyclo.add.calls", "groups.root.calls",
        "tensors.act_perm.calls", "tensors.act_perm.terms_in",
        "tensors.tensor_product.calls", "tensors.contract_pairs.calls",
        "tensors.contract_pairs.kept_ratio", "pictures.t_sigma_on_parts.calls",
        "pictures.blocked_terms", "sampling.random_w0_point.calls",
    ),
    "verify-all": (
        "cyclo.mul.calls", "cyclo.add.calls", "groups.root.calls",
        "epsalgebra.mul.calls", "epsalgebra.normal_order.calls",
        "epsalgebra.hop.calls", "traces.restitute.calls",
        "traces.trace_monomial.calls", "traces.end_compose.calls",
        "tensors.act_perm.calls", "tensors.tensor_product.calls",
        "tensors.contract_pairs.calls", "tensors.apply_operator.calls",
        "pictures.t_sigma_on_parts.calls", "linalg.rank_int.calls",
        "sampling.random_w0_point.calls",
    ) + tuple("oracle.suite.%s.s" % s for s in tracing.SUITES),
}


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q percent
    of the values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def reference_kernel(n=2000):
    """Fixed pure-Python work like colorinv's own (Fraction arithmetic on
    dict-held terms with tuple keys), timed to gauge the machine's speed."""
    acc = {}
    f = Fraction(1, 3)
    for i in range(n):
        key = (i % 17, i % 5, i % 3)
        acc[key] = acc.get(key, 0) + f * (i % 7)
        f = f * Fraction(3, 2) if i % 11 else Fraction(i % 13 + 1, 7)
    return len(acc)


def time_reference():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def rescaled(seconds, ref_s):
    """`seconds` as they would read where the kernel takes REF_S, given the
    kernel's times `ref_s` taken around them."""
    return seconds * REF_S / statistics.fmean(ref_s)


def fresh_import():
    """Import colorinv anew, dropping any earlier import, and return its
    modules by name."""
    for name in [n for n in sys.modules if n == "colorinv" or n.startswith("colorinv.")]:
        del sys.modules[name]
    return {layer: importlib.import_module("colorinv." + layer)
            for layer in tracing.LAYERS}


def load_digests(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


class PassResult:
    def __init__(self, n_ops):
        self.op_s = [None] * n_ops  # latency of each op; None if it raised
        self.step_s = {}            # step name -> latency of that step per op
        self.failed = 0
        self.digest = None
        self.ref_s = []             # reference kernel times around the ops

    @property
    def wall_s(self):
        return sum(t for t in self.op_s if t is not None)


def run_pass(wl, tracer=None, calibrate=False):
    """One closed-loop pass over the workload's ops.  Checks run outside
    the timed steps and, in a traced pass, with tracing paused.  With
    `calibrate`, the reference kernel is timed before each op and after
    the last, outside the ops' times."""
    res = PassResult(len(wl.ops))
    digest = hashlib.sha256()
    for text in wl.printed:
        digest.update(text.encode() + b"\0")
    clock = time.perf_counter
    for i, op in enumerate(wl.ops):
        if calibrate:
            res.ref_s.append(time_reference())
        try:
            values = []
            start = clock()
            for name, step in op.steps:
                t0 = clock()
                values.append(step())
                res.step_s.setdefault(name, [None] * len(wl.ops))[i] = clock() - t0
            res.op_s[i] = clock() - start
            if tracer is not None:
                tracer.active = False
            ok, text = op.check(values)
        except Exception:  # one failing op must not end the run
            traceback.print_exc(file=sys.stderr)
            ok, text = False, "<exception>"
        finally:
            if tracer is not None:
                tracer.active = True
        if not ok:
            res.failed += 1
        digest.update(text.encode() + b"\0")
    if calibrate:
        res.ref_s.append(time_reference())
    res.digest = digest.hexdigest()
    return res


def best_of(per_pass):
    """Per op, the least latency over the passes that completed it."""
    out = []
    for times in zip(*per_pass):
        done = [t for t in times if t is not None]
        if done:
            out.append(min(done))
    return out


def check_digests(passes, expected):
    """Digest checks, one per pass: each pass must print what the recorded
    run printed (or, for a seed with no record, what the first pass did)."""
    want = expected or passes[0].digest
    return sum(1 for p in passes if p.digest != want)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(name, seed, seconds):
    setup = workloads.WORKLOADS[name]
    keys = workloads.variant_seeds(name, seed)
    setup_s, raw_setup_s = [], []
    for _ in range(SETUP_REPEATS):
        wls = None
        gc.collect()
        before = time_reference()
        start = time.perf_counter()
        modules = fresh_import()
        wls = [setup(modules, key) for key in keys]
        raw_setup_s.append(time.perf_counter() - start)
        setup_s.append(rescaled(raw_setup_s[-1], [before, time_reference()]))
    gc.collect()
    # pass k runs variant k mod len(keys), so every variant runs at least once
    by_key = {key: [] for key in keys}
    n_passes = 0
    start = time.perf_counter()
    while n_passes < max(MIN_PASSES, len(keys)) or time.perf_counter() - start < seconds:
        i = n_passes % len(keys)
        by_key[keys[i]].append(run_pass(wls[i], calibrate=True))
        n_passes += 1
    failed = attempted = 0
    recorded = True
    op_s, step_s = [], {}
    for key, wl in zip(keys, wls):
        passes = by_key[key]
        expected = load_digests(name, key)
        recorded = recorded and expected is not None
        failed += sum(p.failed for p in passes) + check_digests(passes, expected)
        attempted += len(passes) * (len(wl.ops) + 1)
        op_s += best_of([p.op_s for p in passes])
        for step in passes[0].step_s:
            step_s.setdefault(step, []).extend(best_of([p.step_s[step] for p in passes]))
    all_passes = [p for key in keys for p in by_key[key]]
    wall_s = statistics.fmean(
        statistics.median(rescaled(p.wall_s, p.ref_s) for p in by_key[key]) for key in keys)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    ref_s = [t for p in all_passes for t in p.ref_s]
    lines = ["workload %s  seed %d  variant seeds %s  passes %d  ops %d per pass"
             "  latency: best of a variant's passes per op"
             % (name, seed, ",".join(map(str, keys)), n_passes, len(wls[0].ops)),
             "digest %s" % ("matches the recorded run" if recorded else
                            "not recorded for every variant; those passes compared with each other"),
             "%-22s %12.4f s    (median of the passes' own sums, not rescaled)"
             % ("raw_wall_s", statistics.median(p.wall_s for p in all_passes)),
             "%-22s %12.4f s    (median of the set-ups, not rescaled)"
             % ("raw_setup_s", statistics.median(raw_setup_s)),
             "%-22s %12.4f ms   (median of %d timings; REF_S is %.4f s)"
             % ("reference_ms", statistics.median(ref_s) * 1e3, len(ref_s), REF_S),
             "%-22s %12.4f s    (sum over the ops of each op's best latency, per variant, not rescaled)"
             % ("best_ops_s", sum(op_s) / len(keys))]
    series = [("op", op_s)]
    if len(step_s) > 1:
        series += list(step_s.items())
    for label, values in series:
        for q in (50, 90):
            lines.append("%-22s %12.4f ms  (%d samples)"
                         % ("%s_ms_p%d" % (label, q), percentile(values, q) * 1e3, len(values)))
    lines.append("%-22s %12.4f     (%d of %d checks failed)"
                 % ("fail_frac", failed / attempted, failed, attempted))
    return lines, attempted, failed, metrics


class DeadCounters(Exception):
    """A counter the workload must drive read 0: tracing missed a layer."""


def traced_run(name, seed):
    setup = workloads.WORKLOADS[name]
    key = workloads.variant_seeds(name, seed)[0]
    plain = run_pass(setup(fresh_import(), key))
    gc.collect()
    modules = fresh_import()
    tracer = tracing.Tracer()
    tracing.install(tracer, modules)
    wl = setup(modules, key)
    traced = run_pass(wl, tracer)
    passes = [plain, traced]
    failed = sum(p.failed for p in passes) + check_digests(passes, load_digests(name, key))
    attempted = 2 * (len(wl.ops) + 1)
    metrics = tracing.layer_metrics(tracer, traced.wall_s - plain.wall_s)
    dead = [m for m in LIVE[name] if not metrics[m][0]]
    if dead:
        raise DeadCounters("traced run saw no work on live counters: " + ", ".join(dead))
    lines = ["workload %s  seed %d  traced: one set-up and one pass of variant seed %d"
             % (name, seed, key),
             "traced pass %.4f s, untraced pass %.4f s" % (traced.wall_s, plain.wall_s)]
    return lines, attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "colorinv", "__init__.py")):
        print("error: no colorinv sources at %s; run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.trace:
        try:
            lines, attempted, failed, metrics = traced_run(args.workload, args.seed)
        except DeadCounters as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
    else:
        lines, attempted, failed, metrics = timed_run(args.workload, args.seed, args.seconds)
    for line in lines:
        print(line)
    for metric, (value, unit) in metrics.items():
        print("%-40s %16.6f %s" % (metric, value, unit))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
