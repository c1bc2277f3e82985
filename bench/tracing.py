"""Call tracing for the benchmark's traced run, installed from outside the
package.

`install` wraps every public module-level function of each layer module
of one import of colorinv, plus the class methods in METHODS, and rebinds
every reference to the original: names copied by `from .x import y`,
module-level aliases and class-level aliases such as `__radd__ = __add__`.
Each wrapped call is one span.  Spans are kept in memory as per-name
aggregates (call count, self time, total time) rather than one record per
call, because the hot layers make millions of calls.  A span's self time
is its duration minus the time its child spans cover."""

import collections
import functools
import time
from types import FunctionType

# The modules of colorinv, in the order reports list them.  `sampling` and
# `config` only build inputs; the benchmark counts them as set-up.
LAYERS = ("groups", "cyclo", "epsalgebra", "permutations", "sympoly",
          "pictures", "tensors", "traces", "textform", "linalg", "oracle",
          "cli", "sampling", "config")

# Hot class methods, by (layer, class, attribute), and the span name each
# reports under.  Aliases of the same function share the span.
METHODS = {
    ("cyclo", "CycloRational", "__mul__"): "cyclo.mul",
    ("cyclo", "CycloRational", "__add__"): "cyclo.add",
    ("groups", "Bicharacter", "eps_exponent"): "groups.eps_exponent",
    ("groups", "Bicharacter", "root"): "groups.root",
    ("epsalgebra", "EpsElement", "__mul__"): "epsalgebra.mul",
}

# Spans reported one by one, each as `.calls` and `.self_s`.
FUNCTIONS = (
    "groups.eps_exponent", "groups.root",
    "cyclo.mul", "cyclo.add",
    "permutations.act_tuple", "permutations.compose",
    "sympoly.sym_normalize",
    "pictures.coefficient_exponent", "pictures.build_phi",
    "pictures.t_sigma_on_parts",
    "epsalgebra.mul", "epsalgebra.normal_order", "epsalgebra.hop",
    "traces.restitute", "traces.trace_monomial", "traces.end_compose",
    "tensors.act_perm", "tensors.tensor_product", "tensors.contract_pairs",
    "tensors.apply_operator",
    "textform.format_sym", "textform.parse_sym", "textform.parse_point",
    "textform.format_eps",
    "linalg.rank_int",
    "sampling.random_w0_point",
)

# The verification suites, as `colorinv.oracle.SUITES` names them.
SUITES = ("bicharacter", "cocycle", "jacobi", "centralizer-commute",
          "symalgebra", "path-equality", "invariance", "trace-match",
          "restitution", "span")


def _count_nonzero(counters, name, args, kwargs, result, dt):
    # sym_normalize and normal_order return None for a word that vanishes.
    if result is not None:
        counters[name + ".nonzero"] += 1


def _count_terms_in(counters, name, args, kwargs, result, dt):
    counters[name + ".terms_in"] += len(args[1].terms)


def _count_contraction(counters, name, args, kwargs, result, dt):
    t = args[0]
    counters[name + ".terms_in"] += len(t.terms)
    k = len(t.variance) // 2
    counters[name + ".terms_kept"] += sum(
        1 for idx in t.terms if all(idx[2 * i] == idx[2 * i + 1] for i in range(k)))


def _count_phi_terms(counters, name, args, kwargs, result, dt):
    pshape = args[0]
    counters["pictures.phi_tuples"] += pshape.shape.space.dim ** pshape.N
    counters["pictures.phi_terms"] += len(result.poly.terms)


def _count_blocked(counters, name, args, kwargs, result, dt):
    counters["pictures.blocked_terms"] += len(result.terms)


def _time_suite(counters, name, args, kwargs, result, dt):
    suite = args[0] if args else kwargs["name"]
    counters["oracle.suite.%s.s" % suite] += dt


HOOKS = {
    "sympoly.sym_normalize": _count_nonzero,
    "epsalgebra.normal_order": _count_nonzero,
    "tensors.act_perm": _count_terms_in,
    "tensors.contract_pairs": _count_contraction,
    "pictures.build_phi": _count_phi_terms,
    "pictures.blocked_word": _count_blocked,
    "oracle.suite": _time_suite,
}


class SpanStats:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Aggregated spans and counters.  While `active` is false, wrapped
    functions run untraced; the benchmark clears it around its own checks,
    so that only the workload is counted."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = True
        self.spans = {}
        self.counters = collections.Counter()
        self._open = []  # per open span: the time its children covered so far

    def wrap(self, name, fn):
        stats = self.spans.setdefault(name, SpanStats())
        hook = HOOKS.get(name)
        open_spans = self._open
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                children = open_spans.pop()
                stats.calls += 1
                stats.self_s += dt - children
                stats.total_s += dt
                if open_spans:
                    open_spans[-1] += dt
            if hook is not None:
                # Counted like a child span, so the caller's self time
                # leaves the hook out.
                hook_start = clock()
                hook(self.counters, name, args, kwargs, result, dt)
                if open_spans:
                    open_spans[-1] += clock() - hook_start
            return result

        traced.span = name
        return traced


def install(tracer, modules):
    """Trace one import of colorinv.  `modules` maps each name in LAYERS
    to its module object; every module of the package is rebound."""
    wrappers = {}
    for layer in LAYERS:
        mod = modules[layer]
        for attr, val in vars(mod).items():
            if (not attr.startswith("_") and isinstance(val, FunctionType)
                    and val.__module__ == mod.__name__):
                wrappers[val] = tracer.wrap("%s.%s" % (layer, attr), val)
    for (layer, cls, attr), name in METHODS.items():
        fn = vars(getattr(modules[layer], cls))[attr]
        if not isinstance(fn, FunctionType):
            raise TypeError("%s.%s.%s is not a plain function" % (layer, cls, attr))
        wrappers[fn] = tracer.wrap(name, fn)
    for name in FUNCTIONS + tuple(HOOKS):
        if name not in tracer.spans:
            raise LookupError("no function to trace for %s" % name)
    # Rebind in every module, then in every class those modules hold.
    todo = list(modules.values())
    seen = set()
    while todo:
        space = todo.pop()
        if id(space) in seen:
            continue
        seen.add(id(space))
        for attr, val in list(vars(space).items()):
            if isinstance(val, FunctionType) and val in wrappers:
                setattr(space, attr, wrappers[val])
            elif isinstance(val, type) and val.__module__.startswith("colorinv."):
                todo.append(val)
    return wrappers


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in FUNCTIONS:
        specs.append((name + ".calls", "count", "lower"))
        specs.append((name + ".self_s", "s", "lower"))
    specs += [
        ("sympoly.sym_normalize.nonzero_ratio", "ratio", "higher"),
        ("epsalgebra.normal_order.nonzero_ratio", "ratio", "higher"),
        ("pictures.phi_terms_per_tuple", "ratio", "higher"),
        ("pictures.blocked_terms", "count", "lower"),
        ("tensors.act_perm.terms_in", "count", "lower"),
        ("tensors.contract_pairs.kept_ratio", "ratio", "higher"),
    ]
    specs += [("oracle.suite.%s.s" % s, "s", "lower") for s in SUITES]
    specs += [(layer + ".self_s", "s", "lower") for layer in LAYERS]
    # The traced pass's time minus an untraced pass's, set by the caller.
    specs.append(("trace_overhead_s", "s", "lower"))
    return specs


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, overhead_s):
    """Every per-layer metric as name -> (value, unit)."""
    spans, counters = tracer.spans, tracer.counters
    layer_self = collections.Counter()
    for name, stats in spans.items():
        layer_self[name.split(".", 1)[0]] += stats.self_s
    values = {}
    for name in FUNCTIONS:
        values[name + ".calls"] = spans[name].calls
        values[name + ".self_s"] = spans[name].self_s
    values["sympoly.sym_normalize.nonzero_ratio"] = _ratio(
        counters["sympoly.sym_normalize.nonzero"], spans["sympoly.sym_normalize"].calls)
    values["epsalgebra.normal_order.nonzero_ratio"] = _ratio(
        counters["epsalgebra.normal_order.nonzero"], spans["epsalgebra.normal_order"].calls)
    values["pictures.phi_terms_per_tuple"] = _ratio(
        counters["pictures.phi_terms"], counters["pictures.phi_tuples"])
    values["pictures.blocked_terms"] = counters["pictures.blocked_terms"]
    values["tensors.act_perm.terms_in"] = counters["tensors.act_perm.terms_in"]
    values["tensors.contract_pairs.kept_ratio"] = _ratio(
        counters["tensors.contract_pairs.terms_kept"],
        counters["tensors.contract_pairs.terms_in"])
    for s in SUITES:
        values["oracle.suite.%s.s" % s] = float(counters["oracle.suite.%s.s" % s])
    for layer in LAYERS:
        values[layer + ".self_s"] = layer_self[layer]
    values["trace_overhead_s"] = overhead_s
    return {name: (values[name], unit) for name, unit, _ in metric_specs()}
