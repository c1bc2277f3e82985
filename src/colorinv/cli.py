"""Command line front end.

Thin orchestration over the library: load a configuration, build picture
invariants, evaluate trace monomials, restitute stored polynomials at
stored points, and run the verification suites.  All output uses the
canonical text formats, so everything printed here parses back."""

import argparse
import functools
import re
import sys

from . import permutations as perms
from .config import MAX_TUPLES, ConfigError, list_builtin_configs, resolve_config
from .oracle import SUITES, balanced_multiplicities, suite
from .pictures import PictureShape, build_phi, check_balanced
from .sampling import standard_test_algebra
from .textform import (dump_structured, format_eps, format_sym, parse_point,
                       parse_sym, structured_eps, structured_sym)
from .traces import restitute, trace_monomial

def _parse_mults(text, shape):
    parts = [p for p in text.replace(",", " ").split() if p]
    mults = tuple(int(p) for p in parts)
    if len(mults) != shape.s:
        raise ValueError("expected %d multiplicities (one per summand), got %d"
                         % (shape.s, len(mults)))
    if min(mults) < 0:  # PictureShape's own refusal, ahead of cmd_picture's totals
        raise ValueError("multiplicities must list one nonnegative int per summand")
    return mults

def _check_positions(n, cfg):
    """Refuse n tensor positions above the config's bounds.max_n."""
    if n > cfg.max_n:
        raise ValueError("N=%d tensor positions exceed bounds.max_n=%d of %s"
                         % (n, cfg.max_n, cfg.name))

def _print_value(args, value, structured, text):
    """Print value as JSON (--format structured) or in its text form."""
    if args.format == "structured":
        print(dump_structured(structured(value)))
    else:
        print(text(value))

def cmd_validate(args):
    cfg = resolve_config(args.config)
    chi = cfg.chi
    n_odd = sum(chi.parity_table)
    print("config: %s" % cfg.name)
    print("group: factors %s, order %d, root order m=%d"
          % (list(chi.group.factors), chi.group.order, chi.m))
    print("parities: %d even, %d odd elements" % (chi.group.order - n_odd, n_odd))
    print("space: dim %d, degrees %s"
          % (cfg.space.dim,
             " ".join(str(chi.element_order()[d]) for d in cfg.space.degrees)))
    print("shape: pairs %s" % " ".join("(%d,%d)" % p for p in cfg.shape.pairs))
    print("bounds: truncation %d, max copies %d" % (cfg.truncation, cfg.max_n))
    print("valid")
    return 0

def cmd_list(args):
    cfg = resolve_config(args.config)
    bound = args.max_degree if args.max_degree is not None else cfg.max_n
    if not 1 <= bound <= cfg.max_n:
        raise ValueError("--max-degree %d is outside 1..bounds.max_n=%d of %s"
                         % (bound, cfg.max_n, cfg.name))
    shown = 0
    for M in balanced_multiplicities(cfg.shape, bound):
        pshape = PictureShape(cfg.shape, M)
        print("multiplicities %s  positions N=%d"
              % (",".join(str(m) for m in M), pshape.N))
        for part, rep in perms.cycle_type_reps(pshape.N):
            label = perms.format_cycles(rep) or "(identity)"
            print("  cycle type %s  sigma %s"
                  % ("+".join(str(p) for p in part), label))
        shown += 1
    if not shown:
        print("no balanced multiplicities with 1 <= N <= %d" % bound)
    return 0

def cmd_picture(args):
    cfg = resolve_config(args.config)
    mults = _parse_mults(args.multiplicities, cfg.shape)
    # N and N' are refused before PictureShape lays out one entry per copy
    N = sum(m * b for m, (b, _) in zip(mults, cfg.shape.pairs))
    Nprime = sum(m * t for m, (_, t) in zip(mults, cfg.shape.pairs))
    _check_positions(N, cfg)
    tuples = cfg.space.dim ** N
    if tuples > MAX_TUPLES:
        raise ValueError("N=%d tensor positions on a space of dim %d give %d index "
                         "tuples, above the limit of %d"
                         % (N, cfg.space.dim, tuples, MAX_TUPLES))
    check_balanced(N, Nprime)
    pshape = PictureShape(cfg.shape, mults)
    sigma = perms.parse_perm(args.sigma, k=N)
    phi = build_phi(pshape, sigma)
    _print_value(args, phi.poly, structured_sym, format_sym)
    return 0

def _truncation(args, cfg):
    """The --truncation override when given (0 included), else the config's."""
    if args.truncation is None:
        return cfg.truncation
    if args.truncation < 0:
        raise ValueError("--truncation must be nonnegative, got %d" % args.truncation)
    return args.truncation

def cmd_trace(args):
    cfg = resolve_config(args.config)
    alg = standard_test_algebra(cfg.chi, _truncation(args, cfg))
    with open(args.point) as fh:
        point = parse_point(fh.read(), cfg.shape, alg)
    assign = None
    if args.assign:
        entries = args.assign.replace(",", " ").split()
        _check_positions(len(entries), cfg)
        assign = [int(x) for x in entries]
        sigma = perms.parse_perm(args.sigma, k=len(assign))
    else:
        # without --assign sigma lies in S_K, K its largest entry: refused
        # by that entry before S_K is built
        _check_positions(max(map(int, re.findall(r"\d+", args.sigma)), default=0), cfg)
        sigma = perms.parse_perm(args.sigma)
    value = trace_monomial(list(point.parts), perms.cycles(sigma), assign)
    _print_value(args, value, structured_eps, format_eps)
    return 0

def cmd_eval(args):
    cfg = resolve_config(args.config)
    alg = standard_test_algebra(cfg.chi, _truncation(args, cfg))
    with open(args.poly) as fh:
        poly = parse_sym(fh.read(), cfg.shape)
    with open(args.point) as fh:
        point = parse_point(fh.read(), cfg.shape, alg)
    _print_value(args, restitute(poly, point), structured_eps, format_eps)
    return 0

def cmd_verify(args):
    if args.config:
        configs = [resolve_config(args.config)]
    else:
        configs = [resolve_config("builtin:%s" % n) for n in list_builtin_configs()]
    names = SUITES if args.suite == "all" else (args.suite,)
    chunks = []
    all_ok = True
    for cfg in configs:
        for name in names:
            rpt = suite(name, cfg, seed=args.seed)
            all_ok = all_ok and rpt.ok
            chunks.append(rpt.render())
    text = "\n".join(chunks)
    print(text, end="")
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    print("\nverify: %s" % ("PASS" if all_ok else "FAIL"))
    return 0 if all_ok else 1

@functools.cache
def build_parser():
    """The parser, built once per process; the cmd_* functions it holds
    read the library functions from module globals at call time."""
    ap = argparse.ArgumentParser(
        prog="colorinv",
        description="Picture invariants of mixed tensor spaces over Lie "
                    "color algebras, in exact arithmetic.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_config(p, required=True):
        p.add_argument("--config", required=required,
                       help="config file path or builtin:NAME (builtins: %s)"
                            % ", ".join(list_builtin_configs()))

    p = sub.add_parser("validate", help="parse and validate a configuration")
    add_config(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("list", help="balanced multiplicities and cycle types")
    add_config(p)
    p.add_argument("--max-degree", type=int, default=None,
                   help="largest number of tensor positions N to enumerate")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("picture", help="print the picture invariant phi_sigma")
    add_config(p)
    p.add_argument("--multiplicities", required=True,
                   help="copies per summand, e.g. 2 or 1,1")
    p.add_argument("--sigma", required=True,
                   help='permutation, e.g. "(1 2)" or 2,1 or id')
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=cmd_picture)

    p = sub.add_parser("trace", help="trace monomial of a point file")
    add_config(p)
    p.add_argument("--sigma", required=True,
                   help="permutation whose cycles index the traces")
    p.add_argument("--assign", default=None,
                   help="summand index used at each position, e.g. 1,1,2")
    p.add_argument("--point", required=True, help="point file")
    p.add_argument("--truncation", type=int, default=None,
                   help="override the coefficient algebra truncation")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("eval", help="restitute a stored polynomial at a point")
    add_config(p)
    p.add_argument("--poly", required=True, help="polynomial file")
    p.add_argument("--point", required=True, help="point file")
    p.add_argument("--truncation", type=int, default=None,
                   help="override the coefficient algebra truncation")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run verification suites")
    add_config(p, required=False)
    p.add_argument("--suite", default="all",
                   help="suite name or 'all' (suites: %s)" % ", ".join(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None,
                   help="also write the report to this file")
    p.set_defaults(func=cmd_verify)
    return ap

def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        # argparse reads "--sigma=--" as [] up to Python 3.12, as "--" after
        for key, value in vars(args).items():
            if value in ([], "--"):
                raise ValueError("--%s needs a value" % key.replace("_", "-"))
        return args.func(args)
    except (ConfigError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
