"""The benchmark's four workloads.

Each workload is a set-up function `(modules, seed) -> Workload`.  It
takes one fresh import of colorinv (a dict from module name to module)
and the seed, generates every input from the seed, and returns the fixed
list of ops one pass runs, in order.  An op is a few named steps, each a
call into colorinv's public entry points, plus a check that compares the
step results exactly and returns the text the op prints."""

import contextlib
import io
import random


class Op:
    __slots__ = ("steps", "check")

    def __init__(self, steps, check):
        self.steps = steps  # ((step name, callable), ...)
        self.check = check  # step results -> (ok, printed text)


class Workload:
    def __init__(self, ops, printed=()):
        self.ops = ops
        self.printed = list(printed)  # text printed during set-up


def partitions(n):
    """Partitions of n in decreasing lexicographic order."""
    if n == 0:
        return [()]
    out = []

    def extend(rest, largest, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, largest), 0, -1):
            extend(rest - p, p, acc + [p])

    extend(n, n, [])
    return out


def random_sigma(perms, cycle_type, rng):
    """A uniformly random permutation with the given cycle type."""
    n = sum(cycle_type)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    cycs, start = [], 0
    for p in cycle_type:
        cycs.append(tuple(labels[start:start + p]))
        start += p
    return perms.from_cycles(cycs, n)


def fixed_size_point(m, shape, alg, rng, sizes):
    """A seeded degree-0 point whose summand i holds exactly sizes[i] basis
    words: a full-support point from `sampling.random_w0_point`, cut down to
    a random subset of that size.  Only the coefficients and the positions
    vary with the seed, so the cost of using the point varies little."""
    full = m["sampling"].random_w0_point(shape, alg, rng, density=1.0)
    parts = []
    for part, size in zip(full.parts, sizes):
        keep = rng.sample(sorted(part.terms), size)
        parts.append(m["tensors"].GradedTensor(part.space, part.alg, part.variance,
                                               {idx: part.terms[idx] for idx in keep}))
    return m["traces"].W0Point(shape, alg, parts)


# ------------------------------------------------------------ picture-build

def _picture_op(m, pshape, sigma):
    def picture():
        phi = m["pictures"].build_phi(pshape, sigma)
        return phi.poly, m["textform"].format_sym(phi.poly)

    def check(values):
        poly, text = values[0]
        return m["textform"].parse_sym(text, pshape.shape) == poly, text

    return Op((("picture", picture),), check)


def picture_build(m, seed):
    """`colorinv picture` for one sigma per cycle type at N=5 and N=6,
    M=(N,), on z2z2 and z3z3."""
    rng = random.Random(seed)
    ops = []
    for name in ("z2z2", "z3z3"):
        cfg = m["config"].builtin_config(name)
        for n in (5, 6):
            pshape = m["pictures"].PictureShape(cfg.shape, (n,))
            for cycle_type in partitions(n):
                sigma = random_sigma(m["permutations"], cycle_type, rng)
                ops.append(_picture_op(m, pshape, sigma))
    return Workload(ops)


# --------------------------------------------------------------- point-eval

POINT_EVAL_POINTS = 140


def _eval_trace_op(m, shape, alg, sigma, phi_text, point_text):
    tf, tr, perms = m["textform"], m["traces"], m["permutations"]
    sigma_inv = perms.inverse(sigma)
    assign = [1] * len(sigma)

    def evaluate():
        point = tf.parse_point(point_text, shape, alg)
        poly = tf.parse_sym(phi_text, shape)
        return tf.format_eps(tr.restitute(poly, point))

    def trace():
        point = tf.parse_point(point_text, shape, alg)
        cyclist = perms.cycles(sigma_inv)
        return tf.format_eps(tr.trace_monomial(list(point.parts), cyclist, assign))

    def check(values):
        return values[0] == values[1], values[0]

    return Op((("eval", evaluate), ("trace", trace)), check)


def point_eval(m, seed):
    """`colorinv eval` and `colorinv trace` on z3z3 at N=5: every cycle
    type, seeded points given as text."""
    rng = random.Random(seed)
    cfg = m["config"].builtin_config("z3z3")
    shape = cfg.shape
    alg = m["sampling"].standard_test_algebra(cfg.chi, cfg.truncation)
    pshape = m["pictures"].PictureShape(shape, (5,))
    pictures = []
    for cycle_type in partitions(5):
        sigma = random_sigma(m["permutations"], cycle_type, rng)
        phi = m["pictures"].build_phi(pshape, sigma)
        pictures.append((sigma, m["textform"].format_sym(phi.poly)))
    points = [m["textform"].format_point(fixed_size_point(m, shape, alg, rng, (6,)))
              for _ in range(POINT_EVAL_POINTS)]
    ops = [_eval_trace_op(m, shape, alg, *pictures[i % len(pictures)], point_text)
           for i, point_text in enumerate(points)]
    return Workload(ops, printed=[text for _, text in pictures] + points)


# --------------------------------------------------------- contraction-path

CONTRACTION_POINTS = 102


def _contraction_op(m, pshape, sigma, phi, point):
    def contract():
        return m["pictures"].t_sigma_on_parts(pshape, sigma, point.parts)

    def restitute():
        return m["traces"].restitute(phi.poly, point)

    def check(values):
        lhs, rhs = values
        return lhs == rhs, m["textform"].format_eps(lhs)

    return Op((("contract", contract), ("restitute", restitute)), check)


def contraction_path(m, seed):
    """T_sigma on the blocked point against restitution of phi_sigma, on
    z2z2 with shape (2,1)+(1,2), M=(1,1), every sigma in S_3."""
    rng = random.Random(seed)
    cfg = m["config"].builtin_config("z2z2")
    shape = m["sympoly"].MixedShape(cfg.space, [(2, 1), (1, 2)])
    pshape = m["pictures"].PictureShape(shape, (1, 1))
    alg = m["sampling"].standard_test_algebra(cfg.chi, truncation=3)
    phis = [m["pictures"].build_phi(pshape, sigma)
            for sigma in m["permutations"].all_perms(pshape.N)]
    points = [fixed_size_point(m, shape, alg, rng, (19, 19))
              for _ in range(CONTRACTION_POINTS)]
    ops = [_contraction_op(m, pshape, phis[i % len(phis)].sigma, phis[i % len(phis)], point)
           for i, point in enumerate(points)]
    printed = [m["textform"].format_point(point) for point in points]
    return Workload(ops, printed=printed)


# ---------------------------------------------------------------- verify-all

def _verify_op(m, argv):
    def verify():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = m["cli"].main(argv)
        return code, out.getvalue()

    def check(values):
        code, text = values[0]
        return code == 0 and text.endswith("\nverify: PASS\n"), text

    return Op((("verify", verify),), check)


def verify_all(m, seed):
    """`colorinv verify --suite all --seed S` over the five builtins, run
    as one verify call per (builtin, suite) so that each pass gives fifty
    latencies.  `seed` is the verify seed (see `variant_seeds`)."""
    ops = []
    for name in m["config"].list_builtin_configs():
        for suite in m["oracle"].SUITES:
            ops.append(_verify_op(m, ["verify", "--config", "builtin:" + name,
                                      "--suite", suite, "--seed", str(seed)]))
    return Workload(ops)


VERIFY_SEEDS_PER_RUN = 4


def variant_seeds(name, seed):
    """The seeds of the variants one run of the workload sets up; its
    passes cycle through them.  verify-all's suites draw their own points,
    so its work moves with the verify seed (path-equality by up to 3x); a
    run covers four verify seeds, disjoint between run seeds, to average
    that out.  Every other workload has one variant, the run seed."""
    if name == "verify-all":
        return [VERIFY_SEEDS_PER_RUN * seed + j for j in range(VERIFY_SEEDS_PER_RUN)]
    return [seed]


WORKLOADS = {
    "picture-build": picture_build,
    "point-eval": point_eval,
    "contraction-path": contraction_path,
    "verify-all": verify_all,
}
