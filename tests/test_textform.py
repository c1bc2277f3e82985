"""Text round trips: everything printed parses back equal."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from colorinv import permutations as perms
from colorinv.config import parse_config_text
from colorinv.cyclo import CycloRational
from colorinv.pictures import PictureShape, build_phi
from colorinv.sampling import (
    random_eps_of_degree,
    random_sym_polynomial,
    random_w0_point,
)
from colorinv.sympoly import SymPolynomial, SymVariable
from colorinv.tensors import GradedTensor
from colorinv.textform import (
    dump_structured,
    format_cyclo,
    format_eps,
    format_point,
    format_sym,
    format_tensor,
    format_variable,
    parse_cyclo,
    parse_eps,
    parse_point,
    parse_sym,
    parse_tensor,
    parse_variable,
    structured_cyclo,
    structured_sym,
)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_cyclo_round_trip(data):
    order = data.draw(st.sampled_from((1, 2, 3, 4, 12)))
    coeffs = data.draw(st.lists(fractions, min_size=1, max_size=4))
    x = CycloRational(order, coeffs)
    assert parse_cyclo(format_cyclo(x), order) == x


def cyclo_text_from_fractions(x):
    """format_cyclo's text built from the Fraction coefficients: each
    nonzero one as str(Fraction) of its magnitude, then '*z' or '*z^k',
    '-' before a negative first term, ' + ' or ' - ' before the others."""
    out = []
    for k, a in enumerate(x.coeffs):
        if a == 0:
            continue
        body = str(abs(a)) + ("" if k == 0 else "*z" if k == 1 else "*z^%d" % k)
        if not out:
            out.append("-" + body if a < 0 else body)
        else:
            out.append(("- " if a < 0 else "+ ") + body)
    return " ".join(out) if out else "0"


@given(order=st.sampled_from((1, 2, 3, 4, 5, 12)),
       coeffs=st.lists(fractions, min_size=1, max_size=6))
@example(order=1, coeffs=[Fraction(0)])
@example(order=3, coeffs=[Fraction(0)] * 3)
@example(order=1, coeffs=[Fraction(-7, 6)])
@example(order=4, coeffs=[Fraction(-2, 3), Fraction(5, 4)])
@example(order=5, coeffs=[Fraction(0), Fraction(-1, 2), Fraction(0), Fraction(3, 2)])
@example(order=12, coeffs=[Fraction(6, 4), Fraction(0), Fraction(-10, 4), Fraction(1, 9)])
@settings(max_examples=150, deadline=None)
def test_format_cyclo_matches_the_fraction_text(order, coeffs):
    """Zero, a negative leading term, denominators above 1 and order 1
    print byte for byte as the Fraction coefficients read."""
    x = CycloRational(order, coeffs)
    assert format_cyclo(x) == cyclo_text_from_fractions(x)


def test_cyclo_huge_power_reduces_mod_order():
    k = 1000000000000001
    for order in (1, 2, 3, 4, 12):
        assert parse_cyclo("z^%d" % k, order) == CycloRational.root(order, k % order)


def test_eps_round_trip(cfgs, algebras):
    for name in ("super", "z4", "z3z3"):
        alg = algebras[name]
        rng = random.Random("eps/%s" % name)
        els = [alg.chi.position(g) for g in alg.chi.group.elements()]
        for _ in range(10):
            e = random_eps_of_degree(alg, rng.choice(els), rng)
            assert parse_eps(format_eps(e), alg) == e
        assert parse_eps(format_eps(alg.zero()), alg) == alg.zero()
        assert parse_eps(format_eps(alg.one()), alg) == alg.one()


def test_variable_round_trip(cfgs):
    shape = cfgs["super"].shape
    for v in shape.numbering().variables:
        assert parse_variable(format_variable(v)) == v
    v = SymVariable(2, (1, 3), (2,))
    assert parse_variable(format_variable(v)) == v
    with pytest.raises(ValueError):
        parse_variable("garbage")


def test_sym_round_trip(cfgs):
    for name in ("trivial", "super", "z2z2"):
        shape = cfgs[name].shape
        rng = random.Random("sym/%s" % name)
        for _ in range(8):
            p = random_sym_polynomial(shape, 2, rng)
            assert parse_sym(format_sym(p), shape) == p


def format_sym_term_by_term(poly):
    """format_sym's text written one term at a time: '(format_cyclo(c)) * '
    and the joined format_variable names, '1' for the empty monomial."""
    vs = poly.shape.numbering().variables
    return " + ".join("(%s) * %s" % (format_cyclo(c),
                                     " * ".join(format_variable(vs[k]) for k in mono) or "1")
                      for mono, c in sorted(poly.terms.items())) or "0"


def test_format_sym_matches_a_term_by_term_writer(cfgs):
    """format_sym writes each coefficient once per distinct (num, den).
    The inputs: every phi of picture-build's shapes (z2z2 and z3z3 at
    M = (5,), one sigma per cycle type); 1 at order 1 and at order 4, and
    zeta_3 at order 3 and as zeta_6^2 at order 6, equal values whose
    numerators differ (the second pair prints differently); and equal
    numerators over denominators 1 and 2.  A memo keyed on the numerators
    alone or on the value misprints them, and the unhashable
    CycloRational cannot key one."""
    polys = []
    for name in ("z2z2", "z3z3"):
        ps = PictureShape(cfgs[name].shape, (5,))
        polys += [build_phi(ps, sigma).poly for _, sigma in perms.cycle_type_reps(5)]
    assert CycloRational.root(3) == CycloRational.root(6, 2)
    coefficients = (CycloRational.one(), CycloRational.root(4, 0),
                    CycloRational.root(3), CycloRational.root(6, 2),
                    CycloRational(4, [1, -1]),
                    CycloRational(4, [Fraction(1, 2), Fraction(-1, 2)]))
    z4 = cfgs["z4"].shape
    monomials = ((), (0,), (1,), (0, 2), (3,), (4,))
    polys += [SymPolynomial(z4, dict(zip(monomials, coefficients))), SymPolynomial.zero(z4)]
    for poly in polys:
        assert format_sym(poly) == format_sym_term_by_term(poly)
    assert format_sym(polys[-2]).count("(1) * ") == 2


def test_parse_sym_keys_by_id_and_rejects_aliases(cfgs):
    """parse_sym keys monomials by id tuples, each variable through
    var_id.  On super (dim 2) the index word (0, 3) has the mixed-radix
    code of (1, 1), so a code lookup alone would read T(1)[0]^[3] as
    T(1)[1]^[1]; check_variable refuses it first."""
    shape = cfgs["super"].shape
    p = parse_sym("(1) * T(1)[2]^[2] * T(1)[1]^[1]", shape)
    ids = [shape.var_id(SymVariable(1, (i,), (i,))) for i in (1, 2)]
    assert p.terms == {tuple(sorted(ids)): CycloRational.one()}
    with pytest.raises(ValueError, match="variable index out of range"):
        parse_sym("(1) * T(1)[0]^[3]", shape)


def test_tensor_round_trip(cfgs, algebras):
    for name in ("super", "z2z2"):
        cfg, alg = cfgs[name], algebras[name]
        rng = random.Random("tens/%s" % name)
        els = [cfg.chi.position(g) for g in cfg.chi.group.elements()]
        variance = (0, 1)
        t = GradedTensor.zero(cfg.space, alg, variance)
        for _ in range(3):
            idx = tuple(rng.randint(1, cfg.space.dim) for _ in range(2))
            coeff = random_eps_of_degree(alg, rng.choice(els), rng)
            t = t + GradedTensor.basis(cfg.space, alg, variance, idx, coeff=coeff)
        assert parse_tensor(format_tensor(t), cfg.space, alg, variance) == t


def test_point_round_trip(cfgs):
    from colorinv.sampling import standard_test_algebra
    for name in ("super", "z4"):
        cfg = cfgs[name]
        alg = standard_test_algebra(cfg.chi, truncation=3)
        rng = random.Random("pt/%s" % name)
        for _ in range(4):
            u = random_w0_point(cfg.shape, alg, rng)
            text = format_point(u)
            back = parse_point(text, cfg.shape, alg)
            assert list(back.parts) == list(u.parts)


def test_structured_output_is_json(cfgs):
    x = CycloRational.root(12, 5)
    blob = dump_structured(structured_cyclo(x))
    decoded = json.loads(blob)
    assert decoded["order"] == 12
    shape = cfgs["super"].shape
    p = random_sym_polynomial(shape, 2, random.Random(3))
    decoded = json.loads(dump_structured(structured_sym(p)))
    assert "terms" in decoded


def test_sym_parse_rejects_garbage(cfgs):
    shape = cfgs["super"].shape
    with pytest.raises(ValueError):
        parse_sym("(1 *", shape)
    with pytest.raises(ValueError):
        parse_sym("(1) * T(9)[1]^[1]", shape)



def test_malformed_indices_get_the_parser_messages(cfgs, algebras):
    """Empty index runs and stray letters are a bad variable or a bad
    generator, never int()'s own message."""
    cfg, alg = cfgs["super"], algebras["super"]
    for name in ("T(1)[1,,1]^[1]", "T(1)[,1]^[1]", "T(1)[1,]^[1]", "T(1)[1]^[1]x"):
        with pytest.raises(ValueError, match=r"^bad variable %s$" % re.escape(repr(name))):
            parse_sym("(1) * " + name, cfg.shape)
    for word, piece in (("x", "x"), ("x1.x", "x"), ("x1.x2a", "x2a"), ("x-1", "x-1")):
        with pytest.raises(ValueError, match=r"^line 1: bad generator %s$" % re.escape(repr(piece))):
            parse_point("1: ((1) * %s) * e1 ox e1*" % word, cfg.shape, alg)


def test_point_checks_the_brackets_inside_a_coefficient(cfgs, algebras):
    """The tensor text is balanced as a whole; its coefficient's inner
    text is checked again as an algebra sum of its own."""
    with pytest.raises(ValueError, match=r"^line 1: unbalanced brackets in '1\)\(1'$"):
        parse_point("1: (1)(1) * e1 ox e1*", cfgs["super"].shape, algebras["super"])


def test_point_reads_a_missing_summand_as_zero(cfgs, algebras):
    cfg = parse_config_text("group.factors = [2]\nbicharacter.expmat = [[1]]\n"
                            "space.degrees = [0, 1]\nshape.pairs = [(1, 1), (2, 1)]\n")
    alg = algebras["super"]
    point = parse_point("1: 0", cfg.shape, alg)
    assert list(point.parts) == [GradedTensor.zero(cfg.space, alg, cfg.shape.variance(i))
                                 for i in (1, 2)]

MUTATION_TOKENS = ("(", ")", "[", " + ", " * ", "/0", "z^99", " ox ")
_MUTATION_RE = re.compile("|".join(re.escape(t) for t in MUTATION_TOKENS))


def _mutate(text, rng):
    """One or two token edits: insert a token at a random place or at an
    edge of one of the text's own token occurrences, or delete or replace
    such an occurrence."""
    for _ in range(rng.randint(1, 2)):
        spans = [m.span() for m in _MUTATION_RE.finditer(text)]
        op = rng.randrange(4)
        if not spans or op == 0:
            i = j = rng.randrange(len(text) + 1)
        elif op == 3:
            i = j = rng.choice(rng.choice(spans))
        else:
            i, j = rng.choice(spans)
        new = "" if op == 1 and spans else rng.choice(MUTATION_TOKENS)
        text = text[:i] + new + text[j:]
    return text


def test_mutated_text_parses_or_raises_value_error(cfgs, algebras):
    """Malformed text is an input error (ValueError, printed by the CLI
    with exit 2), never another exception."""
    for name, cfg in cfgs.items():
        alg = algebras[name]
        rng = random.Random("mutate/%s" % name)
        cases = [(format_sym(random_sym_polynomial(cfg.shape, 2, rng)),
                  lambda t: parse_sym(t, cfg.shape)),
                 (format_point(random_w0_point(cfg.shape, alg, rng)),
                  lambda t: parse_point(t, cfg.shape, alg))]
        for text, parse in cases:
            for _ in range(200):
                mutated = _mutate(text, rng)
                try:
                    parse(mutated)
                except ValueError:
                    pass
                except Exception as exc:
                    pytest.fail("%r raised %r" % (mutated, exc))
