"""Canonical text forms and their parsers.

Every emitter here has a matching parser that reproduces an equal object,
and output ordering is deterministic: cyclotomic scalars list terms by
ascending power of z, algebra elements and tensors sort terms
lexicographically by word, polynomials sort monomials by the canonical
variable order of their shape.  The grammar is deliberately small:

    scalar       1/2 - 1/3*z^2          (z = zeta(m) from context)
    algebra      (c) * x1.x3 + (c) * 1   generators by index, '1' = empty word
    variable     T(2)[1,3]^[2]
    polynomial   (c) * T(1)[1]^[1] * T(1)[2]^[2] + ...
    tensor       (e) * e1 ox e2* + ...   '*' marks dual slots
    point file   one 'i: tensor' line per summand

A scalar is read as the sum of its terms, each built from its ints by
from_rational and times_root: reading text makes no Fraction.

Algebra elements, polynomials and tensors are all '(c) * body + ...' sums,
read by one term reader (_terms) and written by one term writer
(_format_terms).  Malformed text raises ValueError, which the command line
prints as 'error: ...' with exit status 2.

Structured (JSON) emitters mirror the same data with the same ordering.
"""

from __future__ import annotations

import json
import math
import re
from itertools import accumulate

from .cyclo import CycloRational
from .epsalgebra import EpsElement, add_term
from .sympoly import SymPolynomial, SymVariable, sym_normalize
from .tensors import PRIMAL, DUAL, GradedTensor
from .traces import W0Point

TENSOR_SEP = "ox"

# ---------------------------------------------------------------- scalars

def format_cyclo(x):
    """Terms by ascending power of z; '0' for zero; rational part bare.
    Each magnitude is |num[k]|/den in lowest terms, one gcd per nonzero
    numerator, written as str(Fraction) writes it."""
    den = x.den
    out = []
    for k, a in enumerate(x.num):
        if a:
            g = math.gcd(a, den)
            body = "%d" % (abs(a) // g) if g == den else "%d/%d" % (abs(a) // g, den // g)
            if k:
                body += "*z" if k == 1 else "*z^%d" % k
            if out:
                body = ("- " if a < 0 else "+ ") + body
            elif a < 0:
                body = "-" + body
            out.append(body)
    return " ".join(out) or "0"

_TERM_RE = re.compile(r"^(?:(?P<num>-?\d+(?:/\d+)?)(?:\*(?P<pow>z(?:\^\d+)?))?|(?P<bare>-?z(?:\^\d+)?))$")

def parse_cyclo(text, order):
    """Inverse of format_cyclo at a known order.  Also accepts bare 'z^k'
    and '-z^k' terms for hand-written input."""
    s = text.strip()
    if not s:
        raise ValueError("empty scalar")
    s = s.replace("- ", "+ -").replace("+ ", "+")
    if s.startswith("+"):
        s = s[1:]
    total = None
    for raw in s.split("+"):
        raw = raw.strip()
        if not raw:
            raise ValueError("malformed scalar %r" % text)
        m = _TERM_RE.match(raw)
        if not m:
            raise ValueError("bad scalar term %r" % raw)
        if m.group("bare"):
            powtext = m.group("bare").lstrip("-")
            num, den = (-1 if raw.startswith("-") else 1), 1
        else:
            powtext = m.group("pow") or ""
            num, _, den = m.group("num").partition("/")
            num, den = int(num), int(den or 1)
            if not den:
                raise ValueError("zero denominator in %r" % m.group("num"))
        k = int(powtext[2:] or 1) if powtext else 0    # 'z^k', 'z' or none
        term = CycloRational.from_rational(num, den).times_root(order, k)
        total = term if total is None else total + term
    return total

# ------------------------------------------------ term reader and writer

_NOT_BRACKET = re.compile(r"[^][()]+")
_STEP = {"(": 1, "[": 1, ")": -1, "]": -1}

def _depth(text):
    """Opening minus closing brackets, '(' and '[' alike."""
    return text.count("(") + text.count("[") - text.count(")") - text.count("]")

def split_top(text, sep):
    """Split a text whose brackets are balanced on a separator token at
    bracket depth 0.  The separator is a token, not a character: ' + ',
    ' - ', or '*' between spaces survive inside parentheses and brackets.
    str.split's pieces are joined back up to the points where every
    bracket is closed, so each part is balanced too."""
    parts = []
    depth = 0
    for piece in text.split(sep):
        if depth:
            parts[-1] += sep + piece
        else:
            parts.append(piece)
        depth += _depth(piece)
    return parts

def _terms(text, kind):
    """(coefficient text, body pieces) of each term of a '(c) * body + ...'
    sum, and no term for '0': the one reader of algebra elements,
    polynomials and tensors.  The body is split on ' * ', and only a
    polynomial term may have more than one piece; kind names the sum in
    errors.  The bracket nesting is checked once, for the whole sum."""
    s = text.strip()
    if s == "0":
        return
    steps = map(_STEP.get, _NOT_BRACKET.sub("", s))
    if min(accumulate(steps), default=0) < 0 or _depth(s):
        raise ValueError("unbalanced brackets in %r" % s)
    for term in split_top(s, " + "):
        pieces = split_top(term.strip(), " * ")
        if len(pieces) < 2 or len(pieces) > 2 and kind != "polynomial":
            raise ValueError("bad %s term %r" % (kind, term))
        coeff = pieces[0].strip()
        if not (coeff.startswith("(") and coeff.endswith(")")):
            raise ValueError("expected parenthesized coefficient in %r" % pieces[0])
        yield coeff[1:-1], pieces[1:]

def _format_terms(terms):
    """'(c) * body + ...' from (coefficient text, body text) pairs, and '0'
    for none: the one writer of algebra elements, polynomials and
    tensors."""
    return " + ".join(["(%s) * %s" % (c, body) for c, body in terms]) or "0"

# ------------------------------------------------- eps-algebra elements

def _format_word(word):
    if not word:
        return "1"
    return ".".join("x%d" % i for i in word)

_GEN_RE = re.compile(r"x([0-9]+)")

def _parse_word(text, alg):
    s = text.strip()
    if s == "1":
        return ()
    word = []
    for piece in s.split("."):
        piece = piece.strip()
        m = _GEN_RE.fullmatch(piece)
        if not m:
            raise ValueError("bad generator %r" % piece)
        i = int(m.group(1))
        if not 1 <= i <= alg.ngens:
            raise ValueError("generator index %d out of range" % i)
        word.append(i)
    return tuple(word)

def format_eps(elem):
    """Terms sorted lexicographically by word; '(c) * word' per term."""
    return _format_terms((format_cyclo(c), _format_word(word))
                         for word, c in elem.terms_sorted())

def parse_eps(text, alg):
    terms = {}
    for coeff, (word,) in _terms(text, "algebra"):
        c = parse_cyclo(coeff, alg.chi.m)
        for w, x in alg.monomial(_parse_word(word, alg), c).terms.items():
            add_term(terms, w, x)
    return EpsElement(alg, terms)

# ---------------------------------------------------------- variables

def format_variable(v):
    return "T(%d)[%s]^[%s]" % (
        v.summand,
        ",".join(str(i) for i in v.lower),
        ",".join(str(i) for i in v.upper))

_INDICES = r"((?:[0-9]+(?:,[0-9]+)*)?)"
_VAR_RE = re.compile(r"T\(([0-9]+)\)\[%s\]\^\[%s\]" % (_INDICES, _INDICES))

def parse_variable(text):
    m = _VAR_RE.fullmatch(text.strip())
    if not m:
        raise ValueError("bad variable %r" % text)
    def ints(s):
        return tuple(int(x) for x in s.split(",")) if s else ()
    return SymVariable(int(m.group(1)), ints(m.group(2)), ints(m.group(3)))

def format_sym(poly):
    """Monomials in the canonical variable order of the shape; within a
    term the coefficient comes first, then the variables; the empty
    monomial is '1'.  Each variable is named, and each coefficient value
    (num, den) written, once per call."""
    vs = poly.shape.numbering().variables
    name = {k: format_variable(vs[k]) for k in set().union(*poly.terms)}
    scalar = {}
    for c in poly.terms.values():
        if (c.num, c.den) not in scalar:
            scalar[c.num, c.den] = format_cyclo(c)
    return _format_terms((scalar[c.num, c.den], " * ".join(map(name.__getitem__, mono)) or "1")
                         for mono, c in poly.terms_sorted())

def parse_sym(text, shape):
    terms = {}
    for coeff, names in _terms(text, "polynomial"):
        c = parse_cyclo(coeff, shape.chi.m)
        if len(names) == 1 and names[0].strip() == "1":
            word = ()
        else:
            word = [parse_variable(p) for p in names]
            word = [shape.var_id(v) for v in word]
        res = sym_normalize(shape, word)
        if res is not None:
            add_term(terms, res[1], c.times_root(shape.chi.m, res[0]))
    return SymPolynomial(shape, terms)

# ------------------------------------------------------------- tensors

def _format_slots(idx, variance):
    names = []
    for i, var in zip(idx, variance):
        names.append("e%d%s" % (i, "*" if var == DUAL else ""))
    return (" %s " % TENSOR_SEP).join(names) if names else "1"

def format_tensor(t):
    """'(coefficient) * e1 ox e2*' terms, sorted by index word."""
    return _format_terms((format_eps(c), _format_slots(idx, t.variance))
                         for idx, c in t.terms_sorted())

_SLOT_RE = re.compile(r"^e(\d+)(\*?)$")

def parse_tensor(text, space, alg, variance):
    variance = tuple(variance)
    terms = {}
    for coeff, (slots,) in _terms(text, "tensor"):
        c = parse_eps(coeff, alg)
        slots = slots.strip()
        idx, var = [], []
        if slots != "1":
            for piece in split_top(slots, " %s " % TENSOR_SEP):
                m = _SLOT_RE.match(piece.strip())
                if not m:
                    raise ValueError("bad tensor slot %r" % piece)
                idx.append(int(m.group(1)))
                var.append(DUAL if m.group(2) else PRIMAL)
        if tuple(var) != variance:
            raise ValueError("tensor term variance %r does not match %r"
                             % (tuple(var), variance))
        space.check_index(*idx)
        add_term(terms, tuple(idx), c)
    return GradedTensor(space, alg, variance, terms)

# --------------------------------------------------------- point files

def format_point(point):
    lines = []
    for i, part in enumerate(point.parts, start=1):
        lines.append("%d: %s" % (i, format_tensor(part)))
    return "\n".join(lines) + "\n"

def parse_point(text, shape, alg):
    parts = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ValueError("line %d: expected 'summand: tensor'" % lineno)
        head, body = line.split(":", 1)
        try:
            i = int(head.strip())
        except ValueError:
            raise ValueError("line %d: bad summand index %r" % (lineno, head))
        if not 1 <= i <= shape.s:
            raise ValueError("line %d: summand %d out of range" % (lineno, i))
        if i in parts:
            raise ValueError("line %d: summand %d given twice" % (lineno, i))
        try:
            parts[i] = parse_tensor(body.strip(), shape.space, alg,
                                    shape.variance(i))
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc))
    for i in range(1, shape.s + 1):
        if i not in parts:
            parts[i] = GradedTensor.zero(shape.space, alg, shape.variance(i))
    return W0Point(shape, alg, [parts[i] for i in range(1, shape.s + 1)])

# ------------------------------------------------------ structured form

def structured_cyclo(x):
    return {"order": x.order, "coeffs": [str(a) for a in x.coeffs]}

def structured_eps(elem):
    return {"truncation": elem.alg.truncation,
            "terms": [{"word": list(w), "coeff": structured_cyclo(c)}
                      for w, c in elem.terms_sorted()]}

def structured_sym(poly):
    vs = poly.shape.numbering().variables
    return {"pairs": [list(p) for p in poly.shape.pairs],
            "terms": [{"coeff": structured_cyclo(c),
                       "monomial": [{"summand": vs[k].summand,
                                     "lower": list(vs[k].lower),
                                     "upper": list(vs[k].upper)} for k in mono]}
                      for mono, c in poly.terms_sorted()]}

def dump_structured(obj):
    return json.dumps(obj, indent=2, sort_keys=False)
