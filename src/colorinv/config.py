"""Configuration files and the shipped example configurations.

A configuration is a flat text file of dotted-key assignments whose values
are Python literals:

    group.factors = [2]
    bicharacter.expmat = [[1]]
    space.degrees = [(0,), (1,)]
    shape.pairs = [(1, 1)]
    bounds.truncation = 4
    bounds.max_n = 5

Blank lines and lines starting with '#' are ignored.  Parsing reports the
offending line number; semantic checks (the exponent-matrix checks, which
imply the bicharacter axioms, and the fixed basis order) run on load so
that a Config in hand is always valid.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from importlib import resources

from .groups import Bicharacter, validate_bicharacter
from .sympoly import MixedShape
from .tensors import GradedSpace

KNOWN_KEYS = ("group.factors", "bicharacter.expmat", "space.degrees",
              "shape.pairs", "bounds.truncation", "bounds.max_n")
REQUIRED_KEYS = KNOWN_KEYS[:4]

DEFAULT_TRUNCATION = 4
DEFAULT_MAX_N = 5
# The largest group order a configuration may declare: G is enumerated
# whole when its fixed order is made.
MAX_GROUP_ORDER = 4096
# The largest bounds.max_n: `list` enumerates balanced multiplicities and
# cycle types up to it, and `picture` builds pictures up to it.
MAX_N = 8
# The most shape.pairs: `list` and the sigma-case suites run through every
# multiplicity tuple of up to 2 * max_n copies over the summands, and
# `list` takes about 1 s at this limit with max_n = 8.
MAX_PAIRS = 6
# The most variables, sum_i dim^(b_i + t_i): the first command that needs a
# variable numbers them all.
MAX_VARIABLES = 65536
# The most index tuples, dim^N, that `picture` visits for N positions:
# every builtin pictures up to N = 8 (3^8 = 6,561 tuples).
MAX_TUPLES = 2 ** 16

class ConfigError(ValueError):
    pass

@dataclass
class Config:
    name: str
    chi: Bicharacter
    space: GradedSpace
    shape: MixedShape
    truncation: int = DEFAULT_TRUNCATION
    max_n: int = DEFAULT_MAX_N

def _parse_lines(text, name):
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected 'key = value'" % (name, lineno))
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError("%s:%d: unknown key %r (known: %s)"
                              % (name, lineno, key, ", ".join(KNOWN_KEYS)))
        if key in values:
            raise ConfigError("%s:%d: key %r given twice (first at line %d)"
                              % (name, lineno, key, lines[key]))
        try:
            values[key] = ast.literal_eval(rhs.strip())
        except (ValueError, SyntaxError) as exc:
            raise ConfigError("%s:%d: bad literal for %r: %s"
                              % (name, lineno, key, exc))
        lines[key] = lineno
    for key in REQUIRED_KEYS:
        if key not in values:
            raise ConfigError("%s: missing required key %r" % (name, key))
    return values, lines

def parse_config_text(text, name="<config>"):
    values, lines = _parse_lines(text, name)

    def error(key, message):
        """A ConfigError naming the file and the line of key."""
        return ConfigError("%s:%d: %s" % (name, lines[key], message))

    def int_list(key, value, part=""):
        """value, named key + part in errors, as a list of ints."""
        if not isinstance(value, (list, tuple)) or not value:
            raise error(key, "%s%s must be a nonempty list of integers" % (key, part))
        for x in value:
            if not isinstance(x, int) or isinstance(x, bool):
                raise error(key, "%s%s must contain only integers, got %r"
                            % (key, part, x))
        return list(value)

    factors = int_list("group.factors", values["group.factors"])
    if any(d < 1 for d in factors):
        raise error("group.factors", "cyclic orders must be >= 1")
    if math.prod(factors) > MAX_GROUP_ORDER:
        raise error("group.factors", "group order %d exceeds the limit of %d"
                    % (math.prod(factors), MAX_GROUP_ORDER))

    expmat = values["bicharacter.expmat"]
    if (not isinstance(expmat, (list, tuple)) or len(expmat) != len(factors)
            or any(not isinstance(row, (list, tuple)) or len(row) != len(factors)
                   for row in expmat)):
        raise error("bicharacter.expmat", "bicharacter.expmat must be a %dx%d "
                    "integer matrix" % (len(factors), len(factors)))
    expmat = [int_list("bicharacter.expmat", row, " row") for row in expmat]

    chi = Bicharacter(factors, expmat)
    failures = validate_bicharacter(chi)
    if failures:
        raise error("bicharacter.expmat", "invalid bicharacter:\n  %s"
                    % "\n  ".join(failures[:6]))

    raw_degrees = values["space.degrees"]
    if not isinstance(raw_degrees, (list, tuple)) or not raw_degrees:
        raise error("space.degrees", "space.degrees must be a nonempty list")
    degrees = []
    for d in raw_degrees:
        if isinstance(d, int) and not isinstance(d, bool):
            d = (d,)
        degrees.append(tuple(int_list("space.degrees", d, " entry")))
    try:
        space = GradedSpace(chi, [chi.position(d) for d in degrees])
    except ValueError as exc:
        raise error("space.degrees", exc)

    raw_pairs = values["shape.pairs"]
    if not isinstance(raw_pairs, (list, tuple)) or not raw_pairs:
        raise error("shape.pairs", "shape.pairs must be a nonempty list of (b, t)")
    if len(raw_pairs) > MAX_PAIRS:
        raise error("shape.pairs", "%d shape pairs exceed the limit of %d"
                    % (len(raw_pairs), MAX_PAIRS))
    pairs = []
    for p in raw_pairs:
        bt = int_list("shape.pairs", p, " entry")
        if len(bt) != 2 or min(bt) < 0 or max(bt) == 0:
            raise error("shape.pairs", "each shape pair needs b, t >= 0, not both 0")
        pairs.append(tuple(bt))
    # unless dim is 1, a power whose exponent passes the limit's bit length
    # passes the limit, so capping the exponent there keeps every power small
    cap = MAX_VARIABLES.bit_length()
    if sum(space.dim ** min(b + t, cap) for b, t in pairs) > MAX_VARIABLES:
        raise error("shape.pairs", "the shape's variables, the sum of dim^(b+t), "
                    "exceed the limit of %d" % MAX_VARIABLES)
    # a pair with b or t above max_n <= MAX_N is in no picture, and on a
    # one-dimensional space the count above is 1 whatever b + t is
    longest = max(b + t for b, t in pairs)
    if longest > 2 * MAX_N:
        raise error("shape.pairs", "a shape pair with b + t = %d exceeds the limit "
                    "of %d" % (longest, 2 * MAX_N))
    shape = MixedShape(space, pairs)

    truncation = values.get("bounds.truncation", DEFAULT_TRUNCATION)
    max_n = values.get("bounds.max_n", DEFAULT_MAX_N)
    for key, val in (("bounds.truncation", truncation), ("bounds.max_n", max_n)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise error(key, "%s must be a positive integer" % key)
    if max_n > MAX_N:
        raise error("bounds.max_n", "bounds.max_n %d exceeds the limit of %d"
                    % (max_n, MAX_N))

    return Config(name, chi, space, shape, truncation, max_n)

def parse_config(path):
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    return parse_config_text(text, name=str(path))

def list_builtin_configs():
    out = []
    for entry in resources.files(__package__).joinpath("configs").iterdir():
        if entry.name.endswith(".cfg"):
            out.append(entry.name[:-4])
    return sorted(out)

def builtin_config(name):
    ref = resources.files(__package__).joinpath("configs").joinpath(name + ".cfg")
    if not ref.is_file():
        raise ConfigError("no builtin configuration %r (available: %s)"
                          % (name, ", ".join(list_builtin_configs())))
    return parse_config_text(ref.read_text(encoding="utf-8"),
                             name="builtin:" + name)

def resolve_config(spec):
    """CLI helper: 'builtin:NAME' or a filesystem path."""
    if spec.startswith("builtin:"):
        return builtin_config(spec[len("builtin:"):])
    return parse_config(spec)
