"""Configuration parsing: shipped files, inline text, error reporting."""

import pytest

from colorinv.config import (
    MAX_N,
    MAX_PAIRS,
    MAX_VARIABLES,
    ConfigError,
    builtin_config,
    list_builtin_configs,
    parse_config_text,
    resolve_config,
)
from colorinv.groups import validate_bicharacter

GOOD = """
# comment line
group.factors = [2]
bicharacter.expmat = [[1]]
space.degrees = [(0,), (1,)]
shape.pairs = [(1, 1), (2, 1)]
bounds.truncation = 3
bounds.max_n = 4
"""


def test_builtin_configs_load_and_validate():
    names = list_builtin_configs()
    assert sorted(names) == names
    assert set(names) == {"super", "trivial", "z2z2", "z3z3", "z4"}
    for name in names:
        cfg = builtin_config(name)
        assert cfg.name == "builtin:%s" % name
        assert validate_bicharacter(cfg.chi) == []
        assert cfg.space.dim == len(cfg.space.degrees)
        assert cfg.shape.pairs
        assert cfg.truncation >= 1
        assert cfg.max_n >= 1


def test_parse_inline_text():
    cfg = parse_config_text(GOOD, name="inline")
    assert cfg.chi.group.order == 2
    assert cfg.space.dim == 2
    assert cfg.shape.pairs == ((1, 1), (2, 1))
    assert cfg.truncation == 3
    assert cfg.max_n == 4


def test_bounds_have_defaults():
    text = "\n".join(line for line in GOOD.splitlines()
                     if not line.startswith("bounds."))
    cfg = parse_config_text(text, name="nobounds")
    assert cfg.truncation >= 1
    assert cfg.max_n >= 1


def test_max_n_ceiling():
    assert parse_config_text(GOOD.replace("max_n = 4", "max_n = %d" % MAX_N)).max_n == MAX_N
    with pytest.raises(ConfigError, match=r"^ceiling:8: bounds.max_n %d exceeds the limit "
                                          r"of %d$" % (MAX_N + 1, MAX_N)):
        parse_config_text(GOOD.replace("max_n = 4", "max_n = %d" % (MAX_N + 1)), name="ceiling")


def test_shape_pairs_ceiling():
    at_limit = GOOD.replace("[(1, 1), (2, 1)]", repr([(1, 1)] * MAX_PAIRS))
    assert parse_config_text(at_limit).shape.s == MAX_PAIRS
    over = GOOD.replace("[(1, 1), (2, 1)]", repr([(1, 1)] * (MAX_PAIRS + 1)))
    with pytest.raises(ConfigError, match=r"^ceiling:6: %d shape pairs exceed the limit "
                                          r"of %d$" % (MAX_PAIRS + 1, MAX_PAIRS)):
        parse_config_text(over, name="ceiling")


def test_shape_variable_ceiling():
    """GOOD's space has dim 2, so one pair with b + t = log2(MAX_VARIABLES)
    has exactly MAX_VARIABLES variables; one more summand is refused, and
    so is a pair whose power is never built."""
    k = MAX_VARIABLES.bit_length() - 1
    assert 2 ** k == MAX_VARIABLES
    at_limit = GOOD.replace("[(1, 1), (2, 1)]", repr([(k - 1, 1)]))
    assert parse_config_text(at_limit).shape.pairs == ((k - 1, 1),)
    message = (r"^ceiling:6: the shape's variables, the sum of dim\^\(b\+t\), exceed the "
               r"limit of %d$" % MAX_VARIABLES)
    for pairs in ([(k - 1, 1), (1, 0)], [(10 ** 12, 1)]):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(GOOD.replace("[(1, 1), (2, 1)]", repr(pairs)), name="ceiling")


def test_shape_pair_length_ceiling():
    """On a one-dimensional space every pair has one variable, so the
    variable count cannot refuse a long pair; b + t above 2 * MAX_N is
    refused on its own, naming the line and the limit."""
    line = GOOD.replace("space.degrees = [(0,), (1,)]", "space.degrees = [(0,)]")
    at_limit = line.replace("[(1, 1), (2, 1)]", repr([(2 * MAX_N - 1, 1)]))
    assert parse_config_text(at_limit).shape.pairs == ((2 * MAX_N - 1, 1),)
    for pairs in ([(2 * MAX_N, 1)], [(1, 1), (0, 2 * MAX_N + 1)], [(10 ** 6, 1)]):
        longest = max(b + t for b, t in pairs)
        with pytest.raises(ConfigError, match=r"^ceiling:6: a shape pair with b \+ t = %d "
                                              r"exceeds the limit of %d$"
                                              % (longest, 2 * MAX_N)):
            parse_config_text(line.replace("[(1, 1), (2, 1)]", repr(pairs)), name="ceiling")


def test_missing_section_reports_error():
    text = "group.factors = [2]\nbicharacter.expmat = [[1]]\n"
    with pytest.raises(ConfigError):
        parse_config_text(text, name="partial")


def test_bad_value_reports_line():
    text = GOOD.replace("group.factors = [2]", "group.factors = [x]")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text, name="badline")
    assert "badline" in str(err.value)


@pytest.mark.parametrize("old, new, message", [
    ("group.factors = [2]", "group.factors = [2.0]",
     "3: group.factors must contain only integers, got 2.0"),
    ("bicharacter.expmat = [[1]]", "bicharacter.expmat = [[True]]",
     "4: bicharacter.expmat row must contain only integers, got True"),
    ("space.degrees = [(0,), (1,)]", "space.degrees = [(0,), (1.5,)]",
     "5: space.degrees entry must contain only integers, got 1.5"),
    ("shape.pairs = [(1, 1), (2, 1)]", "shape.pairs = [(1, 1), ()]",
     "6: shape.pairs entry must be a nonempty list of integers"),
    ("# comment line", "bicharacter.expmat = [[1]]",
     "4: key 'bicharacter.expmat' given twice (first at line 2)"),
    ("group.factors = [2]", "group.factors = [0]",
     "3: cyclic orders must be >= 1"),
    ("group.factors = [2]", "group.factors = [3]",
     "4: invalid bicharacter:\n  skew-symmetry fails at entry (1,1): "
     "B_ij + B_ji = 2 mod 3"),
    ("space.degrees = [(0,), (1,)]", "space.degrees = []",
     "5: space.degrees must be a nonempty list"),
    ("shape.pairs = [(1, 1), (2, 1)]", "shape.pairs = []",
     "6: shape.pairs must be a nonempty list of (b, t)"),
    ("shape.pairs = [(1, 1), (2, 1)]", "shape.pairs = [(1, 1), (-1, 1)]",
     "6: each shape pair needs b, t >= 0, not both 0"),
    ("shape.pairs = [(1, 1), (2, 1)]", "shape.pairs = [(1, 1), (0, 0)]",
     "6: each shape pair needs b, t >= 0, not both 0"),
    ("bounds.max_n = 4", "bounds.max_n = 0",
     "8: bounds.max_n must be a positive integer"),
], ids=["factors", "expmat-row", "degrees-entry", "pairs-entry", "twice",
        "factor-order", "bicharacter", "degrees-empty", "pairs-empty",
        "pair-negative", "pair-empty", "max-n"])
def test_integer_list_errors_name_the_line(old, new, message):
    """Every integer list a configuration holds, and every other value,
    when malformed, is reported with the file name and the line of its
    key."""
    with pytest.raises(ConfigError) as err:
        parse_config_text(GOOD.replace(old, new), name="ints")
    assert str(err.value) == "ints:" + message


def test_bare_int_degrees_are_one_factor_tuples():
    bare = parse_config_text(GOOD.replace("[(0,), (1,)]", "[0, 0, 1, 1]")).space
    tuples = GOOD.replace("[(0,), (1,)]", "[(0,), (0,), (1,), (1,)]")
    assert bare.degrees == (0, 0, 1, 1)
    assert bare == parse_config_text(tuples).space


def test_wrong_matrix_shape_rejected():
    text = GOOD.replace("bicharacter.expmat = [[1]]",
                        "bicharacter.expmat = [[1, 0], [0, 1]]")
    with pytest.raises(ConfigError):
        parse_config_text(text, name="badmat")


def test_wrong_degree_width_rejected():
    text = GOOD.replace("space.degrees = [(0,), (1,)]",
                        "space.degrees = [(0, 0), (1, 1)]")
    with pytest.raises(ConfigError):
        parse_config_text(text, name="baddeg")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(GOOD + "\nmystery.key = 1\n", name="extra")


def test_resolve_config_builtin_and_unknown(tmp_path):
    cfg = resolve_config("builtin:super")
    assert cfg.chi == builtin_config("super").chi
    with pytest.raises(ConfigError):
        resolve_config("builtin:missing")
    path = tmp_path / "own.cfg"
    path.write_text(GOOD)
    cfg = resolve_config(str(path))
    assert cfg.shape.pairs == ((1, 1), (2, 1))
    with pytest.raises((ConfigError, OSError)):
        resolve_config(str(tmp_path / "absent.cfg"))
