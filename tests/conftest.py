import pytest

from colorinv.config import builtin_config, list_builtin_configs, parse_config_text
from colorinv.sampling import standard_test_algebra

BUILTINS = tuple(list_builtin_configs())


@pytest.fixture(scope="session")
def cfgs():
    """All shipped example configurations, keyed by name."""
    return {name: builtin_config(name) for name in BUILTINS}


# Z12 x Z12 with eps((1,0),(0,1)) = zeta^5: every degree is even, and the
# eps exponents between basis degrees reach 5 and 7.
Z12Z12 = """group.factors = [12, 12]
bicharacter.expmat = [[0, 5], [7, 0]]
space.degrees = [(0, 0), (0, 1), (1, 0)]
shape.pairs = [(1, 1)]
"""


@pytest.fixture(scope="session")
def z12z12():
    """The largest group the tests use, as a configuration."""
    return parse_config_text(Z12Z12, name="z12z12")


@pytest.fixture(scope="session")
def algebras(cfgs):
    """A standard coefficient algebra per configuration (truncation 4)."""
    return {name: standard_test_algebra(cfg.chi) for name, cfg in cfgs.items()}
