import numpy as np
import pytest
from hypothesis import settings

import polcomp as pc

# Every property test runs the same examples on every run, with no per-example
# time limit (the first call of a kind may build a table); tests set only
# max_examples.
settings.register_profile("polcomp", deadline=None, derandomize=True)
settings.load_profile("polcomp")


@pytest.fixture
def nu_quadratic():
    return pc.payoff_preset("quadratic")


@pytest.fixture
def two_type():
    """Reference instance: types at 0 and 1, equal shares."""
    return pc.VoterDistribution([0.0, 1.0], [0.5, 0.5], ["left", "right"])


@pytest.fixture
def three_type_symmetric():
    return pc.VoterDistribution([-1.0, 0.0, 1.0], [0.3, 0.4, 0.3])


@pytest.fixture
def two_type_2d():
    return pc.VoterDistribution([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])


@pytest.fixture
def unit_shock():
    return pc.Shock(1.0)


@pytest.fixture
def nu_linear():
    """Risk-neutral boundary payoff, built directly (no concave microfoundation)."""
    return pc.ReducedPayoff(lambda s: np.asarray(s, dtype=float), provenance="direct[linear]")


@pytest.fixture
def nu_sqrt():
    return pc.ReducedPayoff(lambda s: np.sqrt(np.asarray(s, dtype=float)),
                            provenance="direct[sqrt]")
