import mpmath as mp
import pytest


@pytest.fixture(autouse=True, scope="session")
def high_ambient_precision():
    """Reference constants in tests (pi, zeta values) need more than double
    precision to compare against the certified evaluators."""
    old = mp.mp.dps
    mp.mp.dps = 30
    yield
    mp.mp.dps = old


@pytest.fixture
def user_precision():
    """The 53-bit ambient precision a user's process starts at, for tests
    whose claim must not lean on the session's dps 30."""
    with mp.workprec(53):
        yield
