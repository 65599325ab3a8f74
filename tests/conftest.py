import pytest
from hypothesis import HealthCheck, settings

# fixed-seed, reproducible property tests
settings.register_profile(
    "quiverforge",
    derandomize=True,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("quiverforge")

from quiverforge import a2_quiver, ffield, jordan_quiver, kronecker_quiver, make_field

HUGE_Q = 10000000000000061  # a prime: trial division would run to 10^8


@pytest.fixture
def huge_q(monkeypatch):
    """HUGE_Q, with ``ffield._least_prime_factor``, the one trial division,
    patched to fail if it is asked to factor it."""
    original = ffield._least_prime_factor

    def refuse_huge_q(n):
        if n == HUGE_Q:
            raise AssertionError("q was trial-divided before the cap refused q^n")
        return original(n)

    monkeypatch.setattr(ffield, "_least_prime_factor", refuse_huge_q)
    return HUGE_Q


@pytest.fixture(scope="session")
def jordan():
    return jordan_quiver()


@pytest.fixture(scope="session")
def kron2():
    return kronecker_quiver(2)


@pytest.fixture(scope="session")
def a2():
    return a2_quiver()


@pytest.fixture(scope="session")
def f2():
    return make_field(2)


@pytest.fixture(scope="session")
def f3():
    return make_field(3)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)
