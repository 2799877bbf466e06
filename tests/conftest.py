"""Fixtures that more than one test module reads."""

import pytest

from lavasim.theorem import TheoremConfig, gap_vs_m

THEOREM_MS = (20, 40, 80)


@pytest.fixture(scope="session")
def theorem_rows():
    """The two-lifetime experiment at ε = 0.05, ρ = 0.1 over ms 20/40/80 and
    seeds 0-19: the default ``lavasim theorem`` grid."""
    return gap_vs_m(TheoremConfig(epsilon=0.05, rho=0.1), ms=THEOREM_MS, seeds=range(20))


@pytest.fixture(scope="session")
def zero_epsilon_rows():
    """The zero-ε control over ms 20/40/80 and seeds 0-9."""
    return gap_vs_m(TheoremConfig(epsilon=0.0), ms=THEOREM_MS, seeds=range(10))
