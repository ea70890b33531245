import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Property tests run the same examples every time; failures must be
# reproducible from a plain `pytest` invocation.
settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def tight_set_matrices():
    """n = 4 PSD matrices of ranks (4, 2, 1, 1) whose rank condition holds.

    Item 62 of a seeded mixed-rank family: rng = default_rng(3), and per
    tuple n in 3..8, element ranks r in 1..n, A_i = V V^T with
    V = standard_normal((n, r)) * uniform(0.2, 3, size=r).  The rank-one
    elements are tight singletons, so the capacity (about 4633) is positive
    but the infimum defining it is not attained.
    """
    rng = np.random.default_rng(3)
    for _ in range(63):
        n = int(rng.integers(3, 9))
        mats = []
        for r in rng.integers(1, n + 1, size=n):
            v = rng.standard_normal((n, r)) * rng.uniform(0.2, 3, size=r)
            mats.append(v @ v.T)
    return mats
