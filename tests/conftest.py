import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import hyperpoly as hp

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


@pytest.fixture(scope="session")
def esym_oracle():
    """Builder of e_k(x_1..x_m), the k-th elementary symmetric form, as a dense oracle in direction (1, ..., 1).

    e_k is a Renegar derivative of the product x_1 ... x_m, hence hyperbolic;
    for 2 <= k < m no symmetric pencil represents it.
    """

    def build(k: int, m: int):
        terms = [(tuple(int(i in s) for i in range(m)), 1.0) for s in itertools.combinations(range(m), k)]
        return hp.dense_oracle(m, k, terms, np.ones(m))

    return build


# The four pairs {0,1}, {2,3}, {4,5}, {6,7} of the Vamos matroid V_8; the
# union of two of them is dependent except for {4,5,6,7}.
VAMOS_DEPENDENT = [{0, 1, 2, 3}, {0, 1, 4, 5}, {0, 1, 6, 7}, {2, 3, 4, 5}, {2, 3, 6, 7}]


@pytest.fixture(scope="session")
def vamos_oracle():
    """The basis generating polynomial of V_8: rank 4, 65 bases, hyperbolic in direction (1, ..., 1).

    The matroid has the half-plane property (Wagner & Wei 2009), and no
    power of this polynomial is determinantal (Branden 2011).
    """
    bases = [s for s in itertools.combinations(range(8), 4) if set(s) not in VAMOS_DEPENDENT]
    assert len(bases) == 65
    terms = [(tuple(int(i in s) for i in range(8)), 1.0) for s in bases]
    return hp.dense_oracle(8, 4, terms, np.ones(8))
