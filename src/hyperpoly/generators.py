"""Seeded instance generators.

Everything here is deterministic in the seed.  Generated instances are
re-validated before they are handed out: doubly stochastic tuples against
their defect, rank-deficient tuples against the rank condition, polynomial
pairs against the exact Bezoutian certificate ``bezoutian_pair_test``.
The symmetric-matrix oracle and its coordinates belong to ``oracle``; the
drawers, and their callers, reach ``symmetric_matrix_oracle``,
``matrix_points`` and ``point_to_matrix`` through this module as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GenerationError, InvalidDocumentError
from .interlace import (
    HYPERBOLIC,
    NOT_HYPERBOLIC,
    MonicPolynomial,
    bezoutian_pair_test,
)
from .oracle import (
    HyperbolicOracle,
    determinantal_oracle,
    hyperbolic_rank,
    matrix_points,
    point_to_matrix,
    product_oracle,
    roots_in_direction,
    symmetric_matrix_oracle,
)
from .scaling import capacity, doubly_stochastic_defect, sinkhorn_iteration

PSD_RIDGE = 1e-6


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) combination."""
    return np.random.default_rng((int(seed),) + tuple(int(v) for v in key))


def matrix_tuple_points(matrices) -> tuple[HyperbolicOracle, np.ndarray]:
    """Wrap a list of symmetric matrices as points of the symmetric-basis oracle; ``matrix_points``
    refuses a matrix that is not symmetric."""
    pts = matrix_points(matrices)
    return symmetric_matrix_oracle(len(matrices[0])), pts


def random_psd_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return g @ g.T + PSD_RIDGE * np.eye(n)


def psd_matrix_tuple(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """n random positive semidefinite matrices; the ridge keeps them full rank."""
    return [random_psd_matrix(rng, n) for _ in range(n)]


def doubly_stochastic_matrix_tuple(rng: np.random.Generator, n: int, defect_tol: float = 1e-10) -> list[np.ndarray]:
    """PSD tuple with trace one each and identity sum, to the requested defect.

    A random PSD tuple is scaled to a d-doubly stochastic one by
    d_doubly_stochastic_tuple and then pushed to the identity frame by
    congruence with d^{-1/2}, which preserves every trace tr(d^{-1} A_i).
    """
    _, points = d_doubly_stochastic_tuple(rng, n, defect_tol)
    scaled = [point_to_matrix(x, n) for x in points]
    d = sum(scaled)
    vals, vecs = np.linalg.eigh(d)
    w = vecs @ np.diag(vals**-0.5) @ vecs.T
    out = [0.5 * ((w @ a @ w) + (w @ a @ w).T) for a in scaled]
    defect = float(sum((np.trace(a) - 1.0) ** 2 for a in out))
    if defect > 10.0 * defect_tol:
        raise GenerationError("congruence step lost the doubly stochastic property")
    return out


def d_doubly_stochastic_tuple(
    rng: np.random.Generator,
    n: int,
    defect_tol: float = 1e-10,
) -> tuple[HyperbolicOracle, np.ndarray]:
    """A d-doubly stochastic point tuple (traces one against its own sum).

    The random PSD tuple is first scaled by the capacity minimizer, which is
    the doubly stochastic scaling itself; Sinkhorn steps then only polish it
    to defect_tol and certify it, within a 50000-step budget.  A cold
    Sinkhorn start takes thousands of steps on ill-conditioned tuples.
    """
    oracle, points = matrix_tuple_points(psd_matrix_tuple(rng, n))
    points = capacity(oracle, points).minimizer[:, None] * points
    report = sinkhorn_iteration(oracle, points, max_iters=50000, threshold=defect_tol)
    if not report.converged:
        raise GenerationError(f"scaling failed to reach defect {defect_tol} in 50000 iterations")
    if doubly_stochastic_defect(oracle, report.final_state.points) > 10.0 * defect_tol:
        raise GenerationError("emitted tuple fails its own defect validation")
    return oracle, report.final_state.points


def rank_deficient_matrix_tuple(rng: np.random.Generator, n: int) -> tuple[list[np.ndarray], tuple[int, int]]:
    """Tuple failing the rank condition on the duplicated rank-one pair {0, 1}.

    Needs n >= 3 so the remaining full-rank matrices keep the tuple's sum
    positive definite and the scaling iteration well defined.
    """
    if n < 3:
        raise GenerationError("rank-deficient construction needs n >= 3")
    v = rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    low = np.outer(v, v)
    mats = [low, low.copy()] + [random_psd_matrix(rng, n) for _ in range(n - 2)]
    oracle, points = matrix_tuple_points(mats)
    # Every other subset holds a full-rank element, so {0, 1} is the only violating subset.
    if hyperbolic_rank(oracle, points[0] + points[1]) != 1 or any(hyperbolic_rank(oracle, x) != n for x in points[2:]):
        raise GenerationError("construction failed to violate the rank condition at {0, 1}")
    return mats, (0, 1)


def _lifted_points(
    oracle: HyperbolicOracle, rng: np.random.Generator, count: int, lift: Callable[[float], float]
) -> np.ndarray:
    """count standard normal points, each moved along the direction by lift(its smallest root);
    the rule draws from rng after the point and its roots, in that order."""
    rows = []
    for _ in range(count):
        y = rng.standard_normal(oracle.m)
        lam = roots_in_direction(oracle, y, oracle.direction)
        rows.append(y + lift(float(lam[-1])) * oracle.direction)
    return np.vstack(rows)


def positive_point_tuple(oracle: HyperbolicOracle, rng: np.random.Generator, count: int) -> np.ndarray:
    """Points strictly inside the cone: shift random points along the direction until
    their smallest root lies in [0.2, 1.2)."""
    return _lifted_points(oracle, rng, count, lambda low: 0.2 + float(rng.uniform(0.0, 1.0)) - low)


def nonnegative_point_tuple(
    oracle: HyperbolicOracle,
    rng: np.random.Generator,
    count: int,
    boundary_fraction: float = 0.3,
) -> np.ndarray:
    """e-nonnegative points, a fraction of them pushed onto the cone boundary."""

    def lift(low: float) -> float:
        return -low if rng.uniform() < boundary_fraction else float(rng.uniform(0.05, 1.0)) - low

    return _lifted_points(oracle, rng, count, lift)


def positive_product_tuple(rng: np.random.Generator, n: int) -> tuple[HyperbolicOracle, np.ndarray]:
    """Product oracle with a tuple of strictly positive coordinate vectors."""
    return product_oracle(n), rng.uniform(0.2, 2.0, size=(n, n))


def structured_psd_points(rng: np.random.Generator, n: int) -> tuple[HyperbolicOracle, np.ndarray]:
    """Matrix tuple mixing rank-one and full-rank elements (nontrivial supports)."""
    mats = []
    for _ in range(n):
        if rng.uniform() < 0.5:
            v = rng.standard_normal(n)
            mats.append(np.outer(v, v))
        else:
            mats.append(random_psd_matrix(rng, n))
    return matrix_tuple_points(mats)


def structured_product_points(rng: np.random.Generator, n: int) -> tuple[HyperbolicOracle, np.ndarray]:
    """Product-oracle tuple with a random sparsity pattern (bipartite supports)."""
    a = rng.uniform(0.2, 2.0, size=(n, n))
    mask = rng.uniform(size=(n, n)) < 0.45
    a[mask] = 0.0
    return product_oracle(n), a


def random_determinantal_oracle(rng: np.random.Generator, n: int, m: int) -> HyperbolicOracle:
    pencil = [random_psd_matrix(rng, n) for _ in range(m)]
    return determinantal_oracle(pencil, np.ones(m))


def _separated_roots(rng: np.random.Generator, degree: int) -> np.ndarray:
    start = rng.uniform(-3.0, -1.0)
    gaps = rng.uniform(0.3, 1.2, size=degree - 1) if degree > 1 else np.empty(0)
    return start + np.concatenate([[0.0], np.cumsum(gaps)])


def real_rooted_monic(rng: np.random.Generator, degree: int) -> MonicPolynomial:
    """A monic q of this degree with distinct real roots, the first in [-3, -1) and each next one 0.3 to 1.2
    above the last."""
    return MonicPolynomial.from_roots(_separated_roots(rng, degree))


def _quotients(q: MonicPolynomial, roots: np.ndarray) -> np.ndarray:
    """Row k holds the ascending coefficients of q / (x - lambda_k), for the roots lambda_k of q: synthetic
    division of every quotient at once, b_(j-1) = c_j + lambda_k b_j from the top."""
    qc = q._coeffs
    n = roots.size
    quotients = np.empty((n, n))
    carry = np.zeros(n)
    for j in range(n, 0, -1):
        carry = qc[j] + roots * carry
        quotients[:, j - 1] = carry
    return quotients


def _pair_from_residues(roots: np.ndarray, residues: np.ndarray) -> tuple[MonicPolynomial, MonicPolynomial]:
    """The pair (q, r) with q monic on `roots` and r = q + sum_k a_k q / (x - lambda_k)."""
    q = MonicPolynomial.from_roots(roots)
    rc = q._coeffs.copy()
    rc[: roots.size] += residues @ _quotients(q, roots)
    return q, MonicPolynomial.from_standard(rc)


def hyperbolic_pair(rng: np.random.Generator, degree: int) -> tuple[MonicPolynomial, MonicPolynomial]:
    """Pair with positive partial-fraction residues, verified by the Bezoutian certificate before emission."""
    roots = _separated_roots(rng, degree)
    residues = rng.uniform(0.2, 2.0, size=degree)
    q, r = _pair_from_residues(roots, residues)
    if bezoutian_pair_test(q, r).verdict != HYPERBOLIC:
        raise GenerationError("constructed pair failed its Bezoutian verification")
    return q, r


def nonhyperbolic_pair(rng: np.random.Generator, degree: int) -> tuple[MonicPolynomial, MonicPolynomial]:
    """Pair with mixed-sign residues, confirmed by the Bezoutian certificate before emission.

    Mixed residues guarantee that some direction has non-real roots, and the
    certificate reads them exactly, however narrow the failing arc of
    directions.  A candidate it does not confirm is drawn again, 200 at most.
    """
    if degree < 2:
        raise GenerationError("a non-hyperbolic pair needs degree >= 2")
    for _ in range(200):
        roots = _separated_roots(rng, degree)
        residues = rng.uniform(0.2, 2.0, size=degree) * rng.choice([-1.0, 1.0], size=degree)
        if np.all(residues > 0) or np.all(residues < 0):
            residues[int(rng.integers(degree))] *= -1.0
        q, r = _pair_from_residues(roots, residues)
        if bezoutian_pair_test(q, r).verdict == NOT_HYPERBOLIC:
            return q, r
    raise GenerationError("no non-hyperbolic pair confirmed in 200 attempts")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int


def _rank_deficient_document(rng: np.random.Generator, n: int) -> dict:
    mats, witness = rank_deficient_matrix_tuple(rng, n)
    return {"matrices": [a.tolist() for a in mats], "witness": list(witness)}


def _pair_document(q: MonicPolynomial, r: MonicPolynomial) -> dict:
    return {"q": q.to_json(), "r": r.to_json()}


# The document of each generator kind, from (rng, n).
_DOCUMENTS = {
    "psd_tuple": lambda rng, n: {"matrices": [a.tolist() for a in psd_matrix_tuple(rng, n)]},
    "doubly_stochastic_tuple": lambda rng, n: {
        "matrices": [a.tolist() for a in doubly_stochastic_matrix_tuple(rng, n)]
    },
    "rank_deficient_tuple": _rank_deficient_document,
    "hyperbolic_pair": lambda rng, n: _pair_document(*hyperbolic_pair(rng, n)),
    "nonhyperbolic_pair": lambda rng, n: _pair_document(*nonhyperbolic_pair(rng, n)),
}
GENERATOR_KINDS = tuple(_DOCUMENTS)


def generate_document(spec: GeneratorSpec, seed: int) -> dict:
    """Produce the JSON document for a generator request; deterministic in the seed."""
    rng = rng_for(seed, 0)
    if spec.n < 1:
        raise InvalidDocumentError(f"generator size must be at least 1, got {spec.n}")
    if spec.kind not in _DOCUMENTS:
        raise InvalidDocumentError(f"unknown generator kind '{spec.kind}'")
    return _DOCUMENTS[spec.kind](rng, spec.n)
