"""Seeded instance generators.

Everything here is deterministic in the seed.  Generated instances are
re-validated before they are handed out: doubly stochastic tuples against
their defect, rank-deficient tuples against the rank condition, polynomial
pairs against the residue test (and, for the non-hyperbolic kind, against the
sampled pencil grid, so every emitted instance carries a grid-visible witness).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationError, InvalidDocumentError
from .interlace import (
    HYPERBOLIC,
    NOT_HYPERBOLIC,
    MonicPolynomial,
    obreschkoff_pair_test,
    sampled_pencil_test,
)
from .oracle import HyperbolicOracle, determinantal_oracle, hyperbolic_rank, product_oracle, roots_in_direction
from .scaling import doubly_stochastic_defect, sinkhorn_iteration

PSD_RIDGE = 1e-6


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) combination."""
    return np.random.default_rng((int(seed),) + tuple(int(v) for v in key))


def symmetric_matrix_oracle(n: int) -> HyperbolicOracle:
    """Determinantal oracle over the full space of symmetric n x n matrices.

    The pencil runs over the basis E_ii followed by E_ij + E_ji (i < j), so a
    point is exactly a symmetric matrix written in coordinates and the
    direction maps to the identity matrix.
    """
    basis = []
    direction = []
    for i in range(n):
        e = np.zeros((n, n))
        e[i, i] = 1.0
        basis.append(e)
        direction.append(1.0)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0
            basis.append(e)
            direction.append(0.0)
    return determinantal_oracle(basis, direction)


def matrix_to_point(mat: np.ndarray) -> np.ndarray:
    """Coordinates of a symmetric matrix in the basis used by symmetric_matrix_oracle."""
    a = np.asarray(mat, dtype=float)
    n = a.shape[0]
    coords = [a[i, i] for i in range(n)]
    coords.extend(a[i, j] for i in range(n) for j in range(i + 1, n))
    return np.asarray(coords)


def point_to_matrix(point: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(point, dtype=float)
    mat = np.zeros((n, n))
    for i in range(n):
        mat[i, i] = x[i]
    k = n
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = x[k]
            k += 1
    return mat


def matrix_tuple_points(matrices) -> tuple[HyperbolicOracle, np.ndarray]:
    """Wrap a list of symmetric matrices as points of the symmetric-basis oracle."""
    mats = [np.asarray(a, dtype=float) for a in matrices]
    n = mats[0].shape[0] if mats and mats[0].ndim == 2 else 0
    if n == 0 or any(a.shape != (n, n) for a in mats):
        raise InvalidDocumentError("a matrix tuple is a nonempty list of square matrices of one size")
    oracle = symmetric_matrix_oracle(n)
    return oracle, np.vstack([matrix_to_point(a) for a in mats])


def random_psd_matrix(rng: np.random.Generator, n: int, ridge: float = PSD_RIDGE) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return g @ g.T + ridge * np.eye(n)


def psd_matrix_tuple(rng: np.random.Generator, n: int, ridge: float = PSD_RIDGE) -> list[np.ndarray]:
    """n random positive semidefinite matrices; the ridge keeps them full rank."""
    return [random_psd_matrix(rng, n, ridge) for _ in range(n)]


def doubly_stochastic_matrix_tuple(
    rng: np.random.Generator,
    n: int,
    defect_tol: float = 1e-10,
    max_iters: int = 50000,
) -> list[np.ndarray]:
    """PSD tuple with trace one each and identity sum, to the requested defect.

    A random PSD tuple is scaled to a d-doubly stochastic one by the Sinkhorn
    iteration and then pushed to the identity frame by congruence with
    d^{-1/2}, which preserves every trace tr(d^{-1} A_i).
    """
    _, points = d_doubly_stochastic_tuple(rng, n, defect_tol, max_iters)
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
    max_iters: int = 50000,
) -> tuple[HyperbolicOracle, np.ndarray]:
    """A d-doubly stochastic point tuple (traces one against its own sum)."""
    oracle, points = matrix_tuple_points(psd_matrix_tuple(rng, n))
    report = sinkhorn_iteration(oracle, points, max_iters=max_iters, threshold=defect_tol, precheck=False)
    if not report.converged:
        raise GenerationError(f"scaling failed to reach defect {defect_tol} in {max_iters} iterations")
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


def positive_point_tuple(
    oracle: HyperbolicOracle,
    rng: np.random.Generator,
    count: int,
    margin: float = 0.2,
) -> np.ndarray:
    """Points strictly inside the cone: shift random points along the direction."""
    rows = []
    for _ in range(count):
        y = rng.standard_normal(oracle.m)
        lam = roots_in_direction(oracle, y, oracle.direction, check_direction=False)
        lift = margin + float(rng.uniform(0.0, 1.0)) - float(lam[-1])
        rows.append(y + lift * oracle.direction)
    return np.vstack(rows)


def nonnegative_point_tuple(
    oracle: HyperbolicOracle,
    rng: np.random.Generator,
    count: int,
    boundary_fraction: float = 0.3,
) -> np.ndarray:
    """e-nonnegative points, a fraction of them pushed onto the cone boundary."""
    rows = []
    for _ in range(count):
        y = rng.standard_normal(oracle.m)
        lam = roots_in_direction(oracle, y, oracle.direction, check_direction=False)
        if rng.uniform() < boundary_fraction:
            lift = -float(lam[-1])
        else:
            lift = float(rng.uniform(0.05, 1.0)) - float(lam[-1])
        rows.append(y + lift * oracle.direction)
    return np.vstack(rows)


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


def random_square_determinantal_oracle(rng: np.random.Generator, n: int) -> HyperbolicOracle:
    """Determinantal oracle with as many variables as its degree (PSD pencil)."""
    return random_determinantal_oracle(rng, n, n)


def random_determinantal_oracle(rng: np.random.Generator, n: int, m: int) -> HyperbolicOracle:
    pencil = [random_psd_matrix(rng, n) for _ in range(m)]
    return determinantal_oracle(pencil, np.ones(m))


def _separated_roots(rng: np.random.Generator, degree: int) -> np.ndarray:
    start = rng.uniform(-3.0, -1.0)
    gaps = rng.uniform(0.3, 1.2, size=degree - 1) if degree > 1 else np.empty(0)
    return start + np.concatenate([[0.0], np.cumsum(gaps)])


def _pair_from_residues(roots: np.ndarray, residues: np.ndarray) -> tuple[MonicPolynomial, MonicPolynomial]:
    q = MonicPolynomial.from_roots(roots)
    rc = q.standard_coefficients().copy()
    for k, a_k in enumerate(residues):
        basis = np.polynomial.polynomial.polyfromroots(np.delete(roots, k))
        rc[: basis.size] += a_k * basis
    return q, MonicPolynomial.from_standard(rc)


def hyperbolic_pair(rng: np.random.Generator, degree: int) -> tuple[MonicPolynomial, MonicPolynomial]:
    """Pair with positive partial-fraction residues, verified before emission."""
    roots = _separated_roots(rng, degree)
    residues = rng.uniform(0.2, 2.0, size=degree)
    q, r = _pair_from_residues(roots, residues)
    if obreschkoff_pair_test(q, r).verdict != HYPERBOLIC:
        raise GenerationError("constructed pair failed its residue verification")
    return q, r


def nonhyperbolic_pair(
    rng: np.random.Generator,
    degree: int,
    num_dirs: int = 64,
    max_attempts: int = 200,
) -> tuple[MonicPolynomial, MonicPolynomial]:
    """Pair with mixed-sign residues whose failure is visible on the sampled grid.

    Mixed residues already guarantee some direction has non-real roots; the
    emission check additionally requires the default grid to catch one, since
    a fixed grid cannot certify arbitrarily narrow failure arcs.
    """
    if degree < 2:
        raise GenerationError("a non-hyperbolic pair needs degree >= 2")
    for _ in range(max_attempts):
        roots = _separated_roots(rng, degree)
        residues = rng.uniform(0.2, 2.0, size=degree) * rng.choice([-1.0, 1.0], size=degree)
        if np.all(residues > 0) or np.all(residues < 0):
            residues[int(rng.integers(degree))] *= -1.0
        q, r = _pair_from_residues(roots, residues)
        if obreschkoff_pair_test(q, r).verdict != NOT_HYPERBOLIC:
            continue
        if sampled_pencil_test(q, r, num_dirs=num_dirs).verdict == NOT_HYPERBOLIC:
            return q, r
    raise GenerationError(f"no grid-visible non-hyperbolic pair found in {max_attempts} attempts")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int
    params: dict = field(default_factory=dict)


GENERATOR_KINDS = (
    "psd_tuple",
    "doubly_stochastic_tuple",
    "rank_deficient_tuple",
    "hyperbolic_pair",
    "nonhyperbolic_pair",
)


def generate_document(spec: GeneratorSpec, seed: int) -> dict:
    """Produce the JSON document for a generator request; deterministic in the seed."""
    rng = rng_for(seed, 0)
    n = spec.n
    if n < 1:
        raise InvalidDocumentError(f"generator size must be at least 1, got {n}")
    if spec.kind == "psd_tuple":
        return {"matrices": [a.tolist() for a in psd_matrix_tuple(rng, n)]}
    if spec.kind == "doubly_stochastic_tuple":
        tol = float(spec.params.get("defect_tol", 1e-10))
        return {"matrices": [a.tolist() for a in doubly_stochastic_matrix_tuple(rng, n, defect_tol=tol)]}
    if spec.kind == "rank_deficient_tuple":
        mats, witness = rank_deficient_matrix_tuple(rng, n)
        return {"matrices": [a.tolist() for a in mats], "witness": list(witness)}
    if spec.kind == "hyperbolic_pair":
        q, r = hyperbolic_pair(rng, n)
        return {"q": q.to_json(), "r": r.to_json()}
    if spec.kind == "nonhyperbolic_pair":
        q, r = nonhyperbolic_pair(rng, n, num_dirs=int(spec.params.get("num_dirs", 64)))
        return {"q": q.to_json(), "r": r.to_json()}
    raise InvalidDocumentError(f"unknown generator kind '{spec.kind}'")
