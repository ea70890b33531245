"""Hyperbolic polynomial oracles.

An oracle bundles one of three polynomial forms (product, determinantal,
dense) with its degree n, ambient dimension m, and distinguished direction e,
normalized so that p(e) = 1.  Every form implements the same three methods,
``evaluate_batch(points)``, ``grad_log_p(d)`` and ``roots(x, d, tol, polish)``,
plus its ``kind`` and ``json_fields``.  The pure functions here validate their
inputs and delegate to those: evaluation, univariate restrictions along a
direction, root spectra, directional traces, rank, and cone membership.
Traces need no per-form code: tr_d(x) = <grad p(d), x> / p(d) = x . grad_log_p(d).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy import linalg as sla

from .errors import (
    DegenerateDirectionError,
    DimensionMismatchError,
    InvalidDocumentError,
    NearSingularDirectionWarning,
    NonRealRootError,
)
from .interlace import real_roots_from_coefficients, roots_from_coefficients
from .report import Report

POSITIVE = "positive"
NONNEGATIVE = "nonnegative"
OUTSIDE = "outside"

DEFAULT_ROOT_TOL = 1e-8
DEFAULT_CONE_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-9

# |p(d)| below this triggers a conditioning warning on trace computations.
NEAR_SINGULAR_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class ProductPolynomial:
    """p(z) = z_1 * ... * z_n, hyperbolic in direction (1, ..., 1)."""

    n: int
    kind = "product"

    def evaluate_batch(self, pts: np.ndarray) -> np.ndarray:
        return np.prod(pts, axis=1)

    def grad_log_p(self, d: np.ndarray) -> np.ndarray:
        return 1.0 / d

    def roots(self, x: np.ndarray, d: np.ndarray, tol: float, polish: bool) -> np.ndarray:
        return np.sort(x / d)[::-1]

    def json_fields(self, direction: np.ndarray) -> dict:
        return {}


@dataclass(frozen=True, eq=False)
class DeterminantalPolynomial:
    """p(x) = det(x_1 B_1 + ... + x_m B_m) with real symmetric B_j and M(e) = I."""

    pencil: np.ndarray  # shape (m, n, n)
    kind = "determinantal"

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """M(x) for one point, or the stack of M(x_i) for a batch of rows."""
        return np.tensordot(x, self.pencil, axes=1)

    def evaluate_batch(self, pts: np.ndarray) -> np.ndarray:
        return np.linalg.det(self.matrix(pts))

    def grad_log_p(self, d: np.ndarray) -> np.ndarray:
        """d_j log det M(d) = tr(M(d)^{-1} B_j)."""
        return np.tensordot(self.pencil, np.linalg.inv(self.matrix(d)), axes=([1, 2], [1, 0]))

    def roots(self, x: np.ndarray, d: np.ndarray, tol: float, polish: bool) -> np.ndarray:
        try:
            lam = sla.eigh(self.matrix(x), self.matrix(d), eigvals_only=True)
        except (np.linalg.LinAlgError, sla.LinAlgError) as exc:
            raise DegenerateDirectionError(f"generalized eigenproblem failed: {exc}") from exc
        return lam[::-1]

    def json_fields(self, direction: np.ndarray) -> dict:
        return {
            "m": self.pencil.shape[0],
            "matrices": [b.tolist() for b in self.pencil],
            "direction": direction.tolist(),
        }


@dataclass(frozen=True, eq=False)
class DensePolynomial:
    """Homogeneous polynomial stored as exponent rows and matching coefficients."""

    m: int
    n: int
    exponents: np.ndarray  # (terms, m) nonnegative integers, each row sums to n
    coefficients: np.ndarray  # (terms,)
    kind = "dense"

    def evaluate_batch(self, pts: np.ndarray) -> np.ndarray:
        monomials = np.prod(pts[:, None, :] ** self.exponents[None, :, :], axis=2)
        return monomials @ self.coefficients

    def grad_log_p(self, d: np.ndarray) -> np.ndarray:
        """Exact term differentiation of p at d, divided by p(d)."""
        grad = np.empty(self.m)
        for i in range(self.m):
            exps = self.exponents.copy()
            coefs = self.coefficients * exps[:, i]
            exps[:, i] = np.maximum(exps[:, i] - 1, 0)
            grad[i] = np.prod(d[None, :] ** exps, axis=1) @ coefs
        return grad / self.evaluate_batch(d[None, :])[0]

    def roots(self, x: np.ndarray, d: np.ndarray, tol: float, polish: bool) -> np.ndarray:
        roots = real_roots_from_coefficients(_restriction(self, self.n, x, -d), tol, polish=polish)
        if roots.size != self.n:
            raise NonRealRootError(
                f"expected {self.n} roots, restriction produced {roots.size} (degenerate direction?)"
            )
        return roots

    def json_fields(self, direction: np.ndarray) -> dict:
        return {
            "m": self.m,
            "terms": [
                {"exps": [int(v) for v in e], "coef": float(c)} for e, c in zip(self.exponents, self.coefficients)
            ],
            "direction": direction.tolist(),
        }


Form = Union[ProductPolynomial, DeterminantalPolynomial, DensePolynomial]


@dataclass(frozen=True, eq=False)
class HyperbolicOracle:
    """A polynomial form together with its degree, dimension, and direction."""

    form: Form
    n: int
    m: int
    direction: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.form.kind


def _as_point(oracle: HyperbolicOracle, x) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.shape != (oracle.m,):
        raise DimensionMismatchError(f"point has shape {p.shape}, oracle expects ({oracle.m},)")
    return p


def product_oracle(n: int) -> HyperbolicOracle:
    if n < 1:
        raise InvalidDocumentError("product oracle needs n >= 1")
    return HyperbolicOracle(form=ProductPolynomial(n=n), n=n, m=n, direction=np.ones(n))


def _check_symmetric(mat: np.ndarray, index: int) -> np.ndarray:
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - mat.T)) > 1e-9 * scale:
        raise InvalidDocumentError(f"pencil matrix {index} is not symmetric within tolerance")
    return 0.5 * (mat + mat.T)


def determinantal_oracle(matrices, direction) -> HyperbolicOracle:
    """Build a determinantal oracle, normalizing the pencil so that M(e) = I.

    The pencil evaluated at the direction must be positive definite; it is
    reduced to the identity by congruence with M(e)^(-1/2), which changes the
    polynomial by the constant factor det(M(e)) and leaves every root spectrum
    untouched.  The applied factor is recorded in the metadata.
    """
    mats = [np.asarray(b, dtype=float) for b in matrices]
    if not mats:
        raise InvalidDocumentError("determinantal oracle needs at least one matrix")
    n = mats[0].shape[0]
    for i, b in enumerate(mats):
        if b.shape != (n, n):
            raise InvalidDocumentError(f"pencil matrix {i} has shape {b.shape}, expected ({n}, {n})")
        mats[i] = _check_symmetric(b, i)
    m = len(mats)
    e = np.asarray(direction, dtype=float)
    if e.shape != (m,):
        raise InvalidDocumentError(f"direction has shape {e.shape}, expected ({m},)")
    pencil = np.stack(mats)
    gram = np.tensordot(e, pencil, axes=([0], [0]))
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals[0] <= 1e-12 * max(1.0, eigvals[-1]):
        raise InvalidDocumentError("pencil at the direction is not positive definite")
    metadata = {"gram_determinant": float(np.prod(eigvals)), "congruence_applied": False}
    if np.max(np.abs(gram - np.eye(n))) > 1e-12:
        w = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.T
        pencil = np.stack([w @ b @ w for b in pencil])
        pencil = 0.5 * (pencil + np.transpose(pencil, (0, 2, 1)))
        metadata["congruence_applied"] = True
    return HyperbolicOracle(form=DeterminantalPolynomial(pencil=pencil), n=n, m=m, direction=e, metadata=metadata)


def dense_oracle(m: int, n: int, terms, direction) -> HyperbolicOracle:
    """Build a dense homogeneous oracle, rescaled so that p(e) = 1.

    ``terms`` maps exponent tuples to coefficients (or is an iterable of such
    pairs).  Every exponent row must sum to the degree.
    """
    if isinstance(terms, dict):
        items = sorted(terms.items())
    else:
        items = sorted((tuple(e), c) for e, c in terms)
    items = [(e, float(c)) for e, c in items if c != 0.0]
    if not items:
        raise InvalidDocumentError("dense polynomial needs at least one nonzero coefficient")
    exps = np.asarray([e for e, _ in items], dtype=np.int64)
    coefs = np.asarray([c for _, c in items], dtype=float)
    if exps.shape[1] != m:
        raise InvalidDocumentError("exponent vectors do not match the declared dimension")
    if np.any(exps < 0):
        raise InvalidDocumentError("exponents must be nonnegative")
    if np.any(exps.sum(axis=1) != n):
        raise InvalidDocumentError(f"every exponent vector must sum to the degree {n}")
    e = np.asarray(direction, dtype=float)
    if e.shape != (m,):
        raise InvalidDocumentError(f"direction has shape {e.shape}, expected ({m},)")
    pe = float(DensePolynomial(m=m, n=n, exponents=exps, coefficients=coefs).evaluate_batch(e[None, :])[0])
    if abs(pe) < NEAR_SINGULAR_FLOOR:
        raise InvalidDocumentError("polynomial vanishes at the declared direction")
    metadata = {"normalization_factor": pe}
    form = DensePolynomial(m=m, n=n, exponents=exps, coefficients=coefs / pe)
    return HyperbolicOracle(form=form, n=n, m=m, direction=e, metadata=metadata)


def evaluate_batch(oracle: HyperbolicOracle, points: np.ndarray) -> np.ndarray:
    """Evaluate p at each row of ``points`` (shape (N, m))."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != oracle.m:
        raise DimensionMismatchError(f"batch has shape {pts.shape}, oracle expects (N, {oracle.m})")
    return oracle.form.evaluate_batch(pts)


def evaluate(oracle: HyperbolicOracle, x) -> float:
    """p(x)."""
    return float(evaluate_batch(oracle, _as_point(oracle, x)[None, :])[0])


def pencil_matrix(oracle: HyperbolicOracle, x) -> np.ndarray:
    """M(x) = sum_j x_j B_j for a determinantal oracle."""
    if not isinstance(oracle.form, DeterminantalPolynomial):
        raise InvalidDocumentError("pencil_matrix only applies to determinantal oracles")
    return oracle.form.matrix(_as_point(oracle, x))


def chebyshev_nodes(count: int) -> np.ndarray:
    """count Chebyshev nodes of the first kind on (-1, 1)."""
    j = np.arange(count)
    return np.cos((2 * j + 1) * np.pi / (2 * count))


def polynomial_from_samples(nodes: np.ndarray, values: np.ndarray, degree: int, radius: float) -> np.ndarray:
    """Ascending coefficients of the degree-`degree` polynomial through the samples.

    ``nodes`` live on (-1, 1); the returned coefficients are for the unscaled
    variable t = radius * node.  Fitting in the Chebyshev basis keeps the
    interpolation well-conditioned before converting to the power basis.
    """
    cheb = np.polynomial.chebyshev.chebfit(nodes, values, degree)
    power = np.polynomial.chebyshev.cheb2poly(cheb)
    power = np.pad(power, (0, degree + 1 - power.size))
    return power / radius ** np.arange(degree + 1)


def univariate_restriction(oracle: HyperbolicOracle, x, d) -> np.ndarray:
    """Ascending coefficients c_0..c_n of t -> p(t d + x).

    Recovered by sampling p at n+1 Chebyshev nodes scaled to
    [-1-|x|, 1+|x|]; equispaced nodes would make the interpolation matrix
    unusable already around degree 10.  By construction c_n = p(d) and
    c_0 = p(x).
    """
    return _restriction(oracle.form, oracle.n, _as_point(oracle, x), _as_point(oracle, d))


def _restriction(form: Form, n: int, x: np.ndarray, d: np.ndarray) -> np.ndarray:
    radius = 1.0 + float(np.linalg.norm(x))
    s = chebyshev_nodes(n + 1)
    pts = x[None, :] + (radius * s)[:, None] * d[None, :]
    return polynomial_from_samples(s, form.evaluate_batch(pts), n, radius)


def roots_in_direction(
    oracle: HyperbolicOracle,
    x,
    d,
    tol: float = DEFAULT_ROOT_TOL,
    check_direction: bool = True,
    polish: bool = False,
) -> np.ndarray:
    """The n roots of t -> p(x - t d), sorted descending.

    The direction must be strictly inside the positivity cone, which
    guarantees real roots for hyperbolic p.  Determinantal oracles use the
    symmetric generalized eigenproblem (M(x), M(d)); the product form has the
    roots x_i/d_i in closed form; dense forms go through the companion matrix
    of the restriction along -d (polish=True adds one Newton correction per
    root, off by default).
    """
    x = _as_point(oracle, x)
    d = _as_point(oracle, d)
    if check_direction and not np.array_equal(d, oracle.direction):
        if cone_membership(oracle, d) != POSITIVE:
            raise DegenerateDirectionError("direction is not strictly inside the positivity cone")
    return oracle.form.roots(x, d, tol, polish)


def trace_in_direction(oracle: HyperbolicOracle, x, d) -> float:
    """tr_d(x): the sum of the roots of x in direction d, a linear functional of x.

    Equals the ratio c_(n-1)/c_n of the restriction t -> p(t d + x), which is
    <grad p(d), x> / p(d) = x . grad log p(d).
    """
    x = _as_point(oracle, x)
    d = _as_point(oracle, d)
    pd = evaluate(oracle, d)
    if pd == 0.0:
        raise DegenerateDirectionError("p(d) = 0: traces in this direction are undefined")
    if abs(pd) < NEAR_SINGULAR_FLOOR:
        warnings.warn(
            f"p(d) = {pd:.3e} is nearly zero; directional traces are ill-conditioned",
            NearSingularDirectionWarning,
            stacklevel=2,
        )
    return float(x @ oracle.form.grad_log_p(d))


def hyperbolic_rank(oracle: HyperbolicOracle, x, tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of nonzero roots of an e-nonnegative point: |{i : lambda_i(x) > cutoff}|.

    The cutoff is tol * max(1, lambda_1(x)); the all-zero point has rank 0.
    """
    lam = roots_in_direction(oracle, x, oracle.direction, check_direction=False)
    cutoff = tol * max(1.0, float(lam[0]))
    return int(np.sum(lam > cutoff))


def cone_membership(oracle: HyperbolicOracle, x, tol: float = DEFAULT_CONE_TOL) -> str:
    """Classify x by the sign of its smallest root relative to the root scale."""
    lam = roots_in_direction(oracle, x, oracle.direction, check_direction=False)
    threshold = tol * max(1.0, abs(float(lam[0])))
    smallest = float(lam[-1])
    if smallest > threshold:
        return POSITIVE
    if smallest >= -threshold:
        return NONNEGATIVE
    return OUTSIDE


@dataclass(frozen=True)
class HyperbolicityReport(Report):
    verdict: bool
    counterexample: Optional[np.ndarray]


def hyperbolicity_sample_test(
    oracle: HyperbolicOracle,
    num_samples: int,
    seed: int,
    tol: float = DEFAULT_ROOT_TOL,
) -> HyperbolicityReport:
    """Sample random points and check the restriction along e is real-rooted at each.

    A pass is evidence of hyperbolicity, never a proof; the first failing
    point is returned as the counterexample.
    """
    if num_samples < 1:
        raise InvalidDocumentError("need at least one sample")
    rng = np.random.default_rng(seed)
    e = oracle.direction
    for _ in range(num_samples):
        x = rng.standard_normal(oracle.m)
        coeffs = univariate_restriction(oracle, x, -e)
        roots = roots_from_coefficients(coeffs)
        bad = np.abs(roots.imag) > tol * (1.0 + np.abs(roots))
        if roots.size != oracle.n or bool(np.any(bad)):
            return HyperbolicityReport(verdict=False, counterexample=x)
    return HyperbolicityReport(verdict=True, counterexample=None)


def oracle_to_json(oracle: HyperbolicOracle) -> dict:
    return {"kind": oracle.kind, "n": oracle.n, **oracle.form.json_fields(oracle.direction)}


def oracle_from_json(doc) -> HyperbolicOracle:
    """Parse an oracle document, rejecting anything that violates a type invariant."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidDocumentError("oracle document must be an object with a 'kind' field")
    kind = doc["kind"]
    try:
        if kind == "product":
            return product_oracle(int(doc["n"]))
        if kind == "determinantal":
            matrices = doc["matrices"]
            if not isinstance(matrices, list) or not matrices:
                raise InvalidDocumentError("'matrices' must be a nonempty list")
            if "m" in doc and int(doc["m"]) != len(matrices):
                raise InvalidDocumentError("declared m does not match the matrix count")
            oracle = determinantal_oracle(matrices, doc["direction"])
            if "n" in doc and int(doc["n"]) != oracle.n:
                raise InvalidDocumentError("declared n does not match the matrix size")
            return oracle
        if kind == "dense":
            terms = doc["terms"]
            if not isinstance(terms, list) or not terms:
                raise InvalidDocumentError("'terms' must be a nonempty list")
            if "direction" not in doc:
                raise InvalidDocumentError("dense oracle document needs a 'direction' field")
            pairs = [(tuple(int(v) for v in t["exps"]), float(t["coef"])) for t in terms]
            return dense_oracle(int(doc["m"]), int(doc["n"]), pairs, doc["direction"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDocumentError(f"malformed oracle document: {exc}") from exc
    raise InvalidDocumentError(f"unknown oracle kind '{kind}'")
