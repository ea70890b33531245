"""Hyperbolic polynomial oracles.

An oracle bundles one of three polynomial forms (product, determinantal,
dense) with its degree n, ambient dimension m, and distinguished direction e,
normalized so that p(e) = 1.  A form supplies ``n``, ``kind``,
``evaluate_batch(points)`` and ``grad_log_p(d)``; the base class ``Form``
derives ``roots(x, d, tol)``, ``normalized_roots(x, e, tol)``,
``interior(x, e, ratio)``, ``interior_gradient(d, e, ratio)`` and
``tuple_form(points)`` from the degree ``n`` and evaluation.  Pencils
override all five, products ``roots`` and ``interior``.  A
determinantal form, ``PencilForm``, reaches its pencil B_1..B_m through two
primitives only: x -> M(x) = sum_j x_j B_j, for a point or a stack, and the
adjoint W -> (tr(B_j W))_j.  ``DeterminantalPolynomial`` stores the pencil and
takes both as one matrix product with it; ``SymmetricBasisPolynomial``, whose
points are the coordinates of symmetric n x n matrices, takes both as an
O(n^2) gather through an n x n table of coordinates and never builds its
O(n^4) basis.  That coordinate system lives here beside its form:
``symmetric_matrix_oracle(n)``, the maps ``matrix_points`` and
``point_to_matrix``, and ``paired_matrix_points``, which turns a tuple of
matrices into points of an oracle they pair with; ``oracle_from_json`` reads
its ``{"kind": "symmetric", "n": N}`` document.  A form's
``evaluate_batch`` must accept complex rows as well as real ones, since
polarization evaluates p at complex points.  Both root methods take one
point or a stack of them, shape (..., m), and return (..., n).
``normalized_roots`` takes the roots along the oracle's own direction e,
where a pencil has M(e) = I and needs no factorization of M(e); ``roots``
takes them along any direction.  ``interior`` tells, for each row, whether
its smallest root along e exceeds ratio times the largest root size, the
POSITIVE class of ``classify_spectrum``.  On a pencil it is that rule on
eigvalsh(M(x)), on a product on x / e.  An evaluation-only form answers it
without roots wherever it can: for a form hyperbolic in e, as every root
path here assumes, the coefficients c_k of t -> p(x + t e) are
p(e) e_(n-k)(lambda), all positive exactly when every root is, and then
lambda_min >= c_0 / c_1 and lambda_max <= c_(n-1) / c_n (Renegar 2006), so
one restriction of the whole stack certifies a row whose coefficients are
positive beyond rounding and have c_0 c_n > ratio c_1 c_(n-1); only the
rows it leaves take roots.
``interior_gradient`` gives a Sinkhorn step what it needs at d, from one
factorization on a pencil: p(d), and grad log p(d) when d is interior
(None otherwise).  The pure functions here validate
their inputs and delegate to those: evaluation, univariate restrictions
along a direction, root spectra, directional traces, rank, and cone
membership.  Polarization in ``mixed`` evaluates the form that
``tuple_form`` returns; that form is not normalized, so it is only ever
evaluated.  Every univariate restriction of p is sampled by
``chebyshev_restriction``, a stack of lines at a time, and turned into power
coefficients by one product with a cached per-degree table.
Traces need no per-form code: tr_d(x) = <grad p(d), x> / p(d) = x . grad_log_p(d).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    DegenerateDirectionError,
    DimensionMismatchError,
    InvalidDocumentError,
    NearSingularDirectionWarning,
    NonRealRootError,
    integer_field,
    real_field,
)
from .interlace import real_roots_from_coefficients, real_roots_of_rows
from .report import Report

POSITIVE = "positive"
NONNEGATIVE = "nonnegative"
OUTSIDE = "outside"

DEFAULT_ROOT_TOL = 1e-8
DEFAULT_CONE_TOL = 1e-9
DEFAULT_RANK_TOL = 1e-9

# |p(d)| below this triggers a conditioning warning on trace computations.
NEAR_SINGULAR_FLOOR = 1e-12

# Share of the sum of a restriction's coefficients on [-1, 1] below which ``Form.interior`` does not
# trust the sign of a coefficient: about 4500 eps, room for the rounding of the evaluations and of the
# interpolation.  A boundary point with two zero roots rounds both low coefficients to noise near eps,
# of either sign, and would otherwise pass the certificate about one time in four.
_COEFFICIENT_FLOOR = 1e-12


def _interior_rule(smallest, largest, ratio: float):
    """Whether spectra with these smallest and largest roots, numbers or arrays of them, are POSITIVE at
    ratio in ``classify_spectrum``: smallest > ratio * max(|largest|, |smallest|).  That is
    smallest > ratio * |largest|, since |largest| >= smallest whenever smallest is positive."""
    return smallest > ratio * abs(largest)


# Slots of a tuple that ``PencilForm.closed_form_slots`` takes in closed form, and the least degree at which
# it does.  Three slots cut the 2^(n-2) evaluations of polarization to 2^(n-5) points of about four times
# the cost of one; on one core the route was the slower at n = 9 and the faster from n = 10 on.
CLOSED_FORM_SLOTS = 3
CLOSED_FORM_MIN_DEGREE = 10
# Most by which the magnitudes of the five terms of c_3 at a point of the route may sum past |c_3|; a point
# loses about eps times that sum, and a block with a point past the bound is refused.  On the
# diag(delta, 1, ..., 1) tuples of ``PencilForm.closed_form_slots`` the route's error was about 1e-3 of the
# sign-row sum's 8 n eps max |p| at ratios near 1e3 and reached it near 3e6; Wishart and commuting tuples
# stay under 20.
CLOSED_FORM_MAX_CANCELLATION = 1e3


def _det_coefficient_3(ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c_3(Y_1, Y_2, Y_3) for stacks ys of shape (N, 3, n, n), and the sum of the magnitudes of its terms.

    c_3 is the coefficient of t_1 t_2 t_3 in det(I + sum_j t_j Y_j), the generalized Jacobi formula:
    t_1 t_2 t_3 - t_1 T_23 - t_2 T_13 - t_3 T_12 + T_123 + T_132, with t_j = tr Y_j, T_ab = tr(Y_a Y_b)
    and T_abc = tr(Y_a Y_b Y_c).  For Y_j = B_j Z^-1 with B_j and Z symmetric, transposing the product
    gives T_132 = T_123, so one matrix product Y_1 Y_2 is taken."""
    y1, y2, y3 = ys[:, 0], ys[:, 1], ys[:, 2]
    t1, t2, t3 = np.trace(ys, axis1=-2, axis2=-1).T
    terms = (
        t1 * t2 * t3,
        -t1 * np.einsum("...ij,...ji->...", y2, y3),
        -t2 * np.einsum("...ij,...ji->...", y1, y3),
        -t3 * np.einsum("...ij,...ji->...", y1, y2),
        2.0 * np.einsum("...ij,...ji->...", y1 @ y2, y3),
    )
    return sum(terms), sum(np.abs(term) for term in terms)


class Form:
    """A polynomial form known only by its evaluation and gradient: the protocol methods that a form
    with a faster route overrides.  A form's ``evaluate_batch`` takes real or complex rows, since
    polarization evaluates p at complex points."""

    def roots(self, x: np.ndarray, d: np.ndarray, tol: float) -> np.ndarray:
        """All n roots of t -> p(x - t d) for each row of x, from one restriction fit and one eigvals
        call on the stacked companion matrices.  The leading coefficient of that restriction is
        p(-d) != 0, so it is never trimmed as small next to c_0 = p(x), which grows as |x|^n."""
        return real_roots_of_rows(chebyshev_restriction(self.evaluate_batch, self.n, x, -d), tol)

    def normalized_roots(self, x: np.ndarray, e: np.ndarray, tol: float) -> np.ndarray:
        """``roots`` along the oracle's own direction e."""
        return self.roots(x, e, tol)

    def interior(self, x: np.ndarray, e: np.ndarray, ratio: float) -> np.ndarray:
        """For each row of x, shape (..., m) -> (...), whether its smallest root along e exceeds
        ratio * max(|lambda_max|, |lambda_min|): ``classify_spectrum(lam, ratio) == POSITIVE``.

        One restriction of the whole stack along +e answers it for a form hyperbolic in e: the
        coefficients of t -> p(x + t e) are c_k = p(e) e_(n-k)(lambda), all positive exactly when every
        root is, and then lambda_min >= c_0 / c_1 and lambda_max <= c_(n-1) / c_n.  A row is certified
        when every c_k is positive beyond rounding and c_0 c_n > ratio c_1 c_(n-1); a row that is not
        takes its roots from ``normalized_roots`` and the rule itself, raising where they raise."""
        rows = x.reshape(-1, x.shape[-1])
        # The coefficients in s = t / r, r = 1 + |x|, on [-1, 1]: the certificate is the same in them, and
        # rounding cannot forge the sign of one that clears _COEFFICIENT_FLOOR of their sum.
        coeffs, _ = _scaled_restriction(self.evaluate_batch, self.n, rows, e)
        floor = _COEFFICIENT_FLOOR * coeffs.sum(axis=1)
        inside = (coeffs > floor[:, None]).all(axis=1) & (
            coeffs[:, 0] * coeffs[:, -1] > ratio * coeffs[:, 1] * coeffs[:, -2]
        )
        if not inside.all():
            rest = ~inside
            lam = self.normalized_roots(rows[rest], e, DEFAULT_ROOT_TOL)
            inside[rest] = _interior_rule(lam[:, -1], lam[:, 0], ratio)
        return inside.reshape(x.shape[:-1])

    def interior_gradient(self, d: np.ndarray, e: np.ndarray, ratio: float) -> tuple[float, Optional[np.ndarray]]:
        """p(d), and grad log p(d) when d is ``interior`` at ratio and p(d) > 0 (None otherwise)."""
        inside = self.interior(d, e, ratio)
        value = float(self.evaluate_batch(d[None, :])[0])
        return value, self.grad_log_p(d) if inside and value > 0.0 else None

    def tuple_form(self, pts: np.ndarray) -> tuple[Form, np.ndarray]:
        """A form q and coordinates C with q(s @ C) = p(s @ pts) for every row s: here p and pts."""
        return self, pts

    def closed_form_slots(self, pts: np.ndarray) -> Optional[tuple[int, Callable[[np.ndarray], Optional[np.ndarray]]]]:
        """None, or a route to the mixed value of the n-point tuple pts of this degree-n form that takes k of
        its slots in closed form: k, and the map from complex rows c, shape (N, n - k), over the other
        slots, in an order of the route's choosing, to the k-fold mixed derivative of p at sum_j c_j y_j
        along the closed points, or None for a block whose values it cannot vouch for, on which
        polarization drops the route.  Column 0 of c is the imaginary slot, the last column the slot that
        keeps its + sign.  A form known by evaluation has none, so polarization evaluates p itself."""
        return None


@dataclass(frozen=True, eq=False)
class ProductPolynomial(Form):
    """p(z) = z_1 * ... * z_n, hyperbolic in direction (1, ..., 1)."""

    n: int
    kind = "product"

    def evaluate_batch(self, pts: np.ndarray) -> np.ndarray:
        return np.prod(pts, axis=1)

    def grad_log_p(self, d: np.ndarray) -> np.ndarray:
        return 1.0 / d

    def roots(self, x: np.ndarray, d: np.ndarray, tol: float) -> np.ndarray:
        return np.sort(x / d, axis=-1)[..., ::-1]

    def interior(self, x: np.ndarray, e: np.ndarray, ratio: float) -> np.ndarray:
        """The rule on the closed-form roots x / e."""
        lam = x / e
        return _interior_rule(lam.min(axis=-1), lam.max(axis=-1), ratio)


class PencilForm(Form):
    """p(x) = det M(x) for a linear map x -> M(x) = sum_j x_j B_j into real symmetric matrices with
    M(e) = I.  Every method goes through two primitives that a subclass supplies: ``matrix``, x -> M(x)
    for a point or a stack, and its adjoint ``traces``, W -> (tr(B_j W))_j."""

    kind = "determinantal"

    def evaluate_batch(self, pts: np.ndarray) -> np.ndarray:
        return np.linalg.det(self.matrix(pts))

    def grad_log_p(self, d: np.ndarray) -> np.ndarray:
        """d_j log det M(d) = tr(M(d)^{-1} B_j)."""
        return self.traces(np.linalg.inv(self.matrix(d)))

    def roots(self, x: np.ndarray, d: np.ndarray, tol: float) -> np.ndarray:
        """Eigenvalues of L^-1 M(x) L^-T with M(d) = L L^T, one factorization for a whole stack of x."""
        try:
            low = np.linalg.cholesky(self.matrix(d))
            half = np.linalg.solve(low, self.matrix(x))
            lam = np.linalg.eigvalsh(np.linalg.solve(low, np.swapaxes(half, -1, -2)))
        except np.linalg.LinAlgError as exc:
            raise DegenerateDirectionError(f"generalized eigenproblem failed: {exc}") from exc
        return lam[..., ::-1]

    def normalized_roots(self, x: np.ndarray, e: np.ndarray, tol: float) -> np.ndarray:
        """``roots`` along the direction e the pencil is normalized at: M(e) = I (to 1e-12), so the
        roots are the eigenvalues of M(x) itself, one eigvalsh for a whole stack of x."""
        try:
            lam = np.linalg.eigvalsh(self.matrix(x))
        except np.linalg.LinAlgError as exc:
            raise DegenerateDirectionError(f"eigenproblem failed: {exc}") from exc
        return lam[..., ::-1]

    def interior(self, x: np.ndarray, e: np.ndarray, ratio: float) -> np.ndarray:
        """The rule on the eigenvalues of M(x), one eigvalsh for a whole stack."""
        lam = self.normalized_roots(x, e, DEFAULT_ROOT_TOL)
        return _interior_rule(lam[..., -1], lam[..., 0], ratio)

    def interior_gradient(self, d: np.ndarray, e: np.ndarray, ratio: float) -> tuple[float, Optional[np.ndarray]]:
        """One eigh of M(d).  e is the direction the pencil is normalized at, M(e) = I (to 1e-12), so the
        roots of d along e are the eigenvalues of M(d), p(d) is their product, and
        d_j log p(d) = tr(M(d)^-1 B_j) with M(d)^-1 = V diag(1/lambda) V^T, formed only when d is
        ``interior`` at ratio."""
        lam, vecs = np.linalg.eigh(self.matrix(d))
        grad = None
        if _interior_rule(lam[0], lam[-1], ratio):
            # tr(B_j W^T) = tr(B_j W) for symmetric B_j; on a stored pencil W^T sums W in row-major order.
            grad = self.traces(((vecs / lam) @ vecs.T).T)
        return float(lam.prod()), grad

    def tuple_form(self, pts: np.ndarray) -> tuple[DeterminantalPolynomial, np.ndarray]:
        """A form q and coordinates C with q(s @ C) = p(s @ pts) for every row s.

        p(sum_i s_i x_i) = det(sum_i s_i M(x_i)), so q is the pencil of the
        matrices M(x_i), formed once, and C is the identity.
        """
        return DeterminantalPolynomial(pencil=self.matrix(pts)), np.eye(pts.shape[0])

    def closed_form_slots(self, pts: np.ndarray) -> Optional[tuple[int, Callable[[np.ndarray], Optional[np.ndarray]]]]:
        """CLOSED_FORM_SLOTS slots of an n-point tuple from n = CLOSED_FORM_MIN_DEGREE on, when its matrices
        B_i = M(x_i) are exactly symmetric and one B_0 of them is positive definite: the
        POSITIVE class of ``classify_spectrum`` at DEFAULT_CONE_TOL, from one eigvalsh of the stack, and
        the best conditioned such B_0 if there are several.

        B_0 takes the imaginary slot, the last k other matrices B_d the closed slots, and a point of the
        route is Z = i B_0 + sum_j c_j B_j over the rest.  The mixed derivative of det along the B_d at Z
        is det Z * c_3(Z^-1 B_d), the generalized Jacobi formula of ``_det_coefficient_3``, which takes
        c_3(B_d Z^-1), the same value (Sylvester's determinant identity).  Z is invertible with
        |Z^-1| <= 1 / lambda_min(B_0), since |x* Z x| >= x* B_0 x for complex x and real c.  Each point
        costs one det, one inverse, one real product for all B_d Z^-1 (Z^-1 read as real, B_d being
        real) and one complex product, where plain evaluation would take det at 2^k points.

        That bound does not keep c_3 from cancelling: when Z is near singular in a direction that the B_d
        fill, as for B_0 = diag(delta, 1, ..., 1) with every other open matrix zero on e_1, its terms grow
        like delta^-3 while c_3 grows like delta^-1.  A block in which some point's terms exceed |c_3| by
        more than CLOSED_FORM_MAX_CANCELLATION is refused (None)."""
        n = pts.shape[0]
        if n < CLOSED_FORM_MIN_DEGREE:
            return None
        mats = self.matrix(pts)
        if not np.array_equal(mats, mats.swapaxes(1, 2)):
            return None
        lam = np.linalg.eigvalsh(mats)
        definite = np.flatnonzero(_interior_rule(lam[:, 0], lam[:, -1], DEFAULT_CONE_TOL))
        if not definite.size:
            return None
        first = definite[np.argmax(lam[definite, 0] / lam[definite, -1])]
        order = np.concatenate([[first], np.delete(np.arange(n), first)])
        k = CLOSED_FORM_SLOTS
        rest = mats[order[:-k]].reshape(n - k, n * n)
        closed = mats[order[-k:]].reshape(k * n, n)

        def mixed_derivative(rows: np.ndarray) -> Optional[np.ndarray]:
            z = (rows @ rest).reshape(-1, n, n)
            # B_d Z^-1 for every d in one real product: the columns of Z^-1 viewed as pairs of reals.
            ys = (closed @ np.linalg.inv(z).view(float)).view(complex).reshape(-1, k, n, n)
            coefficient, spread = _det_coefficient_3(ys)
            if np.any(spread > CLOSED_FORM_MAX_CANCELLATION * np.abs(coefficient)):
                return None
            return np.linalg.det(z) * coefficient

        return k, mixed_derivative


@dataclass(frozen=True, eq=False)
class DeterminantalPolynomial(PencilForm):
    """p(x) = det(x_1 B_1 + ... + x_m B_m) with real symmetric B_j and M(e) = I, the B_j stored."""

    pencil: np.ndarray  # shape (m, n, n)

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """M(x) for one point, or the stack of M(x_i) for a batch of rows."""
        # One matrix product: a general tensor contraction costs several times as much on small inputs.
        m, n, _ = self.pencil.shape
        return (x @ self.pencil.reshape(m, n * n)).reshape(x.shape[:-1] + (n, n))

    def traces(self, w: np.ndarray) -> np.ndarray:
        """(tr(B_j W))_j for one n x n matrix W, contracted in one matrix product like ``matrix``."""
        m, n, _ = self.pencil.shape
        return self.pencil.reshape(m, n * n) @ w.T.reshape(n * n)


@dataclass(frozen=True, eq=False)
class SymmetricBasisPolynomial(PencilForm):
    """p(x) = det M(x) on the coordinates x of the symmetric n x n matrix M(x): M(x)[a, b] = x[entries[a, b]].

    Its pencil is the symmetric basis in the coordinate order of ``entries``, E_ii for a diagonal
    coordinate and E_ij + E_ji for an off-diagonal one, and it is never stored: the (m, n, n) basis is
    O(n^4) data where ``entries`` is O(n^2).  M(x) is one gather of x through ``entries``, and
    tr(B_k W) sums the entries of W at coordinate k, W[i, i] or W[i, j] + W[j, i], in one
    ``np.bincount``.  On real input both give the basis pencil's products bit for bit.
    """

    n: int
    entries: np.ndarray  # (n, n) symmetric, the coordinate at each entry; read-only

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """M(x) for one point, or the stack of M(x_i) for a batch of rows."""
        # Adding 0.0 turns -0.0 into 0.0, as the pencil product's sums do.  The method skips the Python
        # dispatch of np.take, which every Sinkhorn step would pay.
        return (x + np.float64(0.0)).take(self.entries, axis=-1)

    def traces(self, w: np.ndarray) -> np.ndarray:
        """(tr(B_k W))_k for one n x n matrix W: the sum of W over the entries of coordinate k, in
        row-major order and from 0.0 as the pencil product sums them.  ``entries`` is symmetric, so
        summing W^T instead gives the same terms."""
        return np.bincount(self.entries.ravel(), weights=w.ravel())


@dataclass(frozen=True, eq=False)
class DensePolynomial(Form):
    """Homogeneous polynomial stored as exponent rows and matching coefficients, with the derivative
    table of its terms, which ``dense_oracle`` builds once per form."""

    m: int
    n: int
    exponents: np.ndarray  # (terms, m) nonnegative integers, each row sums to n
    coefficients: np.ndarray  # (terms,)
    lowered: np.ndarray  # (m, terms, m): row i lowers exponent i of every term by one, clamped at zero
    factors: np.ndarray  # (m, terms): exponents.T, exponent i of every term in row i
    kind = "dense"

    def evaluate_batch(self, pts: np.ndarray) -> np.ndarray:
        monomials = (pts[:, None, :] ** self.exponents[None, :, :]).prod(axis=2)
        return monomials @ self.coefficients

    def grad_log_p(self, d: np.ndarray) -> np.ndarray:
        """grad p(d) / p(d), every partial derivative by term differentiation in one product: row i of
        the (m, terms) monomial table lowers exponent i by one (clamped at zero, where the factor
        alpha_i vanishes anyway).  p(d) comes from the same table by Euler's identity
        n p(d) = d . grad p(d), so the monomials are evaluated once."""
        grad = ((d**self.lowered).prod(axis=2) * self.factors) @ self.coefficients
        return grad * (self.n / (d @ grad))


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


def _as_points(oracle: HyperbolicOracle, x) -> np.ndarray:
    """x as a real point or stack of points of the oracle's dimension, shape (..., m).  A complex point
    is refused: the cast to float would drop its imaginary part."""
    if np.iscomplexobj(x):
        raise InvalidDocumentError("a point must be real; evaluate_batch takes complex rows")
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0 or pts.shape[-1] != oracle.m:
        raise DimensionMismatchError(f"point has shape {pts.shape}, oracle expects (..., {oracle.m})")
    return pts


def _as_point(oracle: HyperbolicOracle, x) -> np.ndarray:
    """x as one real point of the oracle's dimension, shape (m,)."""
    p = _as_points(oracle, x)
    if p.ndim != 1:
        raise DimensionMismatchError(f"point has shape {p.shape}, oracle expects ({oracle.m},)")
    return p


def product_oracle(n: int) -> HyperbolicOracle:
    if n < 1:
        raise InvalidDocumentError("product oracle needs n >= 1")
    return HyperbolicOracle(form=ProductPolynomial(n=n), n=n, m=n, direction=np.ones(n))


# Entries of a pencil worked on at a time by the loops over _pencil_blocks, so that their
# temporaries stay near this many entries however large the pencil is.
_BLOCK_ENTRIES = 1 << 16


def _pencil_blocks(pencil: np.ndarray):
    """(index of the first matrix, view) of consecutive blocks of a stack of matrices."""
    m, n, _ = pencil.shape
    step = max(1, _BLOCK_ENTRIES // (n * n))
    return ((start, pencil[start : start + step]) for start in range(0, m, step))


def _average_with_transpose(block: np.ndarray) -> None:
    """Replace each matrix B of a stack by (B + B^T) / 2 in place."""
    block += np.transpose(block, (0, 2, 1)).copy()
    block *= 0.5


def _symmetrize(pencil: np.ndarray) -> None:
    """Average each matrix of the stack with its transpose in place, once all are symmetric
    within 1e-9 * max(1, max |entry|) of their own scale."""
    for start, block in _pencil_blocks(pencil):
        # Array methods rather than np.max and np.abs: ``matrix_points`` runs this on every small tuple.
        scale = np.maximum(1.0, abs(block).max(axis=(1, 2)))
        bad = np.flatnonzero(abs(block - block.transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-9 * scale)
        if bad.size:
            raise InvalidDocumentError(f"pencil matrix {start + bad[0]} is not symmetric within tolerance")
        _average_with_transpose(block)


def determinantal_oracle(matrices, direction) -> HyperbolicOracle:
    """Build a determinantal oracle, normalizing the pencil so that M(e) = I.

    The pencil evaluated at the direction must be positive definite; it is
    reduced to the identity by congruence with M(e)^(-1/2), which changes the
    polynomial by the constant factor det(M(e)) and leaves every root spectrum
    untouched.  The applied factor is recorded in the metadata.  The matrices
    are stacked into one copy, which the congruence overwrites a block at a
    time, averaging each block with its transpose without ``_symmetrize``'s
    check, as rounding leaves an asymmetry near eps * cond(M(e)).
    """
    mats = [np.asarray(b, dtype=float) for b in matrices]
    if not mats:
        raise InvalidDocumentError("determinantal oracle needs at least one matrix")
    n = mats[0].shape[0]
    for i, b in enumerate(mats):
        if b.shape != (n, n):
            raise InvalidDocumentError(f"pencil matrix {i} has shape {b.shape}, expected ({n}, {n})")
    pencil = np.stack(mats)
    _symmetrize(pencil)
    m = len(mats)
    e = np.asarray(direction, dtype=float)
    if e.shape != (m,):
        raise InvalidDocumentError(f"direction has shape {e.shape}, expected ({m},)")
    gram = DeterminantalPolynomial(pencil=pencil).matrix(e)
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals[0] <= 1e-12 * max(1.0, eigvals[-1]):
        raise InvalidDocumentError("pencil at the direction is not positive definite")
    metadata = {"gram_determinant": float(np.prod(eigvals)), "congruence_applied": False}
    if np.max(np.abs(gram - np.eye(n))) > 1e-12:
        w = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.T
        for _, block in _pencil_blocks(pencil):
            np.matmul(w @ block, w, out=block)
            _average_with_transpose(block)
        metadata["congruence_applied"] = True
    return HyperbolicOracle(form=DeterminantalPolynomial(pencil=pencil), n=n, m=m, direction=e, metadata=metadata)


# Bound on the N of a {"kind": "symmetric", "n": N} document: what its oracle holds, an N x N table of
# coordinates and three vectors over its N(N+1)/2 coordinates (the direction, and the row and the column
# of each), 8 bytes an entry, fits in this many bytes (N <= 1831).  No command builds the O(N^4) basis.
SYMMETRIC_ORACLE_BYTES = 64 << 20


@functools.lru_cache(maxsize=16)
def _coordinate_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each coordinate of a symmetric n x n matrix: the diagonal,
    then the upper triangle row by row.  Cached per n; both arrays are read-only."""
    rows, cols = np.triu_indices(n, 1)
    diag = np.arange(n)
    indices = np.concatenate([diag, rows]), np.concatenate([diag, cols])
    for table in indices:
        table.setflags(write=False)
    return indices


@functools.lru_cache(maxsize=16)
def _symmetric_form(n: int) -> SymmetricBasisPolynomial:
    """The determinantal form on the coordinates of symmetric n x n matrices, with its read-only table
    of the coordinate at each entry; cached per n, as every oracle of that size shares it."""
    rows, cols = _coordinate_indices(n)
    entries = np.empty((n, n), dtype=np.intp)
    entries[rows, cols] = entries[cols, rows] = np.arange(rows.size)
    entries.setflags(write=False)
    return SymmetricBasisPolynomial(n=n, entries=entries)


def _basis_matrices(n: int, start: int, stop: int) -> np.ndarray:
    """Matrices start..stop-1 of the symmetric basis in coordinate order: E_ii for a diagonal
    coordinate, E_ij + E_ji for an off-diagonal one.  The one builder of basis matrices."""
    i, j = _coordinate_indices(n)
    i, j = i[start:stop], j[start:stop]
    basis = np.zeros((i.size, n, n))
    k = np.arange(i.size)
    basis[k, i, j] = 1.0
    basis[k, j, i] = 1.0
    return basis


def is_symmetric_basis(pencil: np.ndarray, n: int) -> bool:
    """Whether a pencil is the symmetric basis of n x n matrices within 1e-12, built only a block at a
    time to compare."""
    return pencil.shape == (n * (n + 1) // 2, n, n) and all(
        np.max(np.abs(block - _basis_matrices(n, start, start + len(block)))) <= 1e-12
        for start, block in _pencil_blocks(pencil)
    )


def symmetric_matrix_oracle(n: int) -> HyperbolicOracle:
    """Determinantal oracle over the full space of symmetric n x n matrices.

    Its pencil is the symmetric basis, so a point is exactly a symmetric
    matrix written in coordinates and the direction maps to the identity
    matrix.  The form, ``SymmetricBasisPolynomial``, never stores that
    basis: M(x) and the traces tr(B_j W) are O(n^2) gathers through the
    cached n x n table of coordinates, where the basis would take
    n^3 (n + 1) / 2 doubles.  M(e) = I exactly, so the metadata is that of a
    pencil that needs no congruence.
    """
    if n < 1:
        raise InvalidDocumentError("symmetric matrix oracle needs n >= 1")
    form = _symmetric_form(n)
    direction = np.zeros(n * (n + 1) // 2)
    direction[:n] = 1.0
    metadata = {"gram_determinant": 1.0, "congruence_applied": False}
    return HyperbolicOracle(form=form, n=n, m=direction.size, direction=direction, metadata=metadata)


def point_to_matrix(point: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n x n matrix whose coordinates are point."""
    i, j = _coordinate_indices(n)
    mat = np.zeros((n, n))
    mat[i, j] = mat[j, i] = np.asarray(point, dtype=float)
    return mat


def _matrix_stack(matrices) -> np.ndarray:
    """A tuple of square matrices of one size as one float array, shape (points, n, n)."""
    mats = real_field(matrices, "a matrix tuple")
    if mats.ndim != 3 or 0 in mats.shape or mats.shape[1] != mats.shape[2]:
        raise InvalidDocumentError("a matrix tuple is a nonempty list of square matrices of one size")
    return mats


def matrix_points(matrices) -> np.ndarray:
    """The coordinates of a tuple of symmetric matrices in the symmetric basis, one row each.  The
    coordinates are the upper triangle, so a matrix that is not symmetric within ``_symmetrize``'s
    tolerance is refused with InvalidDocumentError; one that is is averaged with its transpose first."""
    mats = _matrix_stack(matrices).copy()  # _symmetrize averages in place; the caller's array stays as given
    _symmetrize(mats)
    return mats[(slice(None),) + _coordinate_indices(mats.shape[1])]


def paired_matrix_points(oracle: HyperbolicOracle, matrices, source: str) -> np.ndarray:
    """The ``matrix_points`` of a tuple of symmetric matrices as points of an oracle they pair with.

    Matrix coordinates only make sense against the symmetric basis: the form that gathers them, or a
    stored pencil equal to that basis, compared a block at a time.  ``source`` names the tuple when it
    does not pair or a matrix is not symmetric."""
    mats = _matrix_stack(matrices)
    n = mats.shape[1]
    if isinstance(oracle.form, SymmetricBasisPolynomial):
        pairs = oracle.n == n
    else:
        pairs = oracle.kind == "determinantal" and is_symmetric_basis(oracle.form.pencil, n)
    if not pairs:
        raise InvalidDocumentError(
            f'{source}: matrix tuples pair with the symmetric-basis oracle ({{"kind": "symmetric", "n": {n}}})'
        )
    try:
        return matrix_points(mats)
    except InvalidDocumentError as exc:
        raise InvalidDocumentError(f"{source}: {exc}") from exc


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
    lowered = np.maximum(exps - np.eye(m, dtype=exps.dtype)[:, None, :], 0)
    form = DensePolynomial(m=m, n=n, exponents=exps, coefficients=coefs, lowered=lowered, factors=exps.T)
    pe = float(form.evaluate_batch(e[None, :])[0])
    # Vanishing is judged against the size of the terms at e, sum |c_t| |e|^alpha_t, so it does not depend on scale.
    size = replace(form, coefficients=np.abs(coefs)).evaluate_batch(np.abs(e)[None, :])[0]
    if abs(pe) <= 1e-12 * size:
        raise InvalidDocumentError("polynomial vanishes at the declared direction")
    metadata = {"normalization_factor": pe}
    return HyperbolicOracle(form=replace(form, coefficients=coefs / pe), n=n, m=m, direction=e, metadata=metadata)


def evaluate_batch(oracle: HyperbolicOracle, points: np.ndarray) -> np.ndarray:
    """Evaluate p at each row of ``points`` (shape (N, m)): real rows as float64, complex rows as given."""
    pts = np.asarray(points)
    if not np.iscomplexobj(pts):
        pts = pts.astype(float, copy=False)
    if pts.ndim != 2 or pts.shape[1] != oracle.m:
        raise DimensionMismatchError(f"batch has shape {pts.shape}, oracle expects (N, {oracle.m})")
    return oracle.form.evaluate_batch(pts)


def evaluate(oracle: HyperbolicOracle, x) -> float:
    """p(x)."""
    return float(evaluate_batch(oracle, _as_point(oracle, x)[None, :])[0])


def pencil_matrix(oracle: HyperbolicOracle, x) -> np.ndarray:
    """M(x) = sum_j x_j B_j for a determinantal oracle."""
    if oracle.kind != "determinantal":
        raise InvalidDocumentError("pencil_matrix only applies to determinantal oracles")
    return oracle.form.matrix(_as_point(oracle, x))


@functools.lru_cache(maxsize=None)
def _chebyshev_interpolation(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The count Chebyshev nodes of the first kind, s_k = cos((2k+1) pi / (2 count)), and the matrix
    that takes the values of a polynomial of degree < count at them to its ascending power coefficients.

    At these nodes the Chebyshev coefficients are a discrete cosine transform of the values,
    a_j = (2 - [j = 0]) / count * sum_k f(s_k) T_j(s_k); the matrix is that transform followed by
    the integer matrix whose column j holds the power coefficients of T_j.  Both arrays are read-only.
    """
    k = np.arange(count)
    s = np.cos((2 * k + 1) * np.pi / (2 * count))
    transform = np.cos(np.outer(k, 2 * k + 1) * np.pi / (2 * count)) * (2.0 / count)
    transform[0] *= 0.5
    to_power = np.zeros((count, count))
    to_power[0, 0] = 1.0
    if count > 1:
        to_power[1, 1] = 1.0
    for j in range(2, count):
        to_power[1:, j] = 2.0 * to_power[:-1, j - 1]
        to_power[:, j] -= to_power[:, j - 2]
    table = to_power @ transform
    s.setflags(write=False)
    table.setflags(write=False)
    return s, table


def chebyshev_restriction(
    evaluate: Callable[[np.ndarray], np.ndarray], degree: int, x: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Ascending coefficients c_0..c_degree of t -> f(x + t d), for f of that degree along the line,
    for one point x or each row of a stack of them, shape (..., m) -> (..., degree+1).

    ``evaluate`` maps a batch of points (rows) to the values of f; it is
    called once, on the nodes of every line.  f is sampled at degree+1
    Chebyshev nodes of the first kind scaled to [-1-|x|, 1+|x|]; equispaced
    nodes would make the interpolation matrix unusable already around degree
    10.  Interpolating in the Chebyshev basis keeps the recovery
    well-conditioned; at these nodes it is a discrete cosine transform, so one
    product with the cached per-degree table of ``_chebyshev_interpolation``
    takes the values of every line to power coefficients.
    """
    power, radius = _scaled_restriction(evaluate, degree, x, d)
    return (power / np.reshape(radius, (-1, 1)) ** np.arange(degree + 1)).reshape(x.shape[:-1] + (degree + 1,))


def _scaled_restriction(
    evaluate: Callable[[np.ndarray], np.ndarray], degree: int, x: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ascending coefficients of s -> f(x + s r d) on the nodes of ``chebyshev_restriction``, one row
    per line, shape (K, degree+1), and the radii r = 1 + |x| of the K lines: the coefficient of s^k is
    r^k c_k."""
    radius = 1.0 + np.linalg.norm(x, axis=-1)
    count = degree + 1
    s, table = _chebyshev_interpolation(count)
    pts = x[..., None, :] + (radius[..., None] * s)[..., None] * d
    values = evaluate(pts.reshape(-1, x.shape[-1])).reshape(-1, count)
    return values @ table.T, radius


def univariate_restriction(oracle: HyperbolicOracle, x, d) -> np.ndarray:
    """Ascending coefficients c_0..c_n of t -> p(t d + x), from ``chebyshev_restriction``.

    By construction c_n = p(d) and c_0 = p(x).
    """
    return chebyshev_restriction(oracle.form.evaluate_batch, oracle.n, _as_point(oracle, x), _as_point(oracle, d))


def roots_in_direction(
    oracle: HyperbolicOracle,
    x,
    d,
    tol: float = DEFAULT_ROOT_TOL,
) -> np.ndarray:
    """The n roots of t -> p(x - t d), sorted descending, for one point x or a stack of them, shape
    (..., m) -> (..., n); d is one point.

    The direction must be strictly inside the positivity cone, which
    guarantees real roots for hyperbolic p.  Along the oracle's own direction
    the form's ``normalized_roots`` answer with no check: determinantal
    oracles take the eigenvalues of M(x), since M(e) = I.  Any other
    direction goes through ``cone_membership`` first and raises
    DegenerateDirectionError unless it is strictly inside the cone; then
    determinantal oracles take the eigenvalues of L^-1 M(x) L^-T, with
    M(d) = L L^T by Cholesky.  The product form has the roots x_i/d_i in
    closed form; every other form takes ``Form.roots``, the companion matrix
    of the restriction along -d, whose degree is always n.
    """
    x = _as_points(oracle, x)
    d = _as_point(oracle, d)
    if np.array_equal(d, oracle.direction):
        return oracle.form.normalized_roots(x, d, tol)
    if cone_membership(oracle, d) != POSITIVE:
        raise DegenerateDirectionError("direction is not strictly inside the positivity cone")
    return oracle.form.roots(x, d, tol)


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


def hyperbolic_rank(oracle: HyperbolicOracle, x) -> Union[int, np.ndarray]:
    """Number of nonzero roots of x: |{i : |lambda_i(x)| > DEFAULT_RANK_TOL * max_j |lambda_j(x)|}|.

    The cutoff is relative to the root scale of ``classify_spectrum``, so
    rank(c x) = rank(x) for every c != 0, and a point outside the cone gets a
    rank that rounding does not decide (rank(-e) = n).  On the closed cone
    this is the number of roots above DEFAULT_RANK_TOL * lambda_1(x).  A
    stack of points, shape (..., m), gets the array of their ranks from one
    ``normalized_roots`` call: one eigvalsh of the stacked M(x) on a pencil.
    """
    pts = _as_points(oracle, x)
    size = np.abs(oracle.form.normalized_roots(pts, oracle.direction, DEFAULT_ROOT_TOL))
    ranks = np.sum(size > DEFAULT_RANK_TOL * np.maximum(size[..., :1], size[..., -1:]), axis=-1)
    return int(ranks) if pts.ndim == 1 else ranks


def classify_spectrum(lam: np.ndarray, tol: float) -> str:
    """POSITIVE, NONNEGATIVE or OUTSIDE by the sign of the smallest root of a
    descending spectrum against tol * max|lambda|, so that c * lam has the class
    of lam for every c > 0."""
    threshold = tol * max(abs(float(lam[0])), abs(float(lam[-1])))
    smallest = float(lam[-1])
    if smallest > threshold:
        return POSITIVE
    if smallest >= -threshold:
        return NONNEGATIVE
    return OUTSIDE


def cone_membership(oracle: HyperbolicOracle, x) -> str:
    """Classify x by the sign of its smallest root relative to the root scale, at DEFAULT_CONE_TOL.

    The form's ``interior`` answers POSITIVE first, with no roots on an evaluation-only form: its
    restriction coefficients certify the interior of a form hyperbolic in e.  Any other point is
    classified from its roots."""
    x = _as_point(oracle, x)
    if oracle.form.interior(x, oracle.direction, DEFAULT_CONE_TOL):
        return POSITIVE
    return classify_spectrum(roots_in_direction(oracle, x, oracle.direction), DEFAULT_CONE_TOL)


@dataclass(frozen=True, slots=True)
class HyperbolicityReport(Report):
    verdict: bool
    counterexample: Optional[np.ndarray]


# Only the tests call this check, but it stays here: it is this module's one use of
# real_roots_from_coefficients, and bench/selftest.py requires the tracer to wrap
# hyperpoly.oracle.real_roots_from_coefficients.  It moves once a Hermite-matrix test replaces its companion
# roots and the tracer stops pinning internal names (ROADMAP items 13 and 23).
def hyperbolicity_sample_test(oracle: HyperbolicOracle, num_samples: int, seed: int) -> HyperbolicityReport:
    """Sample random points and check the restriction along e has n real roots at each.

    Roots are accepted as real at DEFAULT_ROOT_TOL.  A pass is evidence of
    hyperbolicity, never a proof; the first failing point is returned as the
    counterexample.
    """
    if num_samples < 1:
        raise InvalidDocumentError("need at least one sample")
    rng = np.random.default_rng(seed)
    e = oracle.direction
    for _ in range(num_samples):
        x = rng.standard_normal(oracle.m)
        coeffs = univariate_restriction(oracle, x, -e)
        try:
            real = real_roots_from_coefficients(coeffs, DEFAULT_ROOT_TOL).size == oracle.n
        except NonRealRootError:
            real = False
        if not real:
            return HyperbolicityReport(verdict=False, counterexample=x)
    return HyperbolicityReport(verdict=True, counterexample=None)


def oracle_from_json(doc) -> HyperbolicOracle:
    """Parse an oracle document, rejecting anything that violates a type invariant.  A
    ``{"kind": "symmetric", "n": N}`` document is refused past SYMMETRIC_ORACLE_BYTES before any of its
    tables exists, and loads the cached form of ``symmetric_matrix_oracle(N)``."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidDocumentError("oracle document must be an object with a 'kind' field")
    kind = doc["kind"]
    try:
        if kind == "product":
            return product_oracle(integer_field(doc["n"], "'n'"))
        if kind == "symmetric":
            n = integer_field(doc["n"], "'n'")
            if n < 1 or 8 * (n * n + 3 * (n * (n + 1) // 2)) > SYMMETRIC_ORACLE_BYTES:
                raise InvalidDocumentError(
                    f"'n' must be at least 1 and keep the symmetric oracle within {SYMMETRIC_ORACLE_BYTES >> 20} MiB"
                )
            return symmetric_matrix_oracle(n)
        if kind == "determinantal":
            matrices = doc["matrices"]
            if not isinstance(matrices, list) or not matrices:
                raise InvalidDocumentError("'matrices' must be a nonempty list")
            if "m" in doc and integer_field(doc["m"], "'m'") != len(matrices):
                raise InvalidDocumentError("declared m does not match the matrix count")
            mats = [real_field(b, f"pencil matrix {i}") for i, b in enumerate(matrices)]
            oracle = determinantal_oracle(mats, real_field(doc["direction"], "'direction'"))
            if "n" in doc and integer_field(doc["n"], "'n'") != oracle.n:
                raise InvalidDocumentError("declared n does not match the matrix size")
            return oracle
        if kind == "dense":
            terms = doc["terms"]
            if not isinstance(terms, list) or not terms:
                raise InvalidDocumentError("'terms' must be a nonempty list")
            if "direction" not in doc:
                raise InvalidDocumentError("dense oracle document needs a 'direction' field")
            exps = [tuple(integer_field(v, "an 'exps' entry") for v in t["exps"]) for t in terms]
            coefs = real_field([t["coef"] for t in terms], "'coef'")
            if coefs.shape != (len(terms),):
                raise InvalidDocumentError("every 'coef' must be one number")
            m, n = integer_field(doc["m"], "'m'"), integer_field(doc["n"], "'n'")
            return dense_oracle(m, n, zip(exps, coefs.tolist()), real_field(doc["direction"], "'direction'"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidDocumentError(f"malformed oracle document: {exc}") from exc
    raise InvalidDocumentError(f"unknown oracle kind '{kind}'")
