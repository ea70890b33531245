"""Mixed forms of hyperbolic polynomials.

Polarization, mixed discriminants, supports and Newton-polytope membership,
Alexandrov-Fenchel residuals, and log-concavity profiles.  One tuple is
polarized at 2^(n-2) complex points: its first point takes the imaginary
slot, and the conjugate points come free from p(conj z) = conj p(z).  A
form may take k slots in closed form (``Form.closed_form_slots``): a pencil
tuple with a positive definite element takes three from n = 10 on, at
2^(n-5) points, unless the closed form cancels too deeply.  Supports, dense expansions and log-concavity
profiles need the mixed value of every composition r of n into k parts at
once: those real sign sums meet at few distinct block sums, and the union
of their lattices is one cached table per (n, k).  Every stacked evaluation takes
blocks of at most _CHUNK = 1024 real rows or _CHUNK // 2 complex ones, so a
pencil's working set is O(1024 n^2) doubles (1.6 MB at n = 14), not
O(2^(n-2) n^2).  Every tuple stays under POLARIZATION_CAP slots and every
table under LATTICE_CELL_BUDGET, the one size rule of supports, dense
expansions and log-concavity profiles.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    HyperpolyError,
    InvalidDocumentError,
)
from .oracle import (
    POSITIVE,
    DeterminantalPolynomial,
    HyperbolicOracle,
    cone_membership,
    dense_oracle,
    evaluate_batch,
)
from .report import Report


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first LP: the import costs more than most commands."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


# Polarization sums 2^(n-2) complex evaluations, or 2^(n-2-k) when k slots come in closed form; anything
# past this is not desk scale.
POLARIZATION_CAP = 20
# Real rows per stacked evaluation, so that a pencil's temporaries stay O(_CHUNK * n^2) doubles however
# many rows are summed: 1.6 MB at n = 14, 3.3 MB at the cap.  A complex row takes two doubles per entry,
# so the kernel's blocks hold _CHUNK // 2 of them: one call up to n = 11.  A lattice of at most this
# many block sums (support at n = 5 has 591) is one call.
_CHUNK = 1 << 10
# Complex points per block on a closed-form route (``Form.closed_form_slots``), each of which holds
# k + 2 complex n x n matrices: 64 was the fastest of 32, 64 and 128 at n = 12 to 14, and such a block
# takes about 1.6 MB at n = 16 and 2.5 MB at the cap.
_ROUTE_BLOCK = 64

# The lattice table of all compositions of n into k parts has C(n+2k-1, 2k-1)
# points of k block sums each; it is not built past this many cells.  Its build
# and its cached arrays then take a few tens of MB at most.
LATTICE_CELL_BUDGET = 4_000_000

# C(r, j) for 0 <= j, r <= POLARIZATION_CAP, zero where j > r.
_BINOMIALS = np.array([[math.comb(r, j) for j in range(POLARIZATION_CAP + 1)] for r in range(POLARIZATION_CAP + 1)])


def as_tuple(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise DimensionMismatchError("a point tuple must be a 2-d array (points, coordinates)")
    return pts


def _check_slots(n: int) -> None:
    if n > POLARIZATION_CAP:
        raise BudgetExceededError(f"polarization over {n} slots exceeds the 2^{POLARIZATION_CAP} cap")


def _tuple_evaluator(oracle: HyperbolicOracle, points: np.ndarray, n: int):
    """The map from rows c, shape (N, k), real block sums or complex points, to p(c @ points) for the
    k points, through the form that ``tuple_form`` returns for them, which contracts a determinantal
    pencil once per tuple; refuses more than POLARIZATION_CAP slots.  Identity coordinates, as a
    pencil's tuple form has, are not multiplied: the rows are already the form's points, and the
    product would only copy them."""
    _check_slots(n)
    form, coords = oracle.form.tuple_form(points)
    # Only evaluated, so the direction is a placeholder.
    tuple_oracle = HyperbolicOracle(form=form, n=n, m=coords.shape[1], direction=np.ones(coords.shape[1]))
    if coords.shape[0] == coords.shape[1] and np.array_equal(coords, np.eye(coords.shape[0])):
        return lambda sums: evaluate_batch(tuple_oracle, sums)
    return lambda sums: evaluate_batch(tuple_oracle, sums @ coords)


def _sign_sum(evaluate, slots: int, block: int) -> Optional[float]:
    """2^-(s-2) * sum over b in {+-1}^(s-2) of prod(b) * Im of evaluate at the complex row
    (i, b_1, ..., b_(s-2), 1) over s slots, b_1 varying fastest, in blocks of this many rows summed in a
    fixed order; None as soon as evaluate refuses a block."""
    middle = max(slots - 2, 0)
    shifts = np.arange(middle, dtype=np.int64)
    count = 1 << middle
    total = 0.0
    for start in range(0, count, block):
        idx = np.arange(start, min(start + block, count), dtype=np.int64)
        middle_signs = 1.0 - 2.0 * ((idx[:, None] >> shifts[None, :]) & 1)
        signs = np.ones((len(idx), slots), dtype=complex)
        signs[:, 0] = 1j
        signs[:, 1 : slots - 1] = middle_signs
        values = evaluate(signs)
        if values is None:
            return None
        total += float(np.dot(values.imag, middle_signs.prod(axis=1)))
    return total * 0.5**middle


def _polarization(oracle: HyperbolicOracle, points: np.ndarray) -> float:
    """Polarized multilinear value: the coefficient of t_1 ... t_n in p(sum_i t_i x_i).

    With k slots D taken in closed form (``Form.closed_form_slots``), q = the mixed derivative of p along
    the x_d, d in D, is a form of degree s = n - k whose mixed value at the other s points is M, and
    M = 2^-(s-2) * sum over b in {+-1}^(s-2) of prod(b) * Im q(i y_1 + b_1 y_2 + ... + b_(s-2) y_(s-1) + y_s)
    over those points y.  Summing q(i y_1 + sum_(j>1) c_j y_j) * prod(c) over every real sign vector c
    keeps the monomials odd in each of the last s - 1 slots; at total degree s those are linear in the
    first, so the sum is 2^(s-1) i M.  The term of c with c_s = -1 is minus the conjugate of the term of
    -c, since q(-y) = (-1)^s q(y) and q(conj z) = conj q(z), so the two have one imaginary part: only
    c_s = +1 is evaluated and the imaginary parts are doubled.  At s = 1 the one point gives
    Im q(i y_1) = q(y_1).  A route sums blocks of _ROUTE_BLOCK points.  With no closed slots, or when
    the route refuses a block, q is p, through ``_tuple_evaluator``, at 2^(n-2) points in blocks of
    _CHUNK // 2.  The blocks are summed in a fixed order, so results are bitwise reproducible.
    """
    n = points.shape[0]
    _check_slots(n)
    route = oracle.form.closed_form_slots(points)
    if route is not None:
        closed, derivative = route
        total = _sign_sum(derivative, n - closed, _ROUTE_BLOCK)
        if total is not None:
            return total
    return _sign_sum(_tuple_evaluator(oracle, points, n), n, _CHUNK // 2)


def mixed_value(oracle: HyperbolicOracle, points) -> float:
    """Fully polarized multilinear form of p applied to an n-point tuple.

    Symmetric under permutations of the tuple and multilinear in every slot;
    at (x, ..., x) it equals n! p(x).
    """
    pts = as_tuple(points)
    if pts.shape[0] != oracle.n:
        raise DimensionMismatchError(f"tuple has {pts.shape[0]} points, oracle degree is {oracle.n}")
    if pts.shape[1] != oracle.m:
        raise DimensionMismatchError(f"points have dimension {pts.shape[1]}, oracle expects {oracle.m}")
    return _polarization(oracle, pts)


def mixed_discriminant(matrices) -> float:
    """D(A_1, ..., A_n): the n-fold mixed partial of det(sum_i x_i A_i) at the tuple.

    Computed by the same polarization applied directly to the determinant: at
    2^(n-5) complex points from n = 10 on when one A_i is positive definite
    and the closed form does not cancel too deeply, at 2^(n-2) otherwise.
    No normalization of the tuple is needed since the form is multilinear.
    """
    mats = np.asarray(matrices, dtype=float)
    if mats.ndim != 3 or mats.shape[0] != mats.shape[1] or mats.shape[1] != mats.shape[2]:
        raise DimensionMismatchError("mixed discriminant needs n symmetric matrices of size n x n")
    n = mats.shape[0]
    # The pencil is left unnormalized (M(e) = I need not hold): only its
    # determinant is evaluated, at the complex points, which the identity rows
    # map to themselves exactly.
    oracle = HyperbolicOracle(form=DeterminantalPolynomial(pencil=mats), n=n, m=n, direction=np.ones(n))
    return _polarization(oracle, np.eye(n))


def repeated_tuple(points, multiplicities) -> np.ndarray:
    """The tuple holding multiplicities[i] copies of points[i], in order."""
    pts = as_tuple(points)
    reps = np.asarray(multiplicities, dtype=np.int64)
    if reps.ndim != 1 or reps.shape[0] != pts.shape[0]:
        raise DimensionMismatchError("one multiplicity per point is required")
    if np.any(reps < 0):
        raise InvalidDocumentError("multiplicities must be nonnegative")
    return np.repeat(pts, reps, axis=0)


@dataclass(frozen=True, slots=True)
class SupportSet(Report):
    """Compositions with strictly positive mixed value, plus the values themselves."""

    members: tuple[tuple[int, ...], ...]
    values: dict
    threshold: float

    # The wire format pairs each member with its value; JSON keys cannot be tuples.
    def to_json(self) -> dict:
        return {"support": [{"r": list(r), "value": self.values[r]} for r in self.members]}


def _composition_array(total: int, parts: int) -> np.ndarray:
    """Every composition of total into the given number of parts, one per int8 row, in lexicographic order."""
    heads, parents = [], []
    left = np.array([total])
    for _ in range(parts - 1):
        # Each prefix branches into one prefix per value 0..left of its next part.
        branches = left + 1
        parent = np.repeat(np.arange(len(left)), branches)
        head = np.arange(len(parent)) - np.repeat(np.cumsum(branches) - branches, branches)
        heads.append(head)
        parents.append(parent)
        left = left[parent] - head
    # Each column is read off the row's ancestor at that depth, so no row prefix is copied.
    rows = np.empty((len(left), parts), dtype=np.int8)
    rows[:, -1] = left
    node = np.arange(len(left))
    for col in range(parts - 2, -1, -1):
        rows[:, col] = heads[col][node]
        node = parents[col][node]
    return rows


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an int8 array, ordered as byte strings (so lexicographically when no entry
    is negative), and the position of each row among them."""
    k = rows.shape[1]
    distinct, index = np.unique(np.ascontiguousarray(rows).view(np.dtype((np.void, k))).ravel(), return_inverse=True)
    return distinct.view(np.int8).reshape(-1, k), index.ravel()


class _SumLattice(NamedTuple):
    """The polarization sums of every composition r of n into k parts, over one set of block sums.

    Lattice point e of composition ``keys[owner[e]]`` adds ``weight[e] * p(sums[index[e]] @ points)``
    to that composition's sum of 2^n sign terms.  The arrays are read-only, as the table is cached.
    """

    keys: tuple  # the compositions, as tuples in lexicographic order
    sums: np.ndarray  # (S, k) int8, the distinct block sums c, one of each pair c, -c
    owner: np.ndarray
    index: np.ndarray
    weight: np.ndarray


@functools.lru_cache(maxsize=8)
def _composition_lattice(n: int, k: int) -> _SumLattice:
    """The polarization sums of all compositions of n into k parts, built at once.

    Over the r_i copies of point i, the sign vectors with j_i minus signs all
    land on the block sum c_i = r_i - 2 j_i, and there are C(r_i, j_i) of
    them, each with sign (-1)^{j_i}.  So the sign sum of composition r runs
    over the lattice 0 <= j <= r, in lexicographic order, with weights
    prod_i (-1)^{j_i} C(r_i, j_i): C(n+2k-1, 2k-1) points over all r, refused
    past LATTICE_CELL_BUDGET cells.  Compositions share block sums, so one
    ``np.unique`` over all c gives the rows to evaluate.  A c whose first
    nonzero entry is negative is folded onto -c with its weight times
    (-1)^n, since p(-y) = (-1)^n p(y).
    """
    size = math.comb(n + 2 * k - 1, 2 * k - 1)
    if size * k > LATTICE_CELL_BUDGET:
        raise BudgetExceededError(f"a lattice of {size} block sums of {k} points exceeds the lattice cell budget")
    comps = _composition_array(n, k)
    radix = comps + 1
    counts = np.prod(radix, axis=1, dtype=np.int64)
    owner = np.repeat(np.arange(len(comps), dtype=np.int32), counts)
    # The position of each point in its composition's lattice, decoded in mixed radix, j_k fastest.
    place = np.arange(size) - np.repeat(np.cumsum(counts) - counts, counts)
    sums = np.empty((size, k), dtype=np.int8)
    weight = np.ones(size)
    odd = np.zeros(size, dtype=bool)
    for i in range(k - 1, -1, -1):
        reps, base = comps[owner, i], radix[owner, i]
        minus = place % base
        place //= base
        sums[:, i] = reps - 2 * minus
        weight *= _BINOMIALS[reps, minus]
        odd ^= (minus & 1).astype(bool)
    flip = sums[np.arange(size), np.argmax(sums != 0, axis=1)] < 0
    np.negative(sums, out=sums, where=flip[:, None])
    weight[odd ^ (flip & bool(n & 1))] *= -1.0
    distinct, index = _unique_rows(sums)
    lattice = _SumLattice(tuple(map(tuple, comps.tolist())), distinct, owner, index.astype(np.int32), weight)
    for table in lattice[1:]:
        table.setflags(write=False)
    return lattice


def _composition_values(oracle: HyperbolicOracle, points: np.ndarray) -> tuple[tuple, np.ndarray, float]:
    """The compositions r of n into k parts in lexicographic order, the mixed value of the k points
    repeated r times for each, and the largest |p| seen: every block sum that some composition
    needs is evaluated once, in chunks, and the weighted values are summed per composition."""
    # The evaluator refuses more than POLARIZATION_CAP slots, the size of the binomial table the lattice reads.
    evaluate = _tuple_evaluator(oracle, points, oracle.n)
    lattice = _composition_lattice(oracle.n, points.shape[0])
    vals = np.empty(len(lattice.sums))
    for start in range(0, len(vals), _CHUNK):
        vals[start : start + _CHUNK] = evaluate(lattice.sums[start : start + _CHUNK].astype(float))
    totals = np.bincount(lattice.owner, weights=lattice.weight * vals[lattice.index], minlength=len(lattice.keys))
    return lattice.keys, totals * 0.5**oracle.n, float(np.max(np.abs(vals)))


def _all_mixed_values(oracle: HyperbolicOracle, points: np.ndarray) -> tuple[dict, float]:
    """The mixed value of the k points repeated r times, for every composition r of n into k
    parts, and the largest |p| seen."""
    keys, values, peak = _composition_values(oracle, points)
    return dict(zip(keys, values.tolist())), peak


def support(oracle: HyperbolicOracle, points) -> SupportSet:
    """All compositions r with mixed value of the repeated tuple above the noise floor.

    The cutoff is 1e-9 * n! * max(1, peak evaluation magnitude): polarization
    loses about 2^n * eps of relative accuracy to cancellation, so values
    below that cannot be distinguished from zero.  Every composition's value
    comes from one stacked evaluation of the distinct block sums that the
    compositions share, and the peak is the largest |p| over them, the same
    set of values as over every sign vector of every composition.
    """
    return _support_and_values(oracle, points)[0]


def _support_and_values(oracle: HyperbolicOracle, points) -> tuple[SupportSet, dict]:
    """The support above the noise floor, and the mixed value of every composition."""
    pts = as_tuple(points)
    if pts.shape[0] != oracle.n:
        raise DimensionMismatchError("support enumeration expects an n-point tuple")
    values, peak = _all_mixed_values(oracle, pts)
    threshold = 1e-9 * math.factorial(oracle.n) * max(1.0, peak)
    members = tuple(r for r in sorted(values) if values[r] > threshold)
    return SupportSet(members=members, values={r: values[r] for r in members}, threshold=threshold), values


def polytope_membership(r, support_set: SupportSet) -> bool:
    """Is r in the convex hull of the support's members?  Decided by linear feasibility.

    Solves for convex weights on the support members reproducing r; the sizes
    here are tiny, so the LP answer is effectively exact.
    """
    members = support_set.members
    if not members:
        raise InvalidDocumentError("empty support has no polytope")
    target = np.asarray(r, dtype=float)
    mat = np.asarray(members, dtype=float)
    if target.shape != (mat.shape[1],):
        raise DimensionMismatchError("composition length does not match the support")
    a_eq = np.vstack([mat.T, np.ones((1, mat.shape[0]))])
    b_eq = np.concatenate([target, [1.0]])
    res = linprog(np.zeros(mat.shape[0]), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise HyperpolyError(f"membership LP terminated abnormally: {res.message}")


@dataclass(frozen=True, slots=True)
class SaturationReport(Report):
    saturated: bool
    violations: tuple[tuple[int, ...], ...]
    support: SupportSet

    # The wire format puts the support's member list next to the verdict instead of nesting it.
    def to_json(self) -> dict:
        doc = Report.to_json(self)
        doc.update(doc.pop("support"))
        return doc


def _unseparated(zeros: list, members) -> list:
    """The compositions in ``zeros`` that no subset inequality puts outside the hull of ``members``.

    For every coordinate subset S, r(S) <= f(S) = max over members x of x(S)
    holds on the convex hull, so a composition breaking one lies outside it.
    When the support is M-convex, as for stable polynomials (Branden 2007),
    the hull is the base polyhedron of f and every zero composition is
    separated.
    """
    if not zeros:
        return []
    k = len(members[0])
    subsets = (np.arange(1 << k, dtype=np.int64)[:, None] >> np.arange(k, dtype=np.int64)) & 1
    bound = (np.asarray(members, dtype=np.int64) @ subsets.T).max(axis=0)
    inside = np.all(np.asarray(zeros, dtype=np.int64) @ subsets.T <= bound, axis=1)
    return [r for r, keep in zip(zeros, inside) if keep]


def newton_saturation_check(oracle: HyperbolicOracle, points) -> SaturationReport:
    """Are all integer points of the Newton polytope already in the support?

    Every composition inside the convex hull of the support whose own mixed
    value sits at zero is reported as a violation; an empty list means the
    saturation property holds for this instance.  Subset inequalities rule
    compositions out first; only those left go to the membership LP.
    """
    sup, values = _support_and_values(oracle, points)
    violations = []
    if sup.members:
        zeros = [r for r in sorted(values) if r not in sup.values]
        violations = [r for r in _unseparated(zeros, sup.members) if polytope_membership(r, sup)]
    return SaturationReport(saturated=not violations, violations=tuple(violations), support=sup)


def alexandrov_fenchel_terms(oracle: HyperbolicOracle, points) -> tuple[float, float, float]:
    """The three mixed values (M(x1,x2,Y), M(x1,x1,Y), M(x2,x2,Y)) sharing the tail Y."""
    pts = as_tuple(points)
    if pts.shape[0] != oracle.n or oracle.n < 2:
        raise DimensionMismatchError("need an n-point tuple with n >= 2")
    tail = pts[2:]
    m_ab = mixed_value(oracle, pts)
    m_aa = mixed_value(oracle, np.vstack([pts[0], pts[0], tail]))
    m_bb = mixed_value(oracle, np.vstack([pts[1], pts[1], tail]))
    return m_ab, m_aa, m_bb


def alexandrov_fenchel_verdict(oracle: HyperbolicOracle, points) -> dict:
    """The Alexandrov-Fenchel residual M(x1,x2,Y)^2 - M(x1,x1,Y) M(x2,x2,Y), nonnegative on
    e-nonnegative tuples; its scale max(1, M(x1,x2,Y)^2, |M(x1,x1,Y) M(x2,x2,Y)|); and whether the
    residual clears -1e-9 * scale.  A tuple with a point outside the closed cone is evaluated all the
    same, and its residual may then be negative."""
    m_ab, m_aa, m_bb = alexandrov_fenchel_terms(oracle, points)
    residual = m_ab * m_ab - m_aa * m_bb
    scale = max(1.0, m_ab * m_ab, abs(m_aa * m_bb))
    return {"residual": residual, "scale": scale, "holds": bool(residual >= -1e-9 * scale)}


def log_concavity_profile(oracle: HyperbolicOracle, x, y) -> np.ndarray:
    """M(i) = mixed value with i copies of x and n-i copies of y, i = 0..n.

    For x, y strictly inside the cone the profile is positive and log-concave:
    M(i)^2 >= M(i-1) M(i+1), which is the discrete statement behind concavity
    of log p on the cone.  All n + 1 values come from one stacked evaluation
    at the distinct block sums c_x x + c_y y that the compositions share.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if cone_membership(oracle, x) != POSITIVE or cone_membership(oracle, y) != POSITIVE:
        raise InvalidDocumentError("both points must be strictly inside the cone")
    # The compositions (i, n - i) of n into two parts, in lexicographic order.
    return _composition_values(oracle, np.vstack([x, y]))[1]


def dense_from_oracle(oracle: HyperbolicOracle) -> HyperbolicOracle:
    """Expand any oracle into dense form via polarization at basis tuples.

    The coefficient of x^r is the mixed value of the basis tuple repeated with
    multiplicities r, divided by prod(r_i!); the enumeration is the support's,
    under the same LATTICE_CELL_BUDGET.  The block sums of the basis tuple
    are the integer points c with |c|_1 <= n and |c|_1 = n mod 2, one of each
    pair c, -c: 172 evaluations for n = 7, m = 3, where one sign sum per
    composition takes 2,304.
    """
    values, _ = _all_mixed_values(oracle, np.eye(oracle.m))
    terms = {r: val / math.prod(map(math.factorial, r)) for r, val in values.items()}
    cutoff = 1e-13 * max(1.0, *(abs(c) for c in terms.values()))
    kept = {r: c for r, c in terms.items() if abs(c) > cutoff}
    return dense_oracle(oracle.m, oracle.n, kept, oracle.direction)


def brute_force_permanent(matrix) -> float:
    """Permanent by summation over all n! permutations; reference oracle only."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("permanent needs a square matrix")
    n = a.shape[0]
    if n > 9:
        raise BudgetExceededError("brute-force permanent capped at n = 9")
    rows = np.arange(n)
    return float(sum(np.prod(a[rows, perm]) for perm in itertools.permutations(range(n))))
