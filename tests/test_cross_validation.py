"""Independent-route checks against symbolic differentiation and a second optimizer.

These tests recompute core quantities through tools none of the library code
touches (sympy expansion / differentiation, scipy's general-purpose
minimizer) so agreement is meaningful evidence rather than an identity.
"""

import math

import numpy as np
import pytest
import sympy
from scipy import optimize

import hyperpoly as hp
from hyperpoly import generators as gen
from references import partial_derivative


def sympy_det_polynomial(mats):
    """det(sum_i a_i A_i) as a sympy expression in a_0..a_{k-1}."""
    k = len(mats)
    symbols = sympy.symbols(f"a0:{k}")
    n = mats[0].shape[0]
    entries = [
        [sum(symbols[i] * sympy.Float(mats[i][r, c], 17) for i in range(k)) for c in range(n)]
        for r in range(n)
    ]
    return sympy.Matrix(entries).det(), symbols


class TestSymbolicMixedPartials:
    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_discriminant_is_the_mixed_partial(self, seed):
        rng = np.random.default_rng(seed)
        mats = [gen.random_psd_matrix(rng, 3) for _ in range(3)]
        expr, symbols = sympy_det_polynomial(mats)
        for s in symbols:
            expr = sympy.diff(expr, s)
        symbolic = float(sympy.expand(expr))
        assert hp.mixed_discriminant(mats) == pytest.approx(symbolic, rel=1e-9)

    def test_mixed_value_against_symbolic_coefficient(self):
        # The coefficient of a0*a1*a2 in det(sum a_i A_i) equals the mixed
        # value; polarization must reproduce it.
        rng = np.random.default_rng(5)
        mats = [gen.random_psd_matrix(rng, 3) for _ in range(3)]
        expr, symbols = sympy_det_polynomial(mats)
        coeff = sympy.expand(expr).coeff(symbols[0]).coeff(symbols[1]).coeff(symbols[2])
        oracle, pts = gen.matrix_tuple_points(mats)
        scale = oracle.metadata["gram_determinant"]
        assert scale * hp.mixed_value(oracle, pts) == pytest.approx(float(coeff), rel=1e-9)


class TestSymbolicRestriction:
    @pytest.mark.parametrize("seed", range(3))
    def test_interpolated_coefficients_match_expansion(self, seed):
        rng = np.random.default_rng(seed)
        base = gen.random_determinantal_oracle(rng, 3, 2)
        dense = hp.dense_from_oracle(base)
        x = rng.standard_normal(2)
        d = rng.standard_normal(2)
        t = sympy.Symbol("t")
        expr = sympy.Integer(0)
        for exps, coef in zip(dense.form.exponents, dense.form.coefficients):
            term = sympy.Float(coef, 17)
            for j, e in enumerate(exps):
                term *= (sympy.Float(x[j], 17) + t * sympy.Float(d[j], 17)) ** int(e)
            expr += term
        symbolic = sympy.Poly(sympy.expand(expr), t).all_coeffs()[::-1]
        symbolic = np.asarray([float(c) for c in symbolic])
        symbolic = np.pad(symbolic, (0, 4 - symbolic.size))
        got = hp.univariate_restriction(dense, x, d)
        assert got == pytest.approx(symbolic, rel=1e-8, abs=1e-9)

    def test_dense_partial_derivative_symbolically(self):
        rng = np.random.default_rng(7)
        base = gen.random_determinantal_oracle(rng, 3, 3)
        dense = hp.dense_from_oracle(base)
        symbols = sympy.symbols("a0:3")
        expr = sum(
            sympy.Float(c, 17) * symbols[0] ** int(e[0]) * symbols[1] ** int(e[1]) * symbols[2] ** int(e[2])
            for e, c in zip(dense.form.exponents, dense.form.coefficients)
        )
        alpha = rng.uniform(0.3, 1.5, 3)
        subs = dict(zip(symbols, [sympy.Float(v, 17) for v in alpha]))
        for i in range(3):
            symbolic = float(sympy.diff(expr, symbols[i]).subs(subs))
            assert partial_derivative(dense, alpha, i) == pytest.approx(symbolic, rel=1e-9)


class TestIndependentCapacityOptimizer:
    @pytest.mark.parametrize("seed", range(4))
    def test_capacity_matches_general_purpose_minimizer(self, seed):
        # Reduced coordinates: a_k = -(a_1 + ... + a_{k-1}) keeps the product
        # of weights at one, and scipy minimizes the same log objective with
        # no knowledge of traces.
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3
        if seed % 2 == 0:
            oracle = gen.symmetric_matrix_oracle(n)
            pts = gen.positive_point_tuple(oracle, rng, n)
        else:
            oracle, pts = gen.positive_product_tuple(rng, n)

        def objective(reduced):
            a = np.concatenate([reduced, [-np.sum(reduced)]])
            return math.log(hp.evaluate(oracle, np.exp(a) @ pts))

        res = optimize.minimize(objective, np.zeros(n - 1), method="Nelder-Mead",
                                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
        independent = math.exp(res.fun)
        ours = hp.capacity(oracle, pts, tol=1e-9).value
        assert ours == pytest.approx(independent, rel=1e-6)
        assert ours <= independent * (1 + 1e-9)
