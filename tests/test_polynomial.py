from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmax.polynomial import IntPolynomial6
from gaussmax.verify import (
    base_row_poly_literal,
    base_row_value_at,
    euler_row_poly,
    polynomial_identity,
    quad_combination_poly,
    triangle_factor_poly,
)

exponents = st.tuples(*([st.integers(0, 3)] * 6))
small_polys = st.dictionaries(exponents, st.integers(-9, 9), max_size=6).map(IntPolynomial6)
rationals = st.fractions(min_value=-2, max_value=2)


class TestRing:
    @settings(max_examples=50, deadline=None)
    @given(small_polys, small_polys)
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @settings(max_examples=50, deadline=None)
    @given(small_polys, small_polys)
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @settings(max_examples=30, deadline=None)
    @given(small_polys, small_polys, small_polys)
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=50, deadline=None)
    @given(small_polys)
    def test_subtraction_cancels(self, p):
        assert (p - p).is_zero()

    @settings(max_examples=30, deadline=None)
    @given(small_polys, small_polys, st.tuples(*([rationals] * 6)))
    def test_evaluation_is_a_homomorphism(self, p, q, vals):
        assert (p * q).evaluate(vals) == p.evaluate(vals) * q.evaluate(vals)
        assert (p + q).evaluate(vals) == p.evaluate(vals) + q.evaluate(vals)

    def test_canonical_form_drops_zeros(self):
        p = IntPolynomial6({(1, 0, 0, 0, 0, 0): 0, (0, 1, 0, 0, 0, 0): 2})
        assert p.num_terms() == 1

    def test_degree(self):
        assert IntPolynomial6.zero().degree() == -1
        assert IntPolynomial6.const(3).degree() == 0
        v = IntPolynomial6.variable(2)
        assert (v * v * v).degree() == 3


class TestBalanceIdentity:
    def test_literal_transcription_matches_generated_row(self):
        assert base_row_poly_literal() == euler_row_poly(0)

    def test_all_six_rows_expand_to_zero(self):
        for pair in range(6):
            assert euler_row_poly(pair).is_zero()

    def test_report_passes(self):
        rep = polynomial_identity()
        assert rep.passed
        assert rep.worst_margin == 0.0

    def test_dropping_last_product_leaves_low_degree_remainder(self):
        # removing one summand of a vanishing sum must leave its negation
        k, l = 0, 1
        m, n = 2, 3
        one_minus_f = IntPolynomial6.const(1) - IntPolynomial6.variable(5)
        d1 = triangle_factor_poly((k, l, m))
        d2 = triangle_factor_poly((k, l, n))
        last_term = 2 * (one_minus_f * (d1 * d2))
        partial = euler_row_poly(0) + last_term
        assert not partial.is_zero()
        assert partial == last_term
        assert partial.degree() <= 5

    def test_unexpanded_expression_vanishes_at_random_rationals(self, rng):
        for _ in range(100):
            vals = [Fraction(int(a), int(b)) for a, b in
                    zip(rng.integers(-8, 9, size=6), rng.integers(1, 9, size=6))]
            assert base_row_value_at(vals) == 0

    def test_quad_combination_poly_matches_numeric(self, battery20):
        from itertools import combinations

        from gaussmax.corrmat import derive, triangle_factor

        for m in battery20[:3]:
            vals = [Fraction(v).limit_denominator(10**12) for v in m.offdiag]
            approx = [float(quad_combination_poly(t).evaluate(vals)) for t in range(6)]
            exact = list(derive(m).lambda_tilde)
            for tri in combinations(range(4), 3):
                approx.append(float(triangle_factor_poly(tri).evaluate(vals)))
                exact.append(triangle_factor(1.0 - m.array(), tri))
            for a, b in zip(approx, exact):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9)
