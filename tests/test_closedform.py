import dataclasses
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import F_IID3, F_IID4, F_STAR
from test_corrmat import EDGE_ROWS, REFERENCE, UNIT_PAIR_ROWS, unit_vectors

import gaussmax
from gaussmax import closedform, corrmat, geometry

from gaussmax.closedform import (
    COPLANAR_BOUND,
    QuadrantIntegralParams,
    f_max,
    f_max3,
    gradient,
    gradient_of,
    hessian,
    quadrant_integral,
    value_of,
)
from gaussmax.corrmat import PAIRS, CorrelationMatrix4, DomainTag, derive
from gaussmax.montecarlo import estimate_max

SQRT_PI3 = np.sqrt(np.pi**3)
ACOS_THIRD = np.arccos(-1.0 / 3.0)


def fd_gradient(m, h=1e-5):
    g = np.empty(6)
    off = m.array()
    for t in range(6):
        up, dn = off.copy(), off.copy()
        up[t] += h
        dn[t] -= h
        g[t] = (f_max(CorrelationMatrix4(tuple(up))) - f_max(CorrelationMatrix4(tuple(dn)))) / (2 * h)
    return g


def fd_hessian(m, h=1e-4):
    hess = np.empty((6, 6))
    off = m.array()
    for t in range(6):
        up, dn = off.copy(), off.copy()
        up[t] += h
        dn[t] -= h
        hess[:, t] = (
            gradient(CorrelationMatrix4(tuple(up))) - gradient(CorrelationMatrix4(tuple(dn)))
        ) / (2 * h)
    return hess


class TestFMax:
    def test_equicorrelated_optimum(self):
        v = f_max(CorrelationMatrix4.equicorrelated(-1.0 / 3.0))
        assert v == pytest.approx(3 * np.sqrt(4.0 / 3.0) * ACOS_THIRD / SQRT_PI3, rel=1e-14)
        assert round(v, 5) == 1.18862

    def test_all_ones_is_zero(self):
        assert f_max(CorrelationMatrix4.equicorrelated(1.0)) == 0.0

    def test_identity_is_iid_max(self):
        # 4 iid standard normals; also cross-checked by Monte Carlo below
        v = f_max(CorrelationMatrix4.identity())
        assert v == pytest.approx(3 * ACOS_THIRD / SQRT_PI3, rel=1e-14)
        assert v == pytest.approx(F_IID4, rel=1e-12)

    def test_single_unit_pair_reduces_to_three_variables(self):
        m = CorrelationMatrix4((0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
        assert f_max(m) == pytest.approx(F_IID3, rel=1e-14)

    def test_two_unit_pairs(self):
        # X1 == X2 and X3 == X4, the two pairs independent
        m = CorrelationMatrix4((1.0, 0.0, 0.0, 0.0, 0.0, 1.0))
        assert f_max(m) == pytest.approx(np.sqrt(1.0 / np.pi), rel=1e-12)

    def test_equal_correlation_closed_form(self):
        for r in (-1.0 / 3.0, -0.2, 0.0, 0.35, 0.8, 0.999, 1.0):
            v = f_max(CorrelationMatrix4.equicorrelated(r))
            assert v == pytest.approx(3 * np.sqrt(1 - r) * ACOS_THIRD / SQRT_PI3,
                                      rel=1e-12, abs=1e-12)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            f_max(CorrelationMatrix4.equicorrelated(-0.5))

    def test_monotone_decreasing_in_each_correlation(self, battery20):
        # lowering any single correlation (keeping feasibility) raises the value
        for m in battery20[:5]:
            base = f_max(m)
            for t in range(6):
                off = m.array()
                off[t] -= 1e-3
                m2 = CorrelationMatrix4(tuple(off))
                assert f_max(m2) > base

    def test_permutation_invariance(self, rng, battery20):
        for m in battery20[:5]:
            perm = rng.permutation(4)
            assert f_max(m.permuted(perm)) == pytest.approx(f_max(m), rel=1e-12)

    def test_continuity_into_the_unit_pair_set(self):
        # along corr_14 = 1 - eps the value approaches the 3-variable formula
        # like sqrt(eps); the sqrt-extrapolated limit lands on it
        def path(eps):
            return f_max(CorrelationMatrix4((0.0, 0.0, 1.0 - eps, 0.0, 0.0, 0.0)))

        target = f_max3(0.0, 0.0, 0.0)
        e1, e2 = path(1e-3), path(1e-5)
        assert abs(e2 - target) < abs(e1 - target)
        extrapolated = (10 * e2 - e1) / 9  # exact for f = target + a*sqrt(eps)
        assert extrapolated == pytest.approx(target, abs=1e-6)

    @pytest.mark.parametrize("angles", [(0.0, 1e-6, 2.0, 2.0 + 1.2e-6),
                                        (0.0, 1e-6, 2.0, 4.0)])
    def test_near_unit_pairs_value_is_label_free(self, angles):
        # unit vectors in R^2 whose close pairs have correlation within
        # EPS_ONE of 1 but not equal to it: two classes, then three
        th = np.array(angles)
        v = np.stack([np.cos(th), np.sin(th)], axis=1)
        m = CorrelationMatrix4.from_matrix(v @ v.T)
        assert derive(m).tag is DomainTag.DEGENERATE_UNIT_PAIR
        values = {f_max(m.permuted(p)) for p in itertools.permutations(range(4))}
        assert len(values) == 1

    def test_coplanar_bound_constant(self):
        assert COPLANAR_BOUND == pytest.approx(2.0 / np.sqrt(np.pi), rel=1e-15)
        assert round(COPLANAR_BOUND, 6) == 1.128379


def clustered_unit_vectors():
    """Strategy: four unit vectors within ``scale`` in [1e-6, 1e-1] of one
    point of R^2, R^3 or R^4, i.e. a small simplex of any rank."""
    coord = st.floats(-1, 1, allow_nan=False, allow_infinity=False)

    def build(dim):
        point = st.lists(coord, min_size=dim, max_size=dim).filter(
            lambda p: np.linalg.norm(p) > 0.1)
        offsets = st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=4, max_size=4)
        return st.tuples(point, offsets, st.floats(1e-6, 1e-1))

    def to_matrix(args):
        point, offsets, scale = args
        p = np.asarray(point) / np.linalg.norm(point)
        a = p + scale * np.asarray(offsets)
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        g = a @ a.T
        return CorrelationMatrix4(tuple(np.clip(g[i, j], -1, 1) for i, j in PAIRS))

    return st.sampled_from([2, 3, 4]).flatmap(build).map(to_matrix)


class TestSmallSimplex:
    """All correlations near 1: the arccos radical scales like (1 - r)^2, so a
    small simplex must not be mistaken for the 0/0 limit of a unit pair."""

    @pytest.mark.parametrize("e", [10.0 ** -k for k in range(2, 11)])
    def test_equicorrelated_value_scales_like_sqrt(self, e):
        m = CorrelationMatrix4.equicorrelated(1.0 - e)
        assert f_max(m) == pytest.approx(np.sqrt(3 * e / 4) * F_STAR, rel=1e-6)
        g = gradient(m)
        assert np.all(np.isfinite(g))
        assert np.all(g < 0)

    @settings(max_examples=200, deadline=None)
    @given(clustered_unit_vectors())
    def test_clustered_vectors_never_raise(self, m):
        assert np.isfinite(f_max(m))
        if derive(m).tag is not DomainTag.DEGENERATE_UNIT_PAIR:
            assert np.all(np.isfinite(gradient(m)))


def spread_unit_vectors(dims=(1, 2, 3, 4), gap=0.0):
    """Strategy: the Gram matrix of four unit vectors in R^d for d in ``dims``,
    so of rank at most max(dims), with the second vector optionally a copy of
    the first (a unit pair).  Two vectors that are not copies have correlation
    at most 1 - ``gap``."""
    coord = st.floats(-1, 1, allow_nan=False, allow_infinity=False)

    def build(dim):
        vec = st.lists(coord, min_size=dim, max_size=dim).filter(lambda p: np.linalg.norm(p) > 0.1)
        return st.tuples(st.lists(vec, min_size=4, max_size=4), st.booleans())

    def to_rows(args):
        rows, unit_pair = args
        a = np.asarray(rows, dtype=float)
        if unit_pair:
            a[1] = a[0]
        return a / np.linalg.norm(a, axis=1, keepdims=True)

    def spread(a):
        return all(np.array_equal(a[i], a[j]) or a[i] @ a[j] <= 1.0 - gap for i, j in PAIRS)

    def to_matrix(a):
        g = a @ a.T
        return CorrelationMatrix4(tuple(np.clip(g[i, j], -1, 1) for i, j in PAIRS))

    rows = st.sampled_from(dims).flatmap(build).map(to_rows)
    return (rows.filter(spread) if gap > 0 else rows).map(to_matrix)


class TestLowRankPermutation:
    """Rank-1/2/3 Grams of spread-out unit vectors: the boundary of the
    elliptope, where the permutation tests on battery20 do not reach.  On a
    singular matrix a_tilde = sqrt(2 det) turns the determinant's rounding
    into an error of order sqrt(eps) in the arccos terms, which sets the
    tolerances; vectors at least 1e-3 apart in correlation keep the gradient's
    1/sqrt(1 - r) factor bounded."""

    @settings(max_examples=300, deadline=None)
    @given(spread_unit_vectors(dims=(1, 2, 3), gap=1e-3), st.permutations(range(4)))
    def test_value_and_gradient_permute(self, m, perm):
        mp = m.permuted(perm)
        v = f_max(m)
        assert np.isfinite(v)
        assert f_max(mp) == pytest.approx(v, rel=1e-7)
        if derive(m).tag is DomainTag.DEGENERATE_UNIT_PAIR:
            return
        g = gradient(m)
        assert np.all(np.isfinite(g))
        src = [PAIRS.index(tuple(sorted((perm[i], perm[j])))) for i, j in PAIRS]
        assert gradient(mp) == pytest.approx(g[src], rel=0, abs=1e-5 * np.max(np.abs(g)))


class TestOneMatrixOnFloats:
    """``value_of`` and ``gradient_of`` evaluate one matrix on Python floats:
    the value and the gradient equal the numpy expressions, bit for bit, so
    the value sums its six terms in numpy's order.  So does the unit-pair
    value, against numpy on each choice of representatives."""

    @staticmethod
    def check(ms):
        for m in ms:
            d = derive(m)
            v = value_of(d)
            assert type(v) is float
            if d.tag is DomainTag.DEGENERATE_UNIT_PAIR:
                assert math.isnan(v)
                continue
            expected = np.sum(np.sqrt(np.clip(d.lambda_prime, 0, None))
                              * d.angles) / (2 * SQRT_PI3)
            assert np.float64(v).tobytes() == expected.tobytes()
            g = gradient_of(d)
            expected = -d.angles / (4 * np.sqrt(np.pi**3 * d.lambda_prime))
            assert g.dtype == expected.dtype and g.tobytes() == expected.tobytes()

    def test_reference_and_edge_rows(self):
        entries = json.loads(REFERENCE.read_text())["entries"]
        self.check([CorrelationMatrix4(tuple(e["offdiag"])) for e in entries]
                   + [CorrelationMatrix4(off) for off in EDGE_ROWS])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 4).flatmap(unit_vectors), min_size=1, max_size=20))
    def test_grams_of_rank_one_to_four(self, ms):
        self.check(ms)

    @staticmethod
    def numpy_unit_pair_value(m):
        """The unit-pair value with numpy on each representative choice, the
        reference for the float evaluation."""
        classes, mat = corrmat._unit_classes(m), m.matrix()
        choices = itertools.product(*classes)
        if len(classes) == 3:
            return max(float(np.sum(np.sqrt(np.clip(1.0 - np.array(sorted(
                (mat[a, b], mat[a, c], mat[b, c]))), 0.0, None))) / (2 * np.sqrt(np.pi)))
                for a, b, c in choices)
        if len(classes) == 2:
            return max(float(np.sqrt(max(1.0 - mat[a, b], 0.0) / np.pi)) for a, b in choices)
        return 0.0

    @classmethod
    def check_unit_pairs(cls, ms):
        for m in ms:
            assert derive(m).tag is DomainTag.DEGENERATE_UNIT_PAIR
            v = f_max(m)
            assert type(v) is float and v.hex() == cls.numpy_unit_pair_value(m).hex()

    def test_unit_pair_rows_equal_numpy(self):
        entries = json.loads(REFERENCE.read_text())["entries"]
        rows = UNIT_PAIR_ROWS + [e["offdiag"] for e in entries if e["cls"] == "unit_pair"]
        self.check_unit_pairs([CorrelationMatrix4(tuple(off)) for off in rows])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 4).flatmap(unit_vectors), st.integers(0, 2))
    def test_unit_pair_grams_equal_numpy(self, m, k):
        # vertex 4 repeats vertex k + 1, so the matrix has a unit pair
        g = m.matrix()
        g[3], g[:, 3] = g[k], g[:, k]
        self.check_unit_pairs([CorrelationMatrix4(tuple(g[i, j] for i, j in PAIRS))])


class TestSinglePass:
    """One classification, hence one eigvalsh, per public call, and one for
    all of them in a row on one matrix object."""

    @pytest.fixture()
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        eigvalsh = corrmat.eigvalsh

        def counting(a):
            calls.append(1)
            return eigvalsh(a)

        monkeypatch.setattr(corrmat, "eigvalsh", counting)
        return calls

    @pytest.mark.parametrize("fn", [f_max, gradient, hessian, geometry.dihedrals])
    def test_one_eigvalsh_per_call(self, fn, eigvalsh_calls):
        fn(CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1)))
        assert len(eigvalsh_calls) == 1

    def test_one_eigvalsh_for_calls_in_a_row_on_one_matrix(self, eigvalsh_calls):
        m = CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1))
        for fn in (f_max, gradient, hessian, geometry.dihedrals):
            fn(m)
        assert len(eigvalsh_calls) == 1

    def test_unit_pair_f_max_classifies_without_deriving(self, monkeypatch, eigvalsh_calls):
        def fail(off):
            raise AssertionError("f_max derived a matrix with a unit pair")

        monkeypatch.setattr(corrmat, "_derive", fail)
        # vertices 1 and 4 coincide, the other two are independent of them
        assert f_max(CorrelationMatrix4((0.0, 0.0, 1.0, 0.0, 0.0, 0.0))) == F_IID3
        assert len(eigvalsh_calls) == 1

    @pytest.mark.parametrize("off", [
        (1.0, 0.9, 0.0, -0.9, 0.0, 0.0),   # X1 = X2, yet corr(X1, X3) != corr(X2, X3)
        (1.0, 0.0, 0.0, 0.0, 0.0, 1.5),    # an entry above 1
    ])
    def test_invalid_unit_pair_f_max_raises(self, off):
        with pytest.raises(ValueError, match="^not a correlation matrix$"):
            f_max(CorrelationMatrix4(off))

    def test_value_of_a_unit_pair_is_nan(self):
        # a line-search trial with a unit pair scores NaN, which no Armijo
        # test accepts
        d = derive(CorrelationMatrix4((0.0, 0.0, 1.0, 0.0, 0.0, 0.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(value_of(d))
        with pytest.raises(ValueError, match="correlations != 1"):
            gradient_of(d)


class TestRecordAngles:
    """Value, gradient, Hessian and dihedrals read the record's angles: on a
    record whose angles were halved, each moves as its formula says."""

    def test_formulas_follow_replaced_angles(self, battery20, monkeypatch):
        for m in battery20[:5]:
            d = derive(m)
            r = dataclasses.replace(d, angles=d.angles / 2)
            lp = d.lambda_prime
            assert value_of(r) == pytest.approx(np.sqrt(lp) @ r.angles / (2 * SQRT_PI3),
                                                rel=1e-14)
            np.testing.assert_allclose(gradient_of(r), -r.angles / (4 * np.sqrt(np.pi**3 * lp)),
                                       rtol=1e-14)
            moved = closedform.hessian_of(r) - closedform.hessian_of(d)
            shift = r.angles / (8 * np.sqrt(np.pi**3 * lp**3))
            assert np.all(moved[~np.eye(6, dtype=bool)] == 0.0)
            np.testing.assert_allclose(np.diag(moved), shift, rtol=1e-10)
            monkeypatch.setattr(geometry, "derive", lambda _: r)
            alpha = geometry.dihedrals(m).alpha
            assert alpha.tobytes() == r.angles[list(geometry.EDGE_OF_FACET_PAIR)].tobytes()
            monkeypatch.undo()


class TestFMax3:
    def test_symmetric_optimum(self):
        v = f_max3(-0.5, -0.5, -0.5)
        assert v == pytest.approx(3 * np.sqrt(1.5) / (2 * np.sqrt(np.pi)), rel=1e-14)
        assert round(v, 6) == 1.036482

    def test_all_ones(self):
        assert f_max3(1.0, 1.0, 1.0) == 0.0

    def test_independent(self):
        assert f_max3(0.0, 0.0, 0.0) == pytest.approx(F_IID3, rel=1e-14)

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            f_max3(-0.9, -0.9, -0.9)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            f_max3(bad, 0.0, 0.0)


class TestGradient:
    def test_identity_value(self):
        # all six components equal; argument of arccos is -1/sqrt(9) = -1/3... no:
        # radical = 1*8 + 1 = 9, argument = -1/3
        g = gradient(CorrelationMatrix4.identity())
        expected = -np.arccos(-1.0 / 3.0) / (4 * SQRT_PI3)
        assert np.allclose(g, expected, rtol=1e-14)

    def test_all_negative_on_battery(self, battery20):
        for m in battery20:
            assert np.all(gradient(m) < 0)

    def test_equicorrelated_symmetry(self):
        g = gradient(CorrelationMatrix4.equicorrelated(-1.0 / 3.0))
        assert np.ptp(g) < 1e-14

    def test_matches_finite_differences(self, battery20):
        for m in battery20:
            g = gradient(m)
            fd = fd_gradient(m)
            assert np.max(np.abs(g - fd) / np.abs(fd)) <= 1e-6

    def test_euler_relation_value_from_gradient(self, battery20):
        # value = -2 * sum((1 - corr) * gradient)
        for m in battery20:
            lp = derive(m).lambda_prime
            recon = -2.0 * float(lp @ gradient(m))
            assert recon == pytest.approx(f_max(m), rel=1e-10)

    def test_unit_pair_rejected(self):
        with pytest.raises(ValueError):
            gradient(CorrelationMatrix4((0.0, 0.0, 1.0, 0.0, 0.0, 0.0)))

    def test_permutation_equivariance(self, rng, battery20):
        # relabeling the four coordinates relabels the gradient's pairs
        for m in battery20[:5]:
            perm = rng.permutation(4)
            g = gradient(m)
            gp = gradient(m.permuted(perm))
            for t, (i, j) in enumerate(PAIRS):
                src = PAIRS.index(tuple(sorted((perm[i], perm[j]))))
                assert gp[t] == pytest.approx(g[src], rel=1e-12)


class TestHessian:
    def test_opposite_pair_entry(self, battery20):
        for m in battery20[:5]:
            h = hessian(m)
            at = derive(m).a_tilde
            expected = -1.0 / (2 * SQRT_PI3 * at)
            for s, t in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
                assert h[PAIRS.index(s), PAIRS.index(t)] == pytest.approx(expected, rel=1e-12)

    def test_identity_opposite_pairs(self):
        h = hessian(CorrelationMatrix4.identity())
        assert h[0, 5] == pytest.approx(-1.0 / (2 * SQRT_PI3 * np.sqrt(8.0)), rel=1e-14)

    def test_symmetry(self, battery20):
        for m in battery20:
            h = hessian(m)
            assert np.max(np.abs(h - h.T)) < 1e-15

    def test_matches_finite_differences(self, battery20):
        for m in battery20:
            h = hessian(m)
            fd = fd_hessian(m)
            rel = np.abs(h - fd) / np.maximum(np.abs(fd), 1e-12)
            assert np.max(rel) <= 1e-5

    def test_euler_relation(self, battery20):
        for m in battery20:
            lp = derive(m).lambda_prime
            lhs = hessian(m) @ lp
            rhs = 0.5 * gradient(m)
            assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-8

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            hessian(CorrelationMatrix4.equicorrelated(-1.0 / 3.0))

    def test_one_triangle_factor_per_facet(self, monkeypatch):
        calls = []
        form = closedform.triangle_form

        def counting(a, b, c):
            calls.append((a, b, c))
            return form(a, b, c)

        monkeypatch.setattr(closedform, "triangle_form", counting)
        m = CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1))
        hessian(m)
        lp = derive(m).lambda_prime
        # each facet i < j < k once, on the complements of (i, j), (i, k), (j, k)
        assert calls == [tuple(lp[PAIRS.index(p)] for p in ((i, j), (i, k), (j, k)))
                         for i, j, k in itertools.combinations(range(4), 3)]


class TestQuadrantIntegral:
    def quad_oracle(self, p):
        val, err = integrate.dblquad(
            lambda z, y: np.exp(-(p.a1 * y * y + p.b1 * z * z + 2 * p.c1 * y * z)
                                / (2 * p.scale**2)),
            0, np.inf, 0, np.inf, epsabs=1e-12, epsrel=1e-10,
        )
        return val

    def test_uncorrelated_unit(self):
        assert quadrant_integral(QuadrantIntegralParams(1, 1, 0, 1)) == pytest.approx(
            np.pi / 2, rel=1e-15
        )

    def test_cos_pi_over_4(self):
        v = quadrant_integral(QuadrantIntegralParams(1, 1, np.sqrt(2) / 2, 1))
        assert v == pytest.approx((np.pi / 4) / np.sqrt(0.5), rel=1e-14)

    def test_divergence_at_negative_unit_coupling(self):
        # the integral grows without bound as c1 decreases toward -sqrt(a1*b1)
        # (the quadratic form degenerates along the diagonal) and tends to 1
        # as c1 increases toward +sqrt(a1*b1)
        vals = [quadrant_integral(QuadrantIntegralParams(1, 1, c, 1))
                for c in (0.9999, 0.9, 0.0, -0.9, -0.9999)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 100.0
        assert vals[0] == pytest.approx(1.0, abs=1e-2)

    def test_against_adaptive_quadrature(self, rng):
        for _ in range(8):
            a1, b1 = rng.uniform(0.3, 3.0, 2)
            c1 = rng.uniform(-1, 1) * np.sqrt(a1 * b1) * 0.95
            p = QuadrantIntegralParams(a1, b1, c1, rng.uniform(0.5, 2.0))
            assert quadrant_integral(p) == pytest.approx(self.quad_oracle(p), rel=1e-6)

    def test_example_from_battery(self):
        p = QuadrantIntegralParams(2.0, 3.0, -1.0, 1.5)
        assert quadrant_integral(p) == pytest.approx(self.quad_oracle(p), rel=1e-6)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            QuadrantIntegralParams(1.0, 1.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            QuadrantIntegralParams(-1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            QuadrantIntegralParams(1.0, 1.0, 0.5, 0.0)


class TestMonteCarloAgreement:
    def test_quick_battery(self, battery20):
        # acceptance runs the full 10^7 battery; this is the fast guard
        for m in battery20[:3]:
            est = estimate_max(m, 1_000_000, seed=123)
            assert abs(est.mean - f_max(m)) <= 4 * est.std_error


def test_output_digest_script_runs():
    root = pathlib.Path(__file__).resolve().parents[1]
    src = str(pathlib.Path(gaussmax.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "output_digest.py")],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    families = ["classify", "derive", "f_max", "gradient", "hessian", "dihedrals", "in_a_row",
                "maximize", "embed", "mean_width", "width_transfer", "h_scan", "scans", "shared",
                "sample_factor", "mc_mean_full", "mc_se_full", "mc_mean_singular",
                "mc_se_singular", "cli"]
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == families
    assert all(re.fullmatch(r"\S+ +[0-9a-f]{64}", line) for line in lines)


def test_public_names_resolve_once():
    # a stale or doubled entry in __all__ would only break ``import *``
    names = gaussmax.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(gaussmax, n)] == []
