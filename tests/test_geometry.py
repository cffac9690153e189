import itertools
import json

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import F_STAR
from test_corrmat import REFERENCE

from gaussmax import corrmat, geometry
from gaussmax.closedform import f_max
from gaussmax.corrmat import PAIRS, CorrelationMatrix4, classify, DomainTag
from gaussmax.geometry import (
    EDGE_OF_FACET_PAIR,
    FACET_PAIRS,
    FACETS,
    GAUSSIAN_RADIAL_FACTOR,
    Tetrahedron,
    corr_of,
    dihedrals,
    dihedrals_of,
    embed,
    f_width,
    f_width_inv,
    gamma_det,
    h_func,
    h_func_expanded,
    mean_width,
    stationarity_residual,
)

ACOS_THIRD = np.arccos(-1.0 / 3.0)
# u_i = L_i / sqrt(gamma) on the regular simplex
REGULAR_U = np.sqrt(np.sin(ACOS_THIRD) / ACOS_THIRD)


def reference_rows(stratum):
    """The matrices of one stratum of the reference rows."""
    return [CorrelationMatrix4(tuple(e["offdiag"]))
            for e in json.loads(REFERENCE.read_text())["entries"] if e["stratum"] == stratum]


def random_tetra(rng):
    v = rng.normal(size=(4, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return Tetrahedron(v)


def polar_tetra(t1, t2, t3, t4, t5):
    """Vertex 1 at the pole, vertex 2 in the xz-plane, vertices 3 and 4 by
    polar and azimuthal angles."""
    return Tetrahedron(np.array([
        [0.0, 0.0, 1.0],
        [np.sin(t1), 0.0, np.cos(t1)],
        [np.sin(t2) * np.cos(t4), np.sin(t2) * np.sin(t4), np.cos(t2)],
        [np.sin(t3) * np.cos(t5), np.sin(t3) * np.sin(t5), np.cos(t3)],
    ]))


class TestEmbedding:
    def test_regular(self):
        t = embed(CorrelationMatrix4.equicorrelated(-1.0 / 3.0))
        g = t.vertices @ t.vertices.T
        assert np.allclose(g - np.eye(4) * (1 + 1 / 3), -1 / 3, atol=1e-12)
        assert np.allclose(t.vertices[0], [0, 0, 1])
        assert t.vertices[1][1] == pytest.approx(0.0, abs=1e-12)
        assert t.vertices[1][0] >= 0

    def test_rank4_rejected(self):
        with pytest.raises(ValueError, match="rank 4"):
            embed(CorrelationMatrix4.identity())

    def test_rank_is_read_from_its_own_eigh(self, monkeypatch):
        calls = []
        eigvalsh = corrmat.eigvalsh
        monkeypatch.setattr(corrmat, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        embed(CorrelationMatrix4.equicorrelated(-1.0 / 3.0))
        with pytest.raises(ValueError, match="rank 4"):
            embed(CorrelationMatrix4.identity())
        assert len(calls) == 2  # the classification's, one per call

    def test_rank4_exactly_where_rank_says_so(self):
        from gaussmax.optimize import random_psd

        rng = np.random.default_rng(5)
        ms = [random_psd(rng, dim) for dim in (2, 3, 4) for _ in range(100)]
        ms += [random_psd(rng, 1) for _ in range(100)]
        # -1/3 + 1e-9: smallest eigenvalue 3e-9, above EPS_PSD times the largest
        ms += [CorrelationMatrix4.equicorrelated(r)
               for r in (1.0, 0.5, 0.0, -1.0 / 3.0, -1.0 / 3.0 + 1e-9)]
        # smallest eigenvalue 1.34e-10: interior by the domain rule, though
        # within EPS_PSD times the largest
        ms.append(CorrelationMatrix4((0.9999999949103285, 0.8798789739694715, 0.32940988492868606,
                                      0.8798316835879966, 0.3293749212265394, 0.44390630789271546)))
        for m in ms:
            try:
                v = embed(m).vertices
                rank4 = False
            except ValueError as exc:
                rank4 = "rank 4" in str(exc)
            assert rank4 == (classify(m).tag is DomainTag.INTERIOR_S)
            if not rank4:
                # the convention and the Gram matrix hold at every rank
                assert np.array_equal(v[0], [0.0, 0.0, 1.0])
                assert v[1][1] == 0.0 and v[1][0] >= 0.0
                assert np.max(np.abs(v @ v.T - m.matrix())) <= 1e-12

    def test_rank1_flat(self):
        t = embed(CorrelationMatrix4.equicorrelated(1.0))
        assert np.allclose(t.vertices, t.vertices[0])

    def test_roundtrip_from_random_vertices(self, rng):
        for _ in range(20):
            t = random_tetra(rng)
            m = corr_of(t)
            t2 = embed(m)
            g1 = t.vertices @ t.vertices.T
            g2 = t2.vertices @ t2.vertices.T
            assert np.max(np.abs(g1 - g2)) <= 1e-10

    def test_corr_of_repeated_vertex(self, rng):
        v = rng.normal(size=(4, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v[3] = v[2]
        m = corr_of(Tetrahedron(v))
        assert m.offdiag[PAIRS.index((2, 3))] == 1.0

    def test_polar_parametrization_matches_trig_formulas(self, rng):
        for _ in range(10):
            t1 = rng.uniform(0.2, np.pi - 0.2)
            t2, t3 = rng.uniform(0.2, 2 * np.pi - 0.2, 2)
            t4, t5 = rng.uniform(0.2, np.pi - 0.2, 2)
            m = corr_of(polar_tetra(t1, t2, t3, t4, t5)).matrix()
            assert m[0, 1] == pytest.approx(np.cos(t1), abs=1e-12)
            assert m[0, 2] == pytest.approx(np.cos(t2), abs=1e-12)
            assert m[0, 3] == pytest.approx(np.cos(t3), abs=1e-12)
            assert m[1, 2] == pytest.approx(
                np.sin(t1) * np.sin(t2) * np.cos(t4) + np.cos(t1) * np.cos(t2), abs=1e-12)
            assert m[1, 3] == pytest.approx(
                np.sin(t1) * np.sin(t3) * np.cos(t5) + np.cos(t1) * np.cos(t3), abs=1e-12)
            assert m[2, 3] == pytest.approx(
                np.sin(t2) * np.sin(t3) * np.cos(t4 - t5) + np.cos(t2) * np.cos(t3), abs=1e-12)

    def test_nonunit_vertices_rejected(self):
        with pytest.raises(ValueError):
            Tetrahedron(np.ones((4, 3)))


class TestDihedrals:
    def test_facet_pair_edge_table(self):
        # facet pair <-> the unique shared edge; pins the fixed facet order
        # F1={1,2,3}, F2={1,3,4}, F3={1,2,4}, F4={2,3,4}
        assert FACETS == ((0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3))
        expected = {
            (0, 1): (0, 2),  # alpha_12 <-> edge (1,3)
            (0, 2): (0, 1),  # alpha_13 <-> edge (1,2)
            (0, 3): (1, 2),  # alpha_14 <-> edge (2,3)
            (1, 2): (0, 3),  # alpha_23 <-> edge (1,4)
            (1, 3): (2, 3),  # alpha_24 <-> edge (3,4)
            (2, 3): (1, 3),  # alpha_34 <-> edge (2,4)
        }
        for idx, fp in enumerate(FACET_PAIRS):
            assert PAIRS[EDGE_OF_FACET_PAIR[idx]] == expected[fp]

    def test_regular_all_angles_equal(self):
        m = CorrelationMatrix4.equicorrelated(-1.0 / 3.0)
        ds = dihedrals(m)
        assert np.allclose(ds.alpha, ACOS_THIRD, atol=1e-12)
        ds2 = dihedrals_of(embed(m))
        assert np.allclose(ds2.alpha, ACOS_THIRD, atol=1e-9)

    def test_formula_matches_face_normals(self, rng):
        for _ in range(15):
            t = random_tetra(rng)
            m = corr_of(t)
            if classify(m).tag is DomainTag.DEGENERATE_UNIT_PAIR:
                continue
            a1 = dihedrals(m).alpha
            a2 = dihedrals_of(t).alpha
            assert np.max(np.abs(a1 - a2)) <= 1e-9

    def test_rank3_reference_rows_match_face_normals(self):
        # the record's angles against the normals of the embedded tetrahedron
        rows = reference_rows("boundary/3")
        assert len(rows) == 96
        for m in rows:
            assert np.max(np.abs(dihedrals(m).alpha - dihedrals_of(embed(m)).alpha)) <= 1e-9

    def test_rank2_reference_rows_have_angles_and_width(self):
        # flat tetrahedra: no facet normals, but both routes from the matrix run
        rows = reference_rows("boundary/2")
        assert len(rows) == 64
        for m in rows:
            assert np.all(np.isfinite(dihedrals(m).alpha))
            assert np.isfinite(mean_width(embed(m)))

    def test_coplanar_has_two_zero_outer_angles(self):
        # four distinct points on a great circle: the tetrahedron collapses
        angles = np.array([0.0, 1.1, 2.4, 4.0])
        v = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(4)])
        ds = dihedrals(corr_of(Tetrahedron(v)))
        n_zero = int(np.sum(ds.alpha < 1e-6))
        assert n_zero == 2

    def test_normals_reject_coplanar_points(self, rng):
        # each opposite vertex lies on its facet plane, so no facet normal can
        # be oriented: exactly so on z = 0, up to rounding on a rotated copy
        angles = np.array([0.0, 1.1, 2.4, 4.0])
        v = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(4)])
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
        for points in (v, v @ q.T):
            with pytest.raises(ValueError, match="flat tetrahedron"):
                dihedrals_of(Tetrahedron(points))
        # a repeated vertex: the first failing facet in F1..F4 order is named,
        # and within one facet a degenerate triangle before a flat vertex
        w = random_tetra(rng).vertices
        with pytest.raises(ValueError, match="flat tetrahedron: the vertex opposite facet 1 "):
            dihedrals_of(Tetrahedron(w[[0, 1, 2, 2]]))  # F1 flat, F2 degenerate
        with pytest.raises(ValueError, match="facet 1 is degenerate"):
            dihedrals_of(Tetrahedron(w[[0, 0, 2, 3]]))

    def test_interior_matrix_still_has_dihedrals(self):
        # the formula needs no 3-D realization; interior (rank-4) inputs work
        ds = dihedrals(CorrelationMatrix4.equicorrelated(-0.25))
        assert np.all((ds.alpha > 0) & (ds.alpha < np.pi))

    def test_unit_pair_rejected(self):
        with pytest.raises(ValueError):
            dihedrals(CorrelationMatrix4((0, 0, 1.0, 0, 0, 0)))


class TestLawOfSines:
    """Facet areas against the dihedral angles between facets."""

    def test_law_of_sines(self, rng):
        # |X1X2| Area(F2) / sin(alpha_13) and its two stated analogues agree
        for _ in range(10):
            t = random_tetra(rng)
            v = t.vertices
            try:
                alpha = dihedrals_of(t).alpha
            except ValueError:
                continue
            areas = [0.5 * np.linalg.norm(np.cross(v[b] - v[a], v[c] - v[a]))
                     for a, b, c in FACETS]
            idx = {fp: i for i, fp in enumerate(FACET_PAIRS)}
            r1 = np.linalg.norm(v[1] - v[0]) * areas[1] / np.sin(alpha[idx[(0, 2)]])
            r2 = np.linalg.norm(v[2] - v[0]) * areas[2] / np.sin(alpha[idx[(0, 1)]])
            r3 = np.linalg.norm(v[3] - v[0]) * areas[0] / np.sin(alpha[idx[(1, 2)]])
            assert r2 == pytest.approx(r1, rel=1e-9)
            assert r3 == pytest.approx(r1, rel=1e-9)


class TestStationarity:
    def test_regular_is_stationary(self):
        m = CorrelationMatrix4.equicorrelated(-1.0 / 3.0)
        assert stationarity_residual(m) <= 1e-10

    def test_perturbed_regular_is_not(self):
        t = Tetrahedron.regular().vertices.copy()
        c, s = np.cos(0.1), np.sin(0.1)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        t[0] = rot @ t[0]
        m = corr_of(Tetrahedron(t))
        assert stationarity_residual(m) > 1e-3

    def test_coplanar_errors(self):
        angles = np.array([0.0, 1.0, 2.0, 3.0])
        v = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(4)])
        with pytest.raises(ValueError):
            stationarity_residual(corr_of(Tetrahedron(v)))

    def test_origin_outside_errors(self):
        # four vertices in the upper hemisphere: the origin is outside
        v = np.array([[0, 0, 1], [0.6, 0, 0.8], [0, 0.6, 0.8], [0.36, 0.48, 0.8]])
        with pytest.raises(ValueError, match="origin is not strictly inside"):
            stationarity_residual(corr_of(Tetrahedron(v)))


class TestWidthTransfer:
    def test_endpoints(self):
        assert f_width(-1.0) == 0.0
        assert f_width(1.0) == 1.0
        assert f_width(0.0) == pytest.approx(2.0 / np.pi, rel=1e-15)
        assert f_width_inv(1.0) == 1.0
        assert f_width_inv(0.0) == -1.0

    def test_inverse_at_two_over_pi(self):
        assert f_width_inv(2.0 / np.pi) == pytest.approx(0.0, abs=1e-12)

    def test_roundtrip_grid(self):
        x = np.linspace(-1.0, 1.0, 1000)
        back = f_width_inv(f_width(x))
        assert np.max(np.abs(back - x)) <= 1e-10

    def test_series_branch_agrees_with_direct_form(self):
        # near x = 1, where arccos(x) is small, f must match the textbook form
        for t in (2e-6, 1e-5, 1e-4):
            x = 1.0 - t
            direct = np.sqrt(1 - x * x) / np.arccos(x)
            assert f_width(x) == pytest.approx(direct, rel=1e-10)

    def test_matches_mpmath_near_both_ends(self):
        # 1 - x*x cancels near x = -1 and x = 1; f must keep full relative
        # precision there
        k = np.arange(1, 17)
        xs = np.concatenate([1 - 10.0 ** -k, -(1 - 10.0 ** -k),
                             np.random.default_rng(0).uniform(-1.0, 1.0, 2000)])
        got = f_width(xs)
        with mp.workdps(50):
            for x, fx in zip(xs, got):
                xm = mp.mpf(float(x))
                ref = mp.sqrt(1 - xm * xm) / mp.acos(xm)
                assert ref > 0
                assert abs((mp.mpf(float(fx)) - ref) / ref) <= 1e-14, x

    def test_inverse_matches_mpmath_root(self):
        # x = cos t with t the root of sin(t)/t = y in [arccos(y), pi]
        k = np.arange(1, 17)
        ys = np.concatenate([[0.0, 1.0, 2.0 / np.pi], 1 - 10.0 ** -k, 10.0 ** -k,
                             np.random.default_rng(1).uniform(0.0, 1.0, 2000)])
        got = f_width_inv(ys)
        with mp.workdps(50):
            for y, x in zip(ys, got):
                ym = mp.mpf(float(y))
                if ym == 1:
                    ref = mp.mpf(1)
                else:
                    t = mp.findroot(lambda t: mp.sin(t) / t - ym, (mp.acos(ym), mp.pi),
                                    solver="anderson")
                    ref = mp.cos(t)
                assert abs(mp.mpf(float(x)) - ref) <= 2e-15, y

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_inverse_roundtrip_property(self, y):
        # near y = 0 the inverse flattens into -1 + O(y^2), below float
        # resolution, so the y-space roundtrip cannot beat ~sqrt(eps)
        x = f_width_inv(y)
        assert -1.0 <= x <= 1.0
        assert f_width(x) == pytest.approx(y, abs=1e-8)

    def test_monotone(self):
        x = np.linspace(-1, 1, 500)
        assert np.all(np.diff(f_width(x)) > 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f_width(1.5)
        with pytest.raises(ValueError):
            f_width_inv(-0.1)

    def test_nan_is_a_domain_error(self):
        for bad in (np.nan, np.array([0.5, np.nan, 0.25])):
            with pytest.raises(ValueError, match=r"\[-1, 1\]"):
                f_width(bad)
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                f_width_inv(bad)


class TestHFunction:
    def test_regular_value_is_inverse_gamma(self):
        # regular simplex: every L_i = 1/3 and alpha_ij = arccos(-1/3), so
        # gamma = alpha / (9 sin alpha) and u_i = L_i / sqrt(gamma) = REGULAR_U
        assert h_func(REGULAR_U, REGULAR_U, REGULAR_U) == pytest.approx(
            9 * np.sin(ACOS_THIRD) / ACOS_THIRD, rel=1e-10)

    def test_symmetry(self, rng):
        for _ in range(10):
            x, y, z = rng.uniform(0.4, 0.95, 3)
            try:
                base = h_func(x, y, z)
            except ValueError:
                continue
            for args in ((x, z, y), (y, x, z), (z, y, x), (y, z, x), (z, x, y)):
                assert h_func(*args) == pytest.approx(base, rel=1e-12)

    def test_quadratic_form_matches_expanded(self, rng):
        for _ in range(20):
            x, y, z = rng.uniform(0.4, 0.95, 3)
            expanded, det = h_func_expanded(x, y, z)
            if det <= 0:
                with pytest.raises(ValueError):
                    h_func(x, y, z)
                continue
            assert h_func(x, y, z) == pytest.approx(float(expanded), rel=1e-10)

    def test_equal_h_condition_on_regular(self):
        # Gamma's entries f^-1(u_i u_j) are the cosines of the dihedral angles,
        # all -1/3, so H takes one value on the four facet triples
        assert f_width_inv(REGULAR_U * REGULAR_U) == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_errors_name_the_condition(self):
        with pytest.raises(ValueError, match="x must be positive"):
            h_func(-1.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="product xy"):
            h_func(2.0, 0.6, 0.1)
        with pytest.raises(ValueError, match="det"):
            h_func(0.9, 0.9, 0.05)


class TestHFromGammaEntries:
    """h_func builds Gamma from ``_gamma_entries`` and tests the det the scans
    test, on a fixed grid of triples with every pairwise product below 1."""

    @staticmethod
    def grid():
        ws = np.linspace(0.15, 1.3, 11)
        return [t for t in itertools.product(ws, repeat=3)
                if max(t[0] * t[1], t[0] * t[2], t[1] * t[2]) < 1]

    def test_raises_exactly_where_det_is_not_positive(self):
        grid, raised = self.grid(), 0
        for x, y, z in grid:
            if gamma_det(x, y, z) <= 0:
                with pytest.raises(ValueError, match="det"):
                    h_func(x, y, z)
                raised += 1
            else:
                h_func(x, y, z)
        assert 0 < raised < len(grid)

    @pytest.mark.parametrize("x, y, z", [
        (2.0, 0.6, 0.1), (0.6, 0.1, 2.0), (0.1, 2.0, 0.6), (0.6, 0.1, np.array([0.5, 2.0])),
    ])
    def test_every_product_is_checked(self, x, y, z):
        # a product xy, xz or yz above 1 is rejected, not read as a NaN entry
        for f in (gamma_det, h_func_expanded):
            with pytest.raises(ValueError, match=r"argument must lie in \[0, 1\]"):
                f(x, y, z)

    def test_equals_the_solve_on_gamma(self):
        admitted = 0
        for x, y, z in self.grid():
            s, e, xi, det = geometry._gamma_entries(x, y, z)
            if det <= 0:
                continue
            # the entries are f_width_inv of the pairwise products
            assert (s, e, xi) == (f_width_inv(x * y), f_width_inv(x * z), f_width_inv(y * z))
            g = np.array([[1.0, s, e], [s, 1.0, xi], [e, xi, 1.0]])
            v = np.array([x, y, z])
            assert h_func(x, y, z) == float(v @ np.linalg.solve(g, v))
            admitted += 1
        assert admitted > 0


class TestMeanWidth:
    def test_single_point_is_zero(self):
        v = np.tile([0.0, 0.0, 1.0], (4, 1))
        assert mean_width(Tetrahedron(v), quad_order=20) == pytest.approx(0.0, abs=1e-14)

    def test_regular_matches_closed_form_route(self):
        t = Tetrahedron.regular()
        target = 2 * F_STAR / GAUSSIAN_RADIAL_FACTOR
        assert mean_width(t, quad_order=50) == pytest.approx(target, rel=1e-4)
        assert mean_width(t, quad_order=200) == pytest.approx(target, rel=1e-6)

    def test_gaussian_radial_factor(self):
        from scipy.special import gamma as gamma_fn

        expected = np.sqrt(2.0) * gamma_fn(2.0) / gamma_fn(1.5)
        assert GAUSSIAN_RADIAL_FACTOR == pytest.approx(expected, rel=1e-14)

    def test_gaussian_equivalence_random(self, rng):
        for _ in range(5):
            t = random_tetra(rng)
            fm = f_max(corr_of(t))
            w = mean_width(t, quad_order=50)
            assert GAUSSIAN_RADIAL_FACTOR * w / 2 == pytest.approx(fm, rel=1e-4)

    def test_quadrature_error_falls_with_order(self):
        # the closed form is the exact reference; the error need not shrink on
        # every tetrahedron (2 of 100 from this seed do not), so only the
        # worst cases are compared across orders
        rng = np.random.default_rng(314)
        errors = {50: [], 200: []}
        for _ in range(30):
            t = random_tetra(rng)
            exact = 2 * f_max(corr_of(t)) / GAUSSIAN_RADIAL_FACTOR
            for order, errs in errors.items():
                errs.append(abs(mean_width(t, quad_order=order) / exact - 1))
        assert max(errors[50]) <= 1e-4
        assert max(errors[200]) <= 2e-6
        assert 10 * max(errors[200]) <= max(errors[50])

    def test_planar_square(self):
        # a planar convex body in R^3 has mean width a quarter of its perimeter
        t = Tetrahedron(np.array([[1.0, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]))
        exact = 2 * f_max(corr_of(t)) / GAUSSIAN_RADIAL_FACTOR
        assert exact == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert mean_width(t, quad_order=50) == pytest.approx(np.sqrt(2.0), rel=1e-4)
        assert mean_width(t, quad_order=200) == pytest.approx(np.sqrt(2.0), rel=1e-6)

    @pytest.mark.parametrize("points", [
        # a unit pair: f_max takes its degenerate branch
        pytest.param([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]], id="repeated_vertex"),
        pytest.param([[0, 0, 1.0], [0, 0, -1], [1, 0, 0], [0, 1, 0]], id="polar_antipodes"),
        pytest.param([[0.8, 0, 0.6], [0, 0.8, 0.6], [-0.8, 0, 0.6], [0, -0.8, 0.6]],
                     id="small_circle"),
    ])
    def test_degenerate_sets_match_closed_form(self, points):
        # like the planar square: pairs that never cross on a latitude, and
        # pairs whose crossings coincide, still give the closed-form width
        t = Tetrahedron(np.array(points))
        exact = 2 * f_max(corr_of(t)) / GAUSSIAN_RADIAL_FACTOR
        assert mean_width(t, quad_order=50) == pytest.approx(exact, rel=1e-4)
        assert mean_width(t, quad_order=200) == pytest.approx(exact, rel=1e-5)

    def test_quad_order_must_be_a_positive_integer(self):
        t = Tetrahedron.regular()
        for bad in (True, 2.5, "3"):
            with pytest.raises(TypeError, match="quad_order"):
                mean_width(t, bad)
        with pytest.raises(ValueError, match="quad_order"):
            mean_width(t, 0)

    def test_random_below_regular(self, rng):
        w_reg = mean_width(Tetrahedron.regular(), quad_order=50)
        for _ in range(20):
            assert mean_width(random_tetra(rng), quad_order=50) <= w_reg + 1e-6

    def test_rotation_invariance(self, rng):
        t = random_tetra(rng)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        t2 = Tetrahedron(t.vertices @ q.T)
        assert mean_width(t2, quad_order=80) == pytest.approx(
            mean_width(t, quad_order=80), rel=1e-5)
