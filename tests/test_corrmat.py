import dataclasses
import json
import pathlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussmax import corrmat
from gaussmax.corrmat import (
    EPS_CLAMP,
    EPS_ONE,
    EPS_PSD,
    PAIR_COMPLEMENT,
    PAIRS,
    CorrDerived,
    CorrelationMatrix4,
    DomainTag,
    classify,
    complement_cov,
    derive,
    from_json_obj,
    has_unit_pair,
    load_matrix,
    parse_offdiag_text,
    to_json_obj,
    triangle_factor,
)


def unit_vectors(dim):
    """Strategy: 4 unit vectors in R^dim -> their Gram matrix is PSD."""
    coord = st.floats(-1, 1, allow_nan=False, allow_infinity=False)
    def to_matrix(rows):
        a = np.asarray(rows, dtype=float)
        norms = np.linalg.norm(a, axis=1)
        if np.min(norms) < 0.1:
            return None
        a /= norms[:, None]
        g = a @ a.T
        return CorrelationMatrix4(tuple(np.clip(g[i, j], -1, 1) for i, j in PAIRS))
    return (
        st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=4, max_size=4)
        .map(to_matrix)
        .filter(lambda m: m is not None)
    )


class TestClassify:
    def test_identity_is_interior(self):
        assert classify(CorrelationMatrix4.identity()).tag is DomainTag.INTERIOR_S

    def test_equicorrelated_third_is_singular_boundary(self):
        # smallest eigenvalue of the all-(-1/3) matrix is 1 + 3r = 0
        m = CorrelationMatrix4.equicorrelated(-1.0 / 3.0)
        eigs = np.linalg.eigvalsh(m.matrix())
        assert abs(eigs[0]) < 1e-14
        cls = classify(m)
        assert cls.tag is DomainTag.BOUNDARY_S1

    def test_unit_pair_with_witness(self):
        m = CorrelationMatrix4((0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
        cls = classify(m)
        assert cls.tag is DomainTag.DEGENERATE_UNIT_PAIR
        assert cls.witness == (1, 4)

    def test_out_of_range_entry_invalid(self):
        m = CorrelationMatrix4((1.5, 0, 0, 0, 0, 0))
        assert classify(m).tag is DomainTag.INVALID

    def test_indefinite_invalid(self):
        # all off-diagonals -1/2: smallest eigenvalue 1 - 3/2 < 0
        m = CorrelationMatrix4.equicorrelated(-0.5)
        assert classify(m).tag is DomainTag.INVALID

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            CorrelationMatrix4((np.nan, 0, 0, 0, 0, 0))


REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference_evaluate.json"

UNIT_PAIR_ROWS = [
    (0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
    (1.0,) * 6,
    (1.0, 0.5, 0.5, 0.5, 0.5, 1.0),
    (0.5, 0.5, 0.5, 0.5, 0.5, 1.0),
    (1.0, -1.0, -1.0, -1.0, -1.0, 1.0),
    (1.0 - 5e-13, 0.0, 0.0, 0.0, 0.0, 1.0),
]


def assert_one_rule(ms):
    """classify and derive give each matrix one tag, and a valid matrix has a
    unit pair exactly when it is tagged so."""
    for m in ms:
        tag = classify(m).tag
        assert tag is derive(m).tag
        if tag is not DomainTag.INVALID:
            assert has_unit_pair(m.offdiag) == (tag is DomainTag.DEGENERATE_UNIT_PAIR)


class TestDomainRule:
    def test_reference_rows(self):
        entries = json.loads(REFERENCE.read_text())["entries"]
        assert len(entries) == 512
        assert_one_rule([CorrelationMatrix4(tuple(e["offdiag"])) for e in entries])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 4).flatmap(unit_vectors), min_size=1, max_size=6))
    def test_gram_matrices_of_rank_1_to_4(self, ms):
        assert_one_rule(ms)

    def test_unit_pair_rows(self):
        ms = [CorrelationMatrix4(off) for off in UNIT_PAIR_ROWS]
        assert all(classify(m).tag is DomainTag.DEGENERATE_UNIT_PAIR for m in ms)
        assert_one_rule(ms)

    @pytest.mark.parametrize("off, witness", [
        ((1.0,) * 6, (1, 2)),
        ((1.0, 0.5, 0.5, 0.5, 0.5, 1.0), (1, 2)),
        ((0.5, 0.5, 0.5, 0.5, 0.5, 1.0), (3, 4)),
        # the first pair within EPS_ONE of 1 in storage order, not the largest
        ((1.0 - 5e-13, 0.0, 0.0, 0.0, 0.0, 1.0), (1, 2)),
    ])
    def test_witness_is_first_unit_pair_in_storage_order(self, off, witness):
        assert classify(CorrelationMatrix4(off)).witness == witness


class TestDerive:
    def test_equicorrelated_third(self):
        m = CorrelationMatrix4.equicorrelated(-1.0 / 3.0)
        d = derive(m)
        assert np.allclose(d.lambda_prime, 4.0 / 3.0)
        expected_sigma = np.array([[8, 4, 4], [4, 8, 4], [4, 4, 8]]) / 3.0
        assert np.allclose(complement_cov(m, 1), expected_sigma)
        # det of that 3x3 is 256/27
        assert d.a_tilde**2 == pytest.approx(512.0 / 27.0, rel=1e-14)
        assert np.ptp(d.lambda_tilde) < 1e-14
        assert d.lambda_tilde[0] < 0
        # singular: the ratio a_tilde^2 / (2 det) is undefined
        assert np.linalg.det(m.matrix()) <= EPS_PSD

    def test_all_ones_collapse(self):
        d = derive(CorrelationMatrix4.equicorrelated(1.0))
        assert np.allclose(d.lambda_prime, 0.0)
        assert np.allclose(d.lambda_tilde, 0.0)
        assert d.a_tilde == 0.0

    def test_identity(self):
        m = CorrelationMatrix4.identity()
        d = derive(m)
        assert np.allclose(d.lambda_prime, 1.0)
        # (1)(1) - 2*(1)(1) = -1 for every pair
        assert np.allclose(d.lambda_tilde, -1.0)
        assert d.a_tilde**2 == pytest.approx(8.0, rel=1e-14)
        det = np.linalg.det(m.matrix())
        assert det == pytest.approx(1.0)
        assert d.a_tilde**2 / (2.0 * det) == pytest.approx(4.0)  # 8 / (2 * 1)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError, match=r"^not a correlation matrix$"):
            derive(CorrelationMatrix4.equicorrelated(-0.5))

    @pytest.mark.parametrize("row, clamp, prefix", [
        ((1.0 + EPS_PSD, 0.0, 0.0, 0.0, 0.0, 0.0), EPS_CLAMP, "not a correlation matrix"),
        # a negative clamp tolerance puts every cosine of this row out of range
        ((0.1, -0.2, 0.3, 0.05, -0.1, 0.2), -0.9, "arccos argument out of range: ["),
    ], ids=["not-a-correlation-matrix", "arccos-out-of-range"])
    def test_error_messages(self, monkeypatch, row, clamp, prefix):
        monkeypatch.setattr(corrmat, "EPS_CLAMP", clamp)
        with pytest.raises(ValueError) as err:
            derive(CorrelationMatrix4(row))
        assert str(err.value).startswith(prefix)

    def test_record_fields(self):
        names = [f.name for f in dataclasses.fields(CorrDerived)]
        assert names == ["tag", "lambda_prime", "lambda_tilde", "a_tilde", "angles"]

    def test_unit_pair_cosines_are_nan_and_not_formed(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("arccos_arguments evaluated on a unit-pair matrix")

        monkeypatch.setattr(corrmat, "arccos_arguments", fail)
        d = derive(CorrelationMatrix4((0.0, 0.0, 1.0, 0.0, 0.0, 0.0)))
        assert d.tag is DomainTag.DEGENERATE_UNIT_PAIR
        assert d.angles.shape == (6,) and np.all(np.isnan(d.angles))

    def test_angles_are_the_arccos_of_the_cosines(self, reference512):
        for m in reference512:
            d = derive(m)
            if d.tag is DomainTag.DEGENERATE_UNIT_PAIR:
                continue
            cosines = corrmat.arccos_arguments(d.lambda_prime.tolist(), d.lambda_tilde.tolist(),
                                               float(d.a_tilde))
            assert d.angles.tobytes() == np.arccos(cosines).tobytes()

    def test_unit_pair_angles_are_nan_and_angles_read_only(self):
        unit = derive(CorrelationMatrix4((0.0, 0.0, 1.0, 0.0, 0.0, 0.0)))
        assert unit.angles.shape == (6,) and np.all(np.isnan(unit.angles))
        for d in (unit, derive(CorrelationMatrix4.identity())):
            with pytest.raises(ValueError, match="read-only"):
                d.angles[0] = 0.0

    @settings(max_examples=30, deadline=None)
    @given(unit_vectors(4))
    def test_anchor_agreement(self, m):
        dets = [2 * np.linalg.det(complement_cov(m, a)) for a in range(4)]
        scale = max(abs(d) for d in dets) + 1e-30
        assert np.ptp(dets) <= 1e-10 * max(scale, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(unit_vectors(4))
    def test_factorization_identity(self, m):
        # radical = product of the triangle factors of the two facets at the edge
        d = derive(m)
        for t, (k, l) in enumerate(PAIRS):
            mm, nn = PAIR_COMPLEMENT[t]
            lhs = d.lambda_prime[t] * d.a_tilde**2 + d.lambda_tilde[t] ** 2
            rhs = triangle_factor(d.lambda_prime, (k, l, mm)) * triangle_factor(
                d.lambda_prime, (k, l, nn)
            )
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_radical_positive_on_s1(self, battery20):
        for m in battery20:
            d = derive(m)
            rad = d.lambda_prime * d.a_tilde**2 + d.lambda_tilde**2
            assert np.all(rad > 0)

    def test_radical_vanishes_once_a_unit_pair_appears(self):
        # all six radicals positive iff no correlation equals 1; with X4 = X1
        # the configuration flattens and only the pair untouched by the
        # coincidence keeps a positive radical
        m = CorrelationMatrix4((0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
        d = derive(m)
        rad = d.lambda_prime * d.a_tilde**2 + d.lambda_tilde**2
        assert np.all(rad >= 0)
        assert rad[PAIRS.index((0, 3))] == 0.0
        assert rad[PAIRS.index((1, 2))] > 0
        assert not np.all(rad > 0)

    def test_a_sq_equals_inverse_sum(self, battery20):
        for m in battery20:
            a_sq = derive(m).a_tilde**2 / (2.0 * np.linalg.det(m.matrix()))
            inv_sum = float(np.linalg.inv(m.matrix()).sum())
            assert a_sq == pytest.approx(inv_sum, rel=1e-9)

    def test_permutation_equivariance(self, rng):
        from gaussmax.optimize import random_psd

        for _ in range(10):
            m = random_psd(rng)
            perm = rng.permutation(4)
            mp = m.permuted(perm)
            d, dp = derive(m), derive(mp)
            assert dp.a_tilde == pytest.approx(d.a_tilde, rel=1e-10, abs=1e-12)
            for t, (i, j) in enumerate(PAIRS):
                src = PAIRS.index(tuple(sorted((perm[i], perm[j]))))
                assert dp.lambda_prime[t] == pytest.approx(d.lambda_prime[src], abs=1e-14)
                assert dp.lambda_tilde[t] == pytest.approx(
                    d.lambda_tilde[src], rel=1e-10, abs=1e-12
                )


def same_record(a, b):
    """Two records with one tag and the same bytes in every field."""
    return a.tag is b.tag and all(
        np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes()
        for name in ("lambda_prime", "lambda_tilde", "a_tilde", "angles"))


class TestLastRecord:
    """``derive`` keeps the last matrix object and its record in one slot."""

    def test_alternating_matrices_equal_a_fresh_derivation(self, battery20):
        a, b = battery20[:2]
        for m in (a, b, a):
            assert same_record(derive(m), corrmat._derive(m.offdiag))
        # a matrix built after the last one was dropped may reuse its address
        for m in battery20:
            assert same_record(derive(CorrelationMatrix4(m.offdiag)), corrmat._derive(m.offdiag))

    def test_same_object_hits_and_an_equal_copy_is_derived_afresh(self):
        m = CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1))
        d = derive(m)
        assert derive(m) is d
        copy = derive(CorrelationMatrix4(m.offdiag))
        assert copy is not d and same_record(copy, d)

    def test_invalid_matrix_raises_each_time_and_keeps_the_slot(self):
        m = CorrelationMatrix4.identity()
        d = derive(m)
        bad = CorrelationMatrix4.equicorrelated(-0.5)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^not a correlation matrix$"):
                derive(bad)
        assert derive(m) is d

    def test_two_threads_read_only_their_own_records(self, reference512):
        # each thread derives its own matrices, each twice in a row, while
        # the other replaces the slot; a record read across threads would
        # belong to another matrix
        expected = [corrmat._derive(m.offdiag) for m in reference512]
        wrong, done = [], []

        def work(offset):
            for i in range(1000):
                k = (2 * i + offset) % len(reference512)
                for _ in range(2):
                    if not same_record(derive(reference512[k]), expected[k]):
                        wrong.append(k)
            done.append(offset)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == [0, 1] and wrong == []


def adjugate(u):
    """Adjugate of a symmetric 3x3 matrix: row i is the cross product of the
    other two rows, in cyclic order."""
    return np.array([np.cross(u[1], u[2]), np.cross(u[2], u[0]), np.cross(u[0], u[1])])


class TestVertexGramian:
    """The Gramian at a vertex: U = complement_cov(m, k) / 2, the covariance
    of the root-two-scaled differences (X_l - X_k) / sqrt(2)."""

    @staticmethod
    def check_adjugate(m, anchor):
        # adjugate entry (i, j) of U is a quarter of the quadratic combination
        # of the pair of the anchor and the vertex of the missing row; adjugate
        # row i sums to minus a quarter of the combination of the pair
        # complementary to (anchor, vertex i)
        lt = derive(m).lambda_tilde
        others = [v for v in range(4) if v != anchor]
        adj = adjugate(0.5 * complement_cov(m, anchor))

        def quarter(pair):
            return pytest.approx(lt[PAIRS.index(pair)] / 4, rel=1e-12, abs=1e-12)

        for i in range(3):
            pair = tuple(sorted((anchor, others[i])))
            assert -adj[i].sum() == quarter(PAIR_COMPLEMENT[PAIRS.index(pair)])
            for j in range(i + 1, 3):
                assert adj[i, j] == quarter(tuple(sorted((anchor, others[3 - i - j]))))

    def test_rho_identities_anchor2(self, battery20):
        for m in battery20:
            self.check_adjugate(m, 1)  # vertex 2, 0-based index 1

    def test_adjugate_matches_quad_combination_all_anchors(self, battery20):
        for m in battery20:
            for anchor in range(4):
                self.check_adjugate(m, anchor)


class TestFormats:
    def test_text_roundtrip(self):
        m = parse_offdiag_text("-0.1, 0.2, 0.3, -0.4, 0.5, 0.25")
        assert m.offdiag == (-0.1, 0.2, 0.3, -0.4, 0.5, 0.25)

    def test_text_errors_name_entry(self):
        with pytest.raises(ValueError, match="entry 13"):
            parse_offdiag_text("0, zzz, 0, 0, 0, 0")
        with pytest.raises(ValueError, match="6"):
            parse_offdiag_text("0, 0")

    def test_json_roundtrip(self):
        m = CorrelationMatrix4((0.1, 0.2, 0.3, 0.1, 0.2, 0.3))
        assert from_json_obj(to_json_obj(m)) == m

    @pytest.mark.parametrize("bad", [True, False, "0.5", None, [0.5]])
    def test_json_entries_must_be_numbers(self, bad):
        off = [0.0] * 6
        off[4] = bad
        with pytest.raises(ValueError, match="entry 24"):
            from_json_obj({"offdiag": off})

    def test_json_accepts_optimizer_doc(self):
        doc = {"argmax": {"offdiag": [0.0] * 6}, "value": 1.0}
        assert from_json_obj(doc) == CorrelationMatrix4.identity()

    def test_load_both_formats(self, tmp_path):
        p1 = tmp_path / "m.txt"
        p1.write_text("0,0,0,0,0,0\n")
        assert load_matrix(str(p1)) == CorrelationMatrix4.identity()
        p2 = tmp_path / "m.json"
        p2.write_text('{"offdiag": [0.5, 0, 0, 0, 0, 0.5]}')
        assert load_matrix(str(p2)).offdiag[0] == 0.5


# Rows at the edges of the domain rule: an entry at exactly 1 - EPS_ONE and
# one in (1, 1 + EPS_PSD] (unit pairs), one just outside EPS_ONE of 1 (the
# smallest radical whose cosines are formed), and X4 = X1, whose radical is 0.
EDGE_ROWS = [
    (1.0 - EPS_ONE, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.3, 0.2, 1.0 - EPS_ONE, 0.1, 0.3, 0.2),
    (0.0, 1.0 + EPS_PSD / 2, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 1.0 - 2 * EPS_ONE, 0.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
]


@pytest.fixture(scope="module")
def reference512():
    return [CorrelationMatrix4(tuple(e["offdiag"]))
            for e in json.loads(REFERENCE.read_text())["entries"]]


class TestLinalgBinding:
    """``corrmat.eigvalsh`` and ``corrmat._det`` call the gufuncs behind
    ``np.linalg.eigvalsh`` and ``np.linalg.det`` directly, imported from
    numpy's private ``_umath_linalg``; these tests check that binding against
    the public functions."""

    def test_bound_to_numpys_gufuncs(self):
        from numpy.linalg import _umath_linalg

        assert corrmat._eigvalsh_lo is _umath_linalg.eigvalsh_lo
        assert corrmat._det is _umath_linalg.det

    def test_eigvalsh_equals_numpy(self, battery20):
        rng = np.random.default_rng(12)
        sym = rng.normal(size=(50, 4, 4))
        sym += np.swapaxes(sym, 1, 2)
        for a in [m.matrix() for m in battery20] + list(sym):
            got, expected = corrmat.eigvalsh(a), np.linalg.eigvalsh(a)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(3, 3), (50, 3, 3)], ids=["one", "stack"])
    def test_det_equals_numpy(self, shape):
        rng = np.random.default_rng(13)
        a = rng.normal(size=shape)
        got, expected = corrmat._det(a), np.linalg.det(a)
        assert type(got) is type(expected) and np.asarray(got).shape == np.shape(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_nan_eigenvalue_raises_linalgerror(self, monkeypatch):
        eigvalsh_lo = corrmat._eigvalsh_lo

        def not_converging(a):
            # LAPACK's failure: numpy returns the eigenvalues all NaN
            w = eigvalsh_lo(a)
            w[:] = np.nan
            return w

        monkeypatch.setattr(corrmat, "_eigvalsh_lo", not_converging)
        m = CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1))
        for call in (classify, derive):
            with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
                call(CorrelationMatrix4(m.offdiag))


class TestArccosClamp:
    """An arccos argument beyond 1 by no more than EPS_CLAMP is clamped to
    +-1; the arguments within [-1, 1] are left as they are."""

    LP = [-1e-10, 0.5, 0.7, 1.2, 0.4, 0.9]   # the first complement: a correlation just above 1
    LT = [1.0, -0.2, 0.1, 0.3, -0.4, 0.2]

    def expected(self, sign):
        rest = [q / np.sqrt(p + q * q) for p, q in zip(self.LP[1:], self.LT[1:])]
        return [sign] + rest

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_matrix(self, sign):
        lt = [sign * self.LT[0]] + self.LT[1:]
        args = corrmat.arccos_arguments(self.LP, lt, 1.0)
        unclamped = lt[0] / np.sqrt(self.LP[0] + 1.0)
        assert 1.0 < abs(unclamped) <= 1.0 + EPS_CLAMP
        assert [float(a) for a in args] == self.expected(sign)
