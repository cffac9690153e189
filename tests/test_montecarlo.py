import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import F_IID4

from gaussmax import geometry, montecarlo
from gaussmax.closedform import f_max
from gaussmax.corrmat import CorrelationMatrix4, _unit_classes, gram_of_rows
from gaussmax.montecarlo import (
    estimate_max,
    estimate_order_stats,
    sample_factor,
    thread_count,
)
from gaussmax.optimize import random_interior, random_psd


# P M P, the matrix of the centred vector X - mean(X), which ``sample_factor``
# factors
CENTRE = np.eye(4) - 0.25
# four unit vectors at polar angle 1: a flat tetrahedron in the plane
# z = cos 1, so a rank-3 matrix whose simplex has affine rank 2
_AZIMUTHS = np.array([0.3, 1.7, 2.9, 4.4])
FLAT = gram_of_rows(np.stack([np.sin(1.0) * np.cos(_AZIMUTHS), np.sin(1.0) * np.sin(_AZIMUTHS),
                              np.full(4, np.cos(1.0))], axis=1))


def centred(m: CorrelationMatrix4) -> np.ndarray:
    return CENTRE @ m.matrix() @ CENTRE


class TestSampleFactor:
    def test_identity(self):
        l = sample_factor(CorrelationMatrix4.identity())
        assert np.allclose(l @ l.T, CENTRE, atol=1e-14)

    @pytest.mark.parametrize("m, rank, atol", [
        (CorrelationMatrix4.identity(), 3, 1e-14),
        (CorrelationMatrix4.equicorrelated(-1.0 / 3.0), 3, 1e-10),
        (CorrelationMatrix4((1.0, 0.5, 0.5, 0.5, 0.5, 1.0)), 1, 1e-14),
        (CorrelationMatrix4.equicorrelated(1.0), 0, 1e-12),
        (FLAT, 2, 1e-14),
    ])
    def test_one_column_per_unit_of_rank(self, m, rank, atol):
        # the centred matrix has the rank of the simplex's affine hull: its
        # factor drops the columns of its zero eigenvalues, the all-ones
        # direction among them
        l = sample_factor(m)
        assert l.shape == (4, rank)
        assert np.max(np.abs(l @ l.T - centred(m)), initial=0.0) <= atol
        assert np.max(np.abs(l.sum(axis=0)), initial=0.0) <= 1e-12

    def test_rank3_boundary(self):
        m = CorrelationMatrix4.equicorrelated(-1.0 / 3.0)
        l = sample_factor(m)
        assert np.max(np.abs(l @ l.T - centred(m))) <= 1e-10
        assert np.linalg.matrix_rank(l, tol=1e-8) == 3

    def test_rank1_all_ones(self):
        # the four coordinates are one variable, so the centred vector is 0
        m = CorrelationMatrix4.equicorrelated(1.0)
        l = sample_factor(m)
        assert l.shape == (4, 0)
        assert np.max(np.abs(l @ l.T - centred(m))) <= 1e-12

    def test_interior_battery(self, battery20):
        for m in battery20:
            l = sample_factor(m)
            assert l.shape == (4, 3)
            assert np.max(np.abs(l @ l.T - centred(m))) <= 1e-12
            assert np.max(np.abs(l.sum(axis=0))) <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_row_distances_are_the_simplex_edges(self, dim):
        # centring moves the simplex, not its shape: rows i and j of the
        # factor lie 2 (1 - r_ij) apart, squared
        rng = np.random.default_rng(dim)
        for _ in range(50):
            m = random_psd(rng, dim)
            l = sample_factor(m)
            d2 = np.sum((l[:, None, :] - l[None, :, :]) ** 2, axis=2)
            assert np.max(np.abs(d2 - 2 * (1 - m.matrix()))) <= 1e-12

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            sample_factor(CorrelationMatrix4.equicorrelated(-0.5))


class TestEstimateMax:
    def test_seed_determinism(self):
        m = CorrelationMatrix4.identity()
        a = estimate_max(m, 100_000, seed=42)
        b = estimate_max(m, 100_000, seed=42)
        assert (a.mean, a.std_error) == (b.mean, b.std_error)
        c = estimate_max(m, 100_000, seed=43)
        assert c.mean != a.mean

    @pytest.mark.parametrize("raw", ["abc", "-3"])
    def test_malformed_thread_cap_warns_and_falls_back(self, raw, monkeypatch):
        monkeypatch.setenv("GAUSSMAX_THREADS", raw)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        with pytest.warns(RuntimeWarning, match=f"'{raw}'"):
            n = thread_count()
        assert n == 3

    @pytest.mark.parametrize("cpus, cpu_count, expected", [(16, 64, 8), (None, 6, 6), (None, None, 1)])
    def test_auto_thread_count_is_usable_cpus_up_to_8(self, cpus, cpu_count, expected, monkeypatch):
        # the CPUs this process may run on where the OS can tell, else all
        monkeypatch.setenv("GAUSSMAX_THREADS", "0")
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert thread_count() == expected

    def test_thread_count_does_not_change_results(self, monkeypatch):
        m = CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1))
        monkeypatch.setenv("GAUSSMAX_THREADS", "1")
        assert thread_count() == 1
        a = estimate_max(m, 200_000, seed=5, shards=8)
        monkeypatch.setenv("GAUSSMAX_THREADS", "4")
        b = estimate_max(m, 200_000, seed=5, shards=8)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_iid_value(self):
        est = estimate_max(CorrelationMatrix4.identity(), 2_000_000, seed=11)
        assert abs(est.mean - F_IID4) <= 4 * est.std_error

    def test_fully_correlated_mean_zero(self):
        # the four coordinates are one variable, so every pair sum
        # max(x) - min(x) is exactly 0
        est = estimate_max(CorrelationMatrix4.equicorrelated(1.0), 100_000, seed=3)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_equicorrelated_optimum(self):
        m = CorrelationMatrix4.equicorrelated(-1.0 / 3.0)
        est = estimate_max(m, 2_000_000, seed=12)
        assert abs(est.mean - f_max(m)) <= 4 * est.std_error

    def test_flat_tetrahedron(self):
        # rank 3, but the simplex is flat: its factor has 2 columns, and
        # the orbit maps mix in the zero column it is padded with
        est = estimate_max(FLAT, 2_000_000, seed=13)
        assert abs(est.mean - f_max(FLAT)) <= 4 * est.std_error

    def test_argument_validation(self):
        m = CorrelationMatrix4.identity()
        with pytest.raises(ValueError):
            estimate_max(m, 100, seed=0)
        with pytest.raises(ValueError):
            estimate_max(m, 10_001, seed=0)
        with pytest.raises(ValueError):
            estimate_max(m, 100_000, seed=0, shards=0)
        # 10,000 draws are 5,000 pairs: every shard needs one
        with pytest.raises(ValueError, match=r"shards must be <= n // 2 = 5000"):
            estimate_max(m, 10_000, seed=0, shards=5_001)

    @pytest.mark.parametrize("estimate", [estimate_max, estimate_order_stats])
    @pytest.mark.parametrize("name, bad", [
        ("n", 1e6), ("n", True), ("n", "100000"), ("shards", 2.0), ("shards", True),
    ])
    def test_non_integer_counts_rejected(self, estimate, name, bad):
        args = {"n": 100_000, "shards": None, name: bad}
        with pytest.raises(TypeError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
            estimate(CorrelationMatrix4.identity(), args["n"], 0, shards=args["shards"])

    def test_numpy_integer_counts_accepted(self):
        m = CorrelationMatrix4.identity()
        a = estimate_max(m, np.int64(20_000), 0, shards=np.int64(2))
        assert a == estimate_max(m, 20_000, 0, shards=2)

    def test_golden_value(self):
        # pins the draw stream (SFC64 keyed by (seed, shard, block)), the
        # orbit maps, the radius step and each chunk's float sum; here each
        # shard is one block of 33,334 or 33,333 pairs, so 2,777 orbits in two
        # chunks and a partial orbit of 10 or 9 pairs, and the chunk sums are
        # added exactly, so no order of addition enters.  Both values were
        # recorded when the orbit became the unit of reduction.
        m = CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1))
        est = estimate_max(m, 200_000, seed=5, shards=3)
        assert est.mean == 0.9953655424586876
        assert est.std_error == 0.00016738016901006957

    def test_golden_value_multi_block(self):
        # one shard of 200,000 pairs: four blocks of 49,152 and one of 3,392,
        # so this pins the block size and the block keys, which the one-block
        # shards above do not.  Recorded when the orbit became the unit of
        # reduction.
        m = CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1))
        est = estimate_max(m, 400_000, seed=5, shards=1)
        assert (est.mean, est.std_error) == (0.9951146365474802, 0.00012038690738132467)
        os_ = estimate_order_stats(m, 400_000, seed=5, shards=1)
        assert (os_.e1, os_.e2) == (0.9951146365474802, 0.3003670664440176)
        assert os_.std_errors[:2] == (0.00012038690738132467, 0.00018789054225539815)
        assert os_.se_third_identity == 0.0003516796217881736

    def test_golden_value_rank3(self):
        # the all -1/3 maximizer is on the boundary, and its simplex, the
        # regular tetrahedron, has affine rank 3, so its factor needs no zero
        # column; pins the eigen factor of the centred matrix without its null
        # column as well as the streams.  Recorded when the orbit became the
        # unit of reduction.
        m = CorrelationMatrix4.equicorrelated(-1.0 / 3.0)
        est = estimate_max(m, 400_000, seed=5, shards=1)
        assert (est.mean, est.std_error) == (1.1886594899448715, 9.602343755344827e-05)
        os_ = estimate_order_stats(m, 400_000, seed=5, shards=1)
        assert (os_.e1, os_.e2) == (1.1886594899448715, 0.34295146057544623)
        assert os_.std_errors[:2] == (9.602343755344827e-05, 0.00025374616335700566)
        assert os_.se_third_identity == 0.00020701335391933742

    def test_results_are_python_floats(self):
        m = CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1))
        est = estimate_max(m, 20_000, seed=5)
        os_ = estimate_order_stats(m, 20_000, seed=5)
        values = [est.mean, est.std_error, os_.e1, os_.e2, os_.e3, os_.e4, *os_.std_errors,
                  os_.se_third_identity, os_.se_second_identity]
        assert all(type(v) is float for v in values), [type(v) for v in values]


class TestOrderStats:
    def test_antithetic_symmetry_is_exact(self, battery20):
        os_ = estimate_order_stats(battery20[0], 50_000, seed=1)
        assert os_.e4 == -os_.e1
        assert os_.e3 == -os_.e2
        assert os_.e1 >= os_.e2 >= os_.e3 >= os_.e4
        se1, se2, se3, se4 = os_.std_errors
        assert (se3, se4) == (se2, se1)
        assert os_.se_third_identity == os_.se_second_identity

    def test_max_agrees_with_estimate_max(self):
        m = CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1))
        a = estimate_max(m, 100_000, seed=9)
        b = estimate_order_stats(m, 100_000, seed=9)
        assert b.e1 == pytest.approx(a.mean, rel=1e-12)

    def test_second_order_identity_identity_matrix(self):
        # e2 = -3 e1 + 6/sqrt(pi) for independent coordinates
        os_ = estimate_order_stats(CorrelationMatrix4.identity(), 2_000_000, seed=21)
        target = -3 * os_.e1 + 6.0 / np.sqrt(np.pi)
        assert abs(os_.e2 - target) <= 4 * os_.se_second_identity

    def test_third_order_identity_random(self, battery20):
        for m in battery20[:3]:
            os_ = estimate_order_stats(m, 1_000_000, seed=31)
            s = float(np.sum(np.sqrt(1.0 - m.array())))
            target = 3 * os_.e1 - s / np.sqrt(np.pi)
            assert abs(os_.e3 - target) <= 4 * os_.se_third_identity

    def test_fully_correlated_all_equal(self):
        os_ = estimate_order_stats(CorrelationMatrix4.equicorrelated(1.0), 50_000, seed=2)
        assert os_.e1 == pytest.approx(os_.e2, abs=1e-12)
        assert abs(os_.e1) <= 4 * os_.std_errors[0]

    def test_value_bounds(self, battery20):
        # lower/upper bounds on the expected maximum hold within MC error
        for m in battery20[:3]:
            os_ = estimate_order_stats(m, 1_000_000, seed=41)
            s = float(np.sum(np.sqrt(1.0 - m.array())))
            lo = s / (4 * np.sqrt(np.pi))
            hi = s / (3 * np.sqrt(np.pi))
            slack = 4 * os_.std_errors[0]
            assert lo - slack <= os_.e1 <= hi + slack

    def test_thread_count_does_not_change_results(self, monkeypatch):
        # several blocks per shard, so the in-place block sums are exercised
        monkeypatch.setattr(montecarlo, "_BLOCK", 4_096)
        m = CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1))
        monkeypatch.setenv("GAUSSMAX_THREADS", "1")
        a = estimate_order_stats(m, 40_000, seed=6, shards=2)
        monkeypatch.setenv("GAUSSMAX_THREADS", "2")
        b = estimate_order_stats(m, 40_000, seed=6, shards=2)
        assert a == b

    def test_shard_split_determinism(self):
        m = CorrelationMatrix4.identity()
        a = estimate_order_stats(m, 100_000, seed=8, shards=4)
        b = estimate_order_stats(m, 100_000, seed=8, shards=4)
        assert a == b


class TestPairStandardError:
    """The standard errors are those of a mean of n/2 antithetic pair
    averages: over seeds, the means spread as far as the reported SE says."""

    SEEDS = range(200)

    @staticmethod
    def spread_over_se(values, ses) -> float:
        return float(np.std(values) / np.median(ses))

    @pytest.mark.parametrize("r", [0.9, -1.0 / 3.0])
    def test_spread_matches_reported_se(self, r):
        m = CorrelationMatrix4.equicorrelated(r)
        mx = [estimate_max(m, 20_000, seed, shards=1) for seed in self.SEEDS]
        os_ = [estimate_order_stats(m, 20_000, seed, shards=1) for seed in self.SEEDS]
        ratios = (
            self.spread_over_se([e.mean for e in mx], [e.std_error for e in mx]),
            self.spread_over_se([o.e2 for o in os_], [o.std_errors[1] for o in os_]),
            self.spread_over_se([o.e2 + 3 * o.e1 for o in os_],
                                [o.se_second_identity for o in os_]),
        )
        assert all(0.85 <= q <= 1.2 for q in ratios), ratios


class TestUnitPairs:
    """The members of a unit class are one variable: they take one row of
    the factor, so they draw equal coordinates."""

    @pytest.mark.parametrize("off", [(1.0,) * 6, (1.0, 0.5, 0.5, 0.5, 0.5, 1.0)])
    def test_unit_class_draws_one_variable(self, off):
        m = CorrelationMatrix4(off)
        l = sample_factor(m)
        for members in _unit_classes(m):
            assert all(np.array_equal(l[i], l[members[0]]) for i in members)
        assert np.max(np.abs(l @ l.T - centred(m)), initial=0.0) <= 1e-14
        est = estimate_max(m, 100_000, seed=3)
        os_ = estimate_order_stats(m, 100_000, seed=3)
        # every class has two or four members, so the top two coordinates tie
        assert os_.e1 == os_.e2 == est.mean
        assert abs(est.mean - f_max(m)) <= 4 * est.std_error


class ConstantDraws:
    """Stands in for a block's generator: every normal it draws is value."""

    def __init__(self, value: float):
        self.value = value

    def standard_normal(self, out):
        out.fill(self.value)


class TestChunkedReduction:
    """The reducers read each block in chunks of _CHUNK orbits, each chunk's
    orbit sums are summed in numpy, and the chunk sums are added exactly."""

    def test_chunk_sums_are_added_exactly(self, monkeypatch):
        # 10_000 pairs in one shard: 50 blocks of 200 pairs, each 16 whole
        # orbits in chunks of 7, 7 and 2 and a partial orbit of 8 pairs.
        # Every pair sum is 0.1 and every draw is (1, 1, 1), of radius
        # sqrt(3), so an orbit of m pairs sums to the numpy sum of m 0.1s
        # times E|z| / sqrt(3).
        monkeypatch.setattr(montecarlo, "_CHUNK", 7)
        monkeypatch.setattr(montecarlo, "_BLOCK", 200)
        monkeypatch.setattr(montecarlo, "_block_rng", lambda *key: ConstantDraws(1.0))
        monkeypatch.setenv("GAUSSMAX_THREADS", "2")
        s, s2, sm, mm = montecarlo._sample_sums(CorrelationMatrix4.identity(), 20_000, 0, 1,
                                                lambda x, out: out.fill(0.1), 1)
        scale = geometry.GAUSSIAN_RADIAL_FACTOR / math.sqrt(3.0)
        chunks = [(m, np.full((1, m, c), 0.1).sum(axis=1) * scale)
                  for m, c in [(12, 7), (12, 7), (12, 2), (8, 1)] * 50]
        assert s.tolist() == [math.fsum(o.sum(axis=1)[0] for _, o in chunks)]
        assert s2.tolist() == [math.fsum(np.einsum("ij,ij->i", o, o)[0] for _, o in chunks)]
        assert sm.tolist() == [math.fsum(m * o.sum(axis=1)[0] for m, o in chunks)]
        assert mm == 50 * (16 * 12 ** 2 + 8 ** 2)

    @pytest.mark.parametrize("chunk", [1, 7, 8192])
    def test_sorting_network_equals_sort(self, chunk):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((10_001, 4))
        x[::3, 2] = x[::3, 0]  # ties, as drawn from a matrix with a unit pair
        x[::5, 1] = x[::5, 3]
        # the network is fed chunk rows at a time, as a block feeds it (chunk 1
        # takes the lone-row path); the identity factor transforms exactly, so
        # the network sorts x itself
        def sorted_chunk(z):
            t = np.empty((4, len(z)))
            montecarlo._transform(np.eye(4), z, t)
            return np.vstack(montecarlo._sorted_rows(t, np.empty(len(z))))

        asc = np.hstack([sorted_chunk(x[a:a + chunk]) for a in range(0, len(x), chunk)])
        assert np.array_equal(asc, np.sort(x, axis=1).T)


class TestOrbits:
    """One draw of 3 normals serves the 12 antithetic pairs of its orbit
    under the signed cyclic permutations, each scaled by E|z| / |z|."""

    def test_orbit_maps_with_their_negations_are_a_group(self):
        maps = montecarlo._ORBIT_MAPS
        assert maps.shape == (12, 3, 3)
        group = np.concatenate([maps, -maps])
        for g in group:  # signed permutation matrices
            assert np.array_equal(np.abs(g).sum(axis=0), np.ones(3))
            assert np.array_equal(np.abs(g).sum(axis=1), np.ones(3))
            assert set(np.unique(g)) <= {-1.0, 0.0, 1.0}
        keys = {g.astype(int).tobytes() for g in group}  # -0.0 and 0.0 alike
        assert len(keys) == 24  # so no two of the 12 are equal up to sign
        assert all((a @ b).astype(int).tobytes() in keys for a in group for b in group)

    def test_radial_factor_is_the_mean_radius_in_3d(self):
        # one copy of the constant, the one the mean width uses
        assert montecarlo.GAUSSIAN_RADIAL_FACTOR is geometry.GAUSSIAN_RADIAL_FACTOR
        expected = math.sqrt(2) * math.gamma(2.0) / math.gamma(1.5)
        assert montecarlo.GAUSSIAN_RADIAL_FACTOR == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("m", [CorrelationMatrix4((1.0, 0.5, 0.5, 0.5, 0.5, 1.0)), FLAT,
                                   CorrelationMatrix4.equicorrelated(-1.0 / 3.0)])
    def test_orbit_factor_rows_are_the_images(self, m):
        # row 12 i + j of the stacked factor is row i of F g_j, F padded
        # with zero columns to 4 x 3
        f = sample_factor(m)
        padded = np.hstack([f, np.zeros((4, 3 - f.shape[1]))])
        stacked = montecarlo._orbit_factor(f)
        for j, g in enumerate(montecarlo._ORBIT_MAPS):
            assert np.array_equal(stacked[j::12], padded @ g)

    @pytest.mark.parametrize("estimate", [estimate_max, estimate_order_stats])
    def test_zero_draw_is_finite(self, estimate, monkeypatch):
        # a zero draw has radius 0 and zero pair sums: its orbit sums are 0,
        # not 0 * inf
        monkeypatch.setattr(montecarlo, "_block_rng", lambda *key: ConstantDraws(0.0))
        result = estimate(CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1)), 20_000, 0)
        values = [v for v in vars(result).values() if isinstance(v, float)]
        values += list(getattr(result, "std_errors", ()))
        assert values and all(v == 0.0 for v in values), result


class TestOrbitEfficiency:
    """At equal n, the orbit estimate's standard error is well below that of
    plain antithetic pairs, each drawing its own normals."""

    @staticmethod
    def plain_antithetic_se(m: CorrelationMatrix4, n: int) -> float:
        # SE at n draws of the mean of pair averages (max(x) - min(x)) / 2,
        # x = F z, from the spread of 250,000 pairs
        rng = np.random.default_rng(99)
        f = sample_factor(m)
        q = np.ptp(f @ rng.standard_normal((f.shape[1], 250_000)), axis=0)
        return float(np.std(q / 2) / math.sqrt(n / 2))

    @pytest.mark.parametrize("m", [
        CorrelationMatrix4.identity(),
        CorrelationMatrix4.equicorrelated(-1.0 / 3.0),
        random_interior(np.random.default_rng(17), min_eig=0.05),
        random_psd(np.random.default_rng(18), 3),
    ], ids=["identity", "minus_third", "interior", "rank3_psd"])
    def test_se_is_at_most_0_6_of_plain(self, m):
        n = 2_000_000
        est = estimate_max(m, n, seed=19)
        assert est.std_error <= 0.6 * self.plain_antithetic_se(m, n)


class TestShiftInvariance:
    """A draw is the centred vector X - mean(X): both reducers read only
    differences of coordinates, so one constant added to every coordinate
    of a draw does not change its pair sums."""

    @pytest.mark.parametrize("reduce, k", [(montecarlo._max_rows, 1),
                                           (montecarlo._order_stat_rows, 3)])
    def test_pair_sums_ignore_a_shift_per_draw(self, reduce, k):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 10_001))
        shifted = x + 3 * rng.standard_normal(10_001)  # one constant per column
        q, q_shifted = np.empty((k, 10_001)), np.empty((k, 10_001))
        reduce(x, q)
        reduce(shifted, q_shifted)
        assert np.max(np.abs(q - q_shifted)) <= 1e-12


class TestBlockScheduler:
    """Each block of each shard is one task on the thread pool; which thread
    runs which block must not show in any result, and the pool must be gone
    when the call returns, whether it returned or raised."""

    M = CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1))

    def test_thread_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_BLOCK", 3_000)  # 4-7 blocks per shard
        before = threading.active_count()
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose a race
        try:
            for threads in ("1", "2", "4"):
                monkeypatch.setenv("GAUSSMAX_THREADS", threads)
                results.append((estimate_order_stats(self.M, 40_000, seed=6, shards=1),
                                estimate_max(self.M, 60_000, seed=6, shards=3)))
                assert threading.active_count() == before
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[1] == results[2]

    def test_reducer_error_raises_without_hang(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_BLOCK", 2_000)
        monkeypatch.setenv("GAUSSMAX_THREADS", "2")
        calls = itertools.count()
        max_rows = montecarlo._max_rows

        def fail_on_second_block(x, out):
            if next(calls) == 1:
                raise RuntimeError("second block")
            max_rows(x, out)

        monkeypatch.setattr(montecarlo, "_max_rows", fail_on_second_block)
        before = threading.active_count()
        raised = []

        def call():
            try:
                estimate_max(self.M, 20_000, seed=1, shards=1)
            except RuntimeError as exc:
                raised.append(str(exc))

        caller = threading.Thread(target=call)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert raised == ["second block"]
        assert threading.active_count() == before


class TestBlockStreams:
    """Block k of shard s draws from its own generator, keyed by
    (seed, s, k), one chunk at a time."""

    def test_draws_in_pieces_equal_one_call(self):
        pieces = (1, 7, montecarlo._CHUNK, 5_900)
        whole = montecarlo._block_rng(5, 1, 2).standard_normal((sum(pieces), 4))
        rng = montecarlo._block_rng(5, 1, 2)
        drawn = np.empty_like(whole)
        a = 0
        for size in pieces:
            rng.standard_normal(out=drawn[a:a + size])
            a += size
        assert np.array_equal(drawn, whole)

    def test_keys_give_distinct_streams(self):
        keys = list(itertools.product(range(3), range(3)))
        firsts = {montecarlo._block_rng(5, s, k).standard_normal(4).tobytes() for s, k in keys}
        assert len(firsts) == len(keys)

    @pytest.mark.parametrize("off", [
        (0.2, -0.1, 0.3, 0.0, -0.2, 0.1),
        (-1.0 / 3.0,) * 6,
        (1.0, 0.5, 0.5, 0.5, 0.5, 1.0),
        (1.0,) * 6,
    ])
    def test_each_orbit_draws_three_normals(self, off, monkeypatch):
        # the factor is padded to 4 x 3, so an orbit draws 3 normals whatever
        # the simplex's affine rank (3, 3, 1 and 0 here).  12,500 pairs per
        # shard: blocks of 9,996 and 2,504 pairs, the first 833 orbits drawn
        # in chunks of 400, 400 and 33, the second 208 orbits in one chunk and
        # then a partial orbit of 8 pairs, drawn alone.
        monkeypatch.setattr(montecarlo, "_BLOCK", 9_996)
        monkeypatch.setattr(montecarlo, "_CHUNK", 400)
        shapes = []
        block_rng = montecarlo._block_rng

        class Spy:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, out):
                shapes.append(out.shape)
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(montecarlo, "_block_rng", lambda *key: Spy(block_rng(*key)))
        estimate_max(CorrelationMatrix4(off), 50_000, 3, shards=2)
        expected = [(3, 400), (3, 400), (3, 33), (3, 208), (3, 1)] * 2
        assert sorted(shapes) == sorted(expected)


class TestPeakMemory:
    """Each worker holds one buffer set, reused by all its blocks and chunks:
    one chunk of draws, of their transform and of their (k, c) pair sums; no
    (b, r) draws, no (4, b) transform and no (k, b) pair sums of a block."""

    @pytest.mark.parametrize("estimate, n, shards, limit_mb", [
        (estimate_order_stats, 2_000_000, 1, 3), (estimate_max, 10_000_000, 5, 2.5),
    ])
    def test_peak_traced_memory(self, estimate, n, shards, limit_mb, monkeypatch):
        # an interior and a boundary matrix, each drawing 3 normals per pair,
        # and the flat tetrahedron, which draws 2.  Each call runs once
        # untraced first, so that the one-time allocations of a process's
        # first Monte-Carlo call (imports, caches) are not counted.
        monkeypatch.setenv("GAUSSMAX_THREADS", "2")
        for m in (CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1)),
                  CorrelationMatrix4.equicorrelated(-1.0 / 3.0), FLAT):
            estimate(m, n, 7, shards=shards)
            tracemalloc.start()
            try:
                estimate(m, n, 7, shards=shards)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit_mb * 2 ** 20, (m, peak / 2 ** 20)


def test_blas_thread_count_does_not_change_results():
    # OpenBLAS splits a long dot product across its threads, which would
    # change the sums of squares, hence the standard errors, in the last bits
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    code = ("from gaussmax.corrmat import CorrelationMatrix4 as C\n"
            "from gaussmax.montecarlo import estimate_max, estimate_order_stats\n"
            "m = C((0.2, -0.1, 0.3, 0.0, -0.2, 0.1))\n"
            "print(repr(estimate_max(m, 1_000_000, 3)))\n"
            "print(repr(estimate_order_stats(m, 2_000_000, 3, shards=1)))\n")
    out = []
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]


def test_mc_convergence_script_runs():
    root = pathlib.Path(__file__).resolve().parents[1]
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "mc_convergence.py")],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *lines = proc.stdout.splitlines()[1:]
    assert header.split()[-1] == "se*sqrt(n)"
    rows = [line.split() for line in lines]
    assert [int(row[0]) for row in rows] == [10_000, 100_000, 1_000_000, 10_000_000]
    assert all(len(row) == 5 and math.isfinite(float(row[3])) for row in rows)
    # the spread per sample is the printed SE (3 digits) times sqrt(n), and
    # does not grow or shrink with n
    per_sample = [float(row[4]) for row in rows]
    assert all(abs(float(row[2]) * math.sqrt(int(row[0])) - v) <= 0.005 * v
               for row, v in zip(rows, per_sample))
    assert 0 < min(per_sample) and max(per_sample) <= 1.5 * min(per_sample)
