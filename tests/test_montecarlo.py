import itertools
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import F_IID4

from gaussmax import montecarlo
from gaussmax.closedform import f_max
from gaussmax.corrmat import CorrelationMatrix4, _unit_classes
from gaussmax.montecarlo import (
    estimate_max,
    estimate_order_stats,
    sample_factor,
    thread_count,
)


class TestSampleFactor:
    def test_identity(self):
        l = sample_factor(CorrelationMatrix4.identity())
        assert np.allclose(l @ l.T, np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("m, rank, atol", [
        (CorrelationMatrix4.identity(), 4, 1e-14),
        (CorrelationMatrix4.equicorrelated(-1.0 / 3.0), 3, 1e-10),
        (CorrelationMatrix4((1.0, 0.5, 0.5, 0.5, 0.5, 1.0)), 2, 1e-14),
        (CorrelationMatrix4.equicorrelated(1.0), 1, 1e-12),
    ])
    def test_one_column_per_unit_of_rank(self, m, rank, atol):
        # a pair draws one normal per column, so a singular matrix's factor
        # drops the columns of its zero eigenvalues
        l = sample_factor(m)
        assert l.shape == (4, rank)
        assert np.max(np.abs(l @ l.T - m.matrix())) <= atol

    def test_rank3_boundary(self):
        m = CorrelationMatrix4.equicorrelated(-1.0 / 3.0)
        l = sample_factor(m)
        assert np.max(np.abs(l @ l.T - m.matrix())) <= 1e-10
        assert np.linalg.matrix_rank(l, tol=1e-8) == 3

    def test_rank1_all_ones(self):
        m = CorrelationMatrix4.equicorrelated(1.0)
        l = sample_factor(m)
        assert np.max(np.abs(l @ l.T - m.matrix())) <= 1e-12
        assert np.linalg.matrix_rank(l, tol=1e-8) == 1

    def test_interior_battery(self, battery20):
        for m in battery20:
            l = sample_factor(m)
            assert np.max(np.abs(l @ l.T - m.matrix())) <= 1e-12

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

    def test_malformed_thread_cap_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("GAUSSMAX_THREADS", "abc")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        with pytest.warns(RuntimeWarning, match="'abc'"):
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
        # pins the draw stream (SFC64 keyed by (seed, shard, block)) and each
        # block's float sum; here each shard is one block, and the block sums
        # are added exactly, so no order of addition enters, nor does _CHUNK.
        # Both values were recorded when each block got its own generator.
        m = CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1))
        est = estimate_max(m, 200_000, seed=5, shards=3)
        assert est.mean == 0.9940831612560901
        assert est.std_error == 0.0013935021650408413

    def test_golden_value_multi_block(self):
        # one shard of 200,000 pairs: three blocks of 65,536 and one of 3,392,
        # so this pins the block size and the block keys, which the one-block
        # shards above do not.  Recorded when the block size became 65,536.
        m = CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1))
        est = estimate_max(m, 400_000, seed=5, shards=1)
        assert (est.mean, est.std_error) == (0.994941745935971, 0.0009826930827270808)
        os_ = estimate_order_stats(m, 400_000, seed=5, shards=1)
        assert (os_.e1, os_.e2) == (0.994941745935971, 0.3003253618904124)
        assert os_.std_errors[:2] == (0.0009826930827270897, 0.0005768843909215644)
        assert os_.se_third_identity == 0.003250226487456813

    def test_golden_value_rank3(self):
        # the all -1/3 maximizer has rank 3, so each pair draws 3 normals;
        # pins the eigen factor without its null column as well as the streams.
        # Recorded when singular matrices began to draw one normal per unit
        # of rank.
        m = CorrelationMatrix4.equicorrelated(-1.0 / 3.0)
        est = estimate_max(m, 400_000, seed=5, shards=1)
        assert (est.mean, est.std_error) == (1.1887816468487862, 0.0011368976370538303)
        os_ = estimate_order_stats(m, 400_000, seed=5, shards=1)
        assert (os_.e1, os_.e2) == (1.1887816468487862, 0.3437066135606185)
        assert os_.std_errors[:2] == (0.0011368976370538303, 0.0006458251218036075)
        assert os_.se_third_identity == 0.003717140976471802

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
        assert np.max(np.abs(l @ l.T - m.matrix())) <= 1e-14
        est = estimate_max(m, 100_000, seed=3)
        os_ = estimate_order_stats(m, 100_000, seed=3)
        # every class has two or four members, so the top two coordinates tie
        assert os_.e1 == os_.e2 == est.mean
        assert abs(est.mean - f_max(m)) <= 4 * est.std_error


class TestChunkedReduction:
    """The reducers read each block in transposed chunks of _CHUNK draws; the
    chunk size must not show in any result."""

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_chunk_size_is_invisible(self, chunk, monkeypatch):
        # 10_000 is a multiple of none of the chunk sizes, the default included;
        # a rank-4 and a rank-3 matrix, which draws 3 normals per pair
        monkeypatch.setattr(montecarlo, "_BLOCK", 10_000)
        default = montecarlo._CHUNK
        for m in (CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1)),
                  CorrelationMatrix4.equicorrelated(-1.0 / 3.0)):
            monkeypatch.setattr(montecarlo, "_CHUNK", default)
            ref_max = estimate_max(m, 50_000, seed=3, shards=2)
            ref_os = estimate_order_stats(m, 50_000, seed=3, shards=2)
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            assert estimate_max(m, 50_000, seed=3, shards=2) == ref_max
            assert estimate_order_stats(m, 50_000, seed=3, shards=2) == ref_os

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


class TestExactSum:
    """The block sums are added exactly, whichever thread ran each block."""

    def test_block_sums_are_added_exactly(self, monkeypatch):
        # 10_000 pairs in one shard: 1,428 blocks of 7 pairs and one of 4,
        # every pair sum 0.1 whatever the draws
        monkeypatch.setattr(montecarlo, "_BLOCK", 7)
        monkeypatch.setenv("GAUSSMAX_THREADS", "2")
        s, s2 = montecarlo._sample_sums(CorrelationMatrix4.identity(), 20_000, 0, 1,
                                        lambda x, out: out.fill(0.1), 1)
        blocks = [np.full((1, b), 0.1) for b in [7] * 1_428 + [4]]
        assert s.tolist() == [math.fsum(q.sum(axis=1)[0] for q in blocks)]
        assert s2.tolist() == [math.fsum(np.einsum("ij,ij->i", q, q)[0] for q in blocks)]


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

    @pytest.mark.parametrize("off, rank", [
        ((0.2, -0.1, 0.3, 0.0, -0.2, 0.1), 4),
        ((-1.0 / 3.0,) * 6, 3),
        ((1.0, 0.5, 0.5, 0.5, 0.5, 1.0), 2),
        ((1.0,) * 6, 1),
    ])
    def test_each_pair_draws_rank_normals(self, off, rank, monkeypatch):
        # 12,500 pairs per shard: blocks of 10,000 and 2,500 pairs, the first
        # drawn in chunks of 4,096, 4,096 and 1,808 pairs
        monkeypatch.setattr(montecarlo, "_BLOCK", 10_000)
        monkeypatch.setattr(montecarlo, "_CHUNK", 4_096)
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
        expected = [(4_096, rank), (4_096, rank), (1_808, rank), (2_500, rank)] * 2
        assert sorted(shapes) == sorted(expected)


class TestPeakMemory:
    """Each worker holds one buffer set, reused by all its blocks: a block's
    (k, b) pair sums and one chunk of draws and of their transform; no
    (b, r) draws and no (4, b) transform of the block."""

    @pytest.mark.parametrize("estimate, n, shards, limit_mb", [
        (estimate_order_stats, 2_000_000, 1, 8), (estimate_max, 10_000_000, 5, 4),
    ])
    def test_peak_traced_memory(self, estimate, n, shards, limit_mb, monkeypatch):
        # a rank-4 matrix and a rank-3 one, whose draw buffer is smaller
        monkeypatch.setenv("GAUSSMAX_THREADS", "2")
        for m in (CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1)),
                  CorrelationMatrix4.equicorrelated(-1.0 / 3.0)):
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
