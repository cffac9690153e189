"""Monte-Carlo oracle: sampling X ~ N(0, corr) and estimating the expected
maximum and the four order-statistic means.

Reproducibility contract: results depend only on (matrix, n, seed, shards) --
never on a thread count, GAUSSMAX_THREADS or the BLAS library's
(OPENBLAS_NUM_THREADS).  Shard s draws from Philox keyed by
SeedSequence(seed, spawn_key=(s,)), and shard partials are reduced in shard
order with exact summation.

The n draws are n/2 antithetic pairs (x, -x), and the pair is the unit of
reduction: a statistic f is summed as its pair sums q = f(x) + f(-x), its
mean is sum(q) / n and its standard error is that of the mean of the n/2
pair averages q/2.  The mate -x has the draw's order statistics negated and
reversed, so e3 = -e2 and e4 = -e1 exactly.

Each shard draws in blocks of _BLOCK pairs.  One block of one shard is one
task on the thread pool: it draws its standard normals, submits the shard's
next block (which draws from the same generator, so the draws come in the
same order whichever thread runs them) and then reduces its own pair sums to
per-block sums.  A shard's sums add those in block order, so _BLOCK fixes
the summation order: changing it changes results in the last bits.  Within
a block the standard normals are transformed by the factor one _CHUNK at a
time, into a transposed chunk buffer, so that no transformed copy of the
whole block is held and max, min and the sorting network run on contiguous
rows.  The chunk products equal the rows of the whole-block product, and
max, min and the network are exact elementwise operations; the sums that
follow see the same full-block arrays whatever the chunk size, so _CHUNK
does not change results.  Sums of squares are taken with einsum, not BLAS,
whose dot product splits across its threads.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .corrmat import (CorrelationMatrix4, DomainTag, _check_count, _unit_classes, classify,
                      eigen_factor)

_BLOCK = 500_000  # pairs per shard block; bounds peak memory
_CHUNK = 8_192  # draws per transposed chunk; sized to stay in cache


def thread_count() -> int:
    """Worker threads, capped by the GAUSSMAX_THREADS env var (0 = auto).  A
    value that is not an integer is ignored with a RuntimeWarning."""
    raw = os.environ.get("GAUSSMAX_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        warnings.warn(f"GAUSSMAX_THREADS={raw!r} is not an integer; using the automatic "
                      "thread count", RuntimeWarning, stacklevel=2)
        cap = 0
    if cap <= 0:
        return min(8, os.cpu_count() or 1)
    return cap


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class OrderStats:
    """Estimated means of the order statistics, largest (e1) to smallest (e4).

    Every standard error is taken over the n/2 antithetic pairs, and
    e3 = -e2, e4 = -e1, std_errors = (se1, se2, se2, se1).
    se_third_identity and se_second_identity are the standard errors of the
    in-sample residuals e3 - 3*e1 and e2 + 3*e1 used by the order-statistic
    identity checks; they are equal, as the residuals' pair sums are each
    other's negation.
    """

    e1: float
    e2: float
    e3: float
    e4: float
    std_errors: tuple[float, float, float, float]
    se_third_identity: float
    se_second_identity: float
    n_samples: int
    seed: int


def sample_factor(m: CorrelationMatrix4) -> np.ndarray:
    """4x4 factor L with L @ L.T equal to the matrix: Cholesky when positive
    definite, eigen-based with eigenvalues clipped at 0 otherwise.  The
    members of a unit class are one variable, drawn from one row: the first
    member's."""
    cls = classify(m)
    if cls.tag is DomainTag.INVALID:
        raise ValueError("not a correlation matrix")
    if cls.tag is DomainTag.INTERIOR_S:
        return np.linalg.cholesky(m.matrix())
    factor = eigen_factor(m)[1]
    if cls.tag is DomainTag.DEGENERATE_UNIT_PAIR:
        for members in _unit_classes(m):
            factor[members] = factor[members[0]]
    return factor


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(shard,))))


def _shard_sizes(pairs: int, shards: int) -> list[int]:
    base, extra = divmod(pairs, shards)
    return [base + (1 if s < extra else 0) for s in range(shards)]


def _default_shards(n: int) -> int:
    return max(1, math.ceil(n / 2_000_000))


def _check_args(n: int, shards):
    _check_count("n", n, 10_000)
    if shards is not None:
        _check_count("shards", shards, 1)
    if n % 2:
        raise ValueError("antithetic sampling needs an even sample count")


def _sample_sums(m: CorrelationMatrix4, n: int, seed: int, shards: int | None,
                 pair_rows) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-row sums of the pair sums q and of q**2 over n/2 antithetic
    pairs.

    ``pair_rows(z, lt)`` takes one block of standard normals z, shape (b, 4),
    whose draws x are the rows of ``z @ lt``, and returns a (k, b) array
    whose column j holds the pair sums f(x) + f(-x) of k statistics f at
    draw j, from exact elementwise operations.

    Each block of each shard is one task, which submits its shard's next
    block as soon as it has drawn its own, so that a free thread draws while
    this one reduces.  A shard's sums add its blocks' sums in block order,
    and the shard partials are reduced in shard order with exact summation.
    """
    _check_args(n, shards)
    nshards = shards if shards is not None else _default_shards(n)
    lt = sample_factor(m).T
    sizes = _shard_sizes(n // 2, nshards)

    def block(rng: np.random.Generator, left: int):
        z = rng.standard_normal((min(left, _BLOCK), 4))
        rest = left - len(z)
        following = pool.submit(block, rng, rest) if rest else None
        q = pair_rows(z, lt)
        del z  # free the draws before the sums
        return (q.sum(axis=1), np.einsum("ij,ij->i", q, q)), following

    def shard_sums(task) -> tuple[np.ndarray, np.ndarray]:
        (s, s2), task = task.result()
        while task is not None:
            (a, a2), task = task.result()
            s += a
            s2 += a2
        return s, s2

    blocks = sum(-(-size // _BLOCK) for size in sizes)
    with ThreadPoolExecutor(max_workers=min(thread_count(), blocks)) as pool:
        try:
            heads = [pool.submit(block, _shard_rng(seed, shard), size)
                     for shard, size in enumerate(sizes) if size]
            parts = [shard_sums(task) for task in heads]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    sums, squares = zip(*parts)
    return (np.array([math.fsum(col) for col in zip(*sums)]),
            np.array([math.fsum(col) for col in zip(*squares)]))


def _mean_se(s: np.ndarray, s2: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Means and standard errors of n draws' statistics from the sums s and
    s2 of their pair sums q and of q**2: the mean is s / n, and the n/2 pair
    averages q/2 have variance s2 / (2n) - mean**2."""
    mean = s / n
    var = np.maximum(s2 / (2 * n) - mean ** 2, 0.0)
    return mean, np.sqrt(2 * var / n)


def _transposed_chunks(z: np.ndarray, lt: np.ndarray):
    """Yield ``(rows, t)`` over the (b, 4) standard draws z in runs of
    _CHUNK, where t is ``(z[rows] @ lt).T``, a contiguous (4, k) array held
    in one reused buffer, so that no transform of the whole block is held.

    The chunk product equals those rows of ``z @ lt`` bit for bit, except
    that numpy multiplies a lone row by a vector kernel whose bits differ:
    a one-row chunk of a longer block is multiplied together with a
    neighbouring row.
    """
    b = len(z)
    buf = np.empty((4, min(_CHUNK, b)))
    for a in range(0, b, _CHUNK):
        rows = slice(a, min(a + _CHUNK, b))
        t = buf[:, :rows.stop - a]
        if t.shape[1] > 1 or b == 1:
            np.matmul(lt.T, z[rows].T, out=t)
        else:  # a lone row of a longer block: multiply it with a neighbour
            p = min(a, b - 2)
            np.copyto(t, (lt.T @ z[p:p + 2].T)[:, a - p:a - p + 1])
        yield rows, t


def _max_rows(z: np.ndarray, lt: np.ndarray) -> np.ndarray:
    """The (1, b) pair sums of the maximum, max(x) + max(-x) = max(x) - min(x)."""
    q = np.empty((1, len(z)))
    for rows, t in _transposed_chunks(z, lt):
        np.ptp(t, axis=0, out=q[0, rows])
    return q


def estimate_max(m: CorrelationMatrix4, n: int, seed: int, shards: int | None = None) -> MCEstimate:
    """Sample mean of max(X_1..X_4) over n draws (n/2 antithetic pairs)."""
    mean, se = _mean_se(*_sample_sums(m, n, seed, shards, _max_rows), n)
    return MCEstimate(mean=float(mean[0]), std_error=float(se[0]), n_samples=n, seed=seed)


def _sorted_rows(z: np.ndarray, lt: np.ndarray) -> np.ndarray:
    """The (4, b) array ``np.sort(z @ lt, axis=1).T``, from a 5-comparator
    sorting network of np.minimum/np.maximum over contiguous chunk rows."""
    asc = np.empty((4, len(z)))
    scratch = np.empty((4, min(_CHUNK, len(z))))
    for rows, t in _transposed_chunks(z, lt):
        u = scratch[:, :t.shape[1]]
        x0, x1, x2, x3 = asc[:, rows]
        np.minimum(t[0], t[1], out=u[0])
        np.maximum(t[0], t[1], out=u[1])
        np.minimum(t[2], t[3], out=u[2])
        np.maximum(t[2], t[3], out=u[3])
        # t is free from here on and holds the two middle candidates
        np.minimum(u[0], u[2], out=x0)
        np.maximum(u[0], u[2], out=t[0])
        np.minimum(u[1], u[3], out=t[1])
        np.maximum(u[1], u[3], out=x3)
        np.minimum(t[0], t[1], out=x1)
        np.maximum(t[0], t[1], out=x2)
    return asc


def _order_stat_rows(z: np.ndarray, lt: np.ndarray) -> np.ndarray:
    """The (3, b) pair sums of e1, e2 and e2 + 3 e1, built in place in the
    sorted rows: the mate -x sorts to -x reversed, so they are x(1) - x(4),
    x(2) - x(3) and (x(2) - x(3)) + 3 (x(1) - x(4)) in descending order."""
    asc = _sorted_rows(z, lt)
    np.subtract(asc[3], asc[0], out=asc[0])
    np.subtract(asc[2], asc[1], out=asc[1])
    np.multiply(asc[0], 3.0, out=asc[2])
    asc[2] += asc[1]
    return asc[:3]


def estimate_order_stats(m: CorrelationMatrix4, n: int, seed: int,
                         shards: int | None = None) -> OrderStats:
    """Means of the four order statistics over n draws (antithetic pairs)."""
    (e1, e2, _), (se1, se2, se_identity) = _mean_se(
        *_sample_sums(m, n, seed, shards, _order_stat_rows), n)
    return OrderStats(
        e1=e1, e2=e2, e3=-e2, e4=-e1,
        std_errors=(se1, se2, se2, se1),
        se_third_identity=float(se_identity),
        se_second_identity=float(se_identity),
        n_samples=n, seed=seed,
    )
