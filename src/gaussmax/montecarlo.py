"""Monte-Carlo oracle: sampling X ~ N(0, corr) and estimating the expected
maximum and the four order-statistic means.

Reproducibility contract: results depend only on (matrix, n, seed, shards) --
never on a thread count, GAUSSMAX_THREADS or the BLAS library's
(OPENBLAS_NUM_THREADS).  The n/2 pairs are split evenly over the shards,
each of which needs at least one pair (so shards <= n // 2, else
ValueError), and each shard into blocks of _BLOCK pairs.  Block k of shard
s draws from its own SFC64 generator, keyed by SeedSequence(seed,
spawn_key=(s, k)), so each block is an independent task on the thread pool
and its draws do not depend on which thread runs it or when.  The block sums are added exactly
(math.fsum), so no order of addition enters the result.

The n draws are n/2 antithetic pairs (x, -x), and the pair is the unit of
reduction: a statistic f is summed as its pair sums q = f(x) + f(-x), its
mean is sum(q) / n and its standard error is that of the mean of the n/2
pair averages q/2.  The mate -x has the draw's order statistics negated and
reversed, so e3 = -e2 and e4 = -e1 exactly.

A block of b = _BLOCK = 65,536 pairs (fewer in a shard's last block)
draws _CHUNK pairs at a time into one reused buffer, transforms them by the
factor into a contiguous (4, c) array and writes their pair sums into the
block's (k, b) array, so that no (b, 4) draws and no transform of the whole
block are held: a running block holds its (k, b) pair sums, at most 1.5 MiB
for the three rows of the order statistics, plus one chunk.  Drawing in
pieces gives the same stream as one call, each transformed column depends
on its own draw alone, and max, min and the sorting network are exact
elementwise operations; the block's sums are taken over the whole (k, b)
array.  So _CHUNK does not change results, while _BLOCK does: it fixes the
keys of the streams and which pairs each block's float sum adds.  Sums of
squares are taken with einsum, not BLAS, whose dot product splits across
its threads.
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

_CHUNK = 8_192  # pairs drawn at a time; sized to stay in cache
_BLOCK = 8 * _CHUNK  # 65,536 pairs per block, one pool task; bounds peak memory


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
    factor = eigen_factor(m)
    if cls.tag is DomainTag.DEGENERATE_UNIT_PAIR:
        for members in _unit_classes(m):
            factor[members] = factor[members[0]]
    return factor


def _block_rng(seed: int, shard: int, block: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(shard, block))))


def _shard_sizes(pairs: int, shards: int) -> list[int]:
    base, extra = divmod(pairs, shards)
    return [base + (1 if s < extra else 0) for s in range(shards)]


def _default_shards(n: int) -> int:
    return max(1, math.ceil(n / 2_000_000))


def _check_args(n: int, shards):
    _check_count("n", n, 10_000)
    if shards is not None:
        _check_count("shards", shards, 1)
        if shards > n // 2:
            raise ValueError(f"shards must be <= n // 2 = {n // 2}, one pair each, got {shards}")
    if n % 2:
        raise ValueError("antithetic sampling needs an even sample count")


def _sample_sums(m: CorrelationMatrix4, n: int, seed: int, shards: int | None,
                 pair_rows) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-row sums of the pair sums q and of q**2 over n/2 antithetic
    pairs.

    ``pair_rows(z, lt)`` takes one chunk of standard normals z, shape (c, 4),
    whose draws x are the rows of ``z @ lt``, and returns a (k, c) array
    whose column j holds the pair sums f(x) + f(-x) of k statistics f at
    draw j, from exact elementwise operations.  Each block is one pool
    task and draws from its (seed, s, k) stream; the block sums are added
    exactly.
    """
    _check_args(n, shards)
    nshards = shards if shards is not None else _default_shards(n)
    lt = sample_factor(m).T
    sizes = _shard_sizes(n // 2, nshards)

    def block_sums(shard: int, block: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        rng = _block_rng(seed, shard, block)
        z = np.empty((min(_CHUNK, b), 4))
        q = None
        for a in range(0, b, _CHUNK):
            chunk = z[:min(_CHUNK, b - a)]
            rng.standard_normal(out=chunk)
            rows = pair_rows(chunk, lt)
            if q is None:  # the first chunk tells the number of statistics
                q = np.empty((len(rows), b))
            q[:, a:a + len(chunk)] = rows
        return q.sum(axis=1), np.einsum("ij,ij->i", q, q)

    keys = [(shard, k, min(_BLOCK, size - a))
            for shard, size in enumerate(sizes) for k, a in enumerate(range(0, size, _BLOCK))]
    with ThreadPoolExecutor(max_workers=min(thread_count(), len(keys))) as pool:
        sums, squares = zip(*pool.map(block_sums, *zip(*keys)))
    return (np.array([math.fsum(col) for col in zip(*sums)]),
            np.array([math.fsum(col) for col in zip(*squares)]))


def _mean_se(s: np.ndarray, s2: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Means and standard errors of n draws' statistics from the sums s and
    s2 of their pair sums q and of q**2: the mean is s / n, and the n/2 pair
    averages q/2 have variance s2 / (2n) - mean**2."""
    mean = s / n
    var = np.maximum(s2 / (2 * n) - mean ** 2, 0.0)
    return mean, np.sqrt(2 * var / n)


def _transposed(z: np.ndarray, lt: np.ndarray) -> np.ndarray:
    """``(z @ lt).T``, a contiguous (4, c) array whose rows max, min and the
    sorting network read.

    Each column depends on its own draw alone, whatever the chunk, except
    that numpy multiplies a lone row by a vector kernel whose bits differ:
    a lone row is multiplied together with a copy of itself.
    """
    if len(z) == 1:
        return (lt.T @ np.repeat(z, 2, axis=0).T)[:, :1].copy()
    return lt.T @ z.T


def _max_rows(z: np.ndarray, lt: np.ndarray) -> np.ndarray:
    """The (1, c) pair sums of the maximum, max(x) + max(-x) = max(x) - min(x)."""
    return np.ptp(_transposed(z, lt), axis=0, keepdims=True)


def estimate_max(m: CorrelationMatrix4, n: int, seed: int, shards: int | None = None) -> MCEstimate:
    """Sample mean of max(X_1..X_4) over n draws (n/2 antithetic pairs)."""
    mean, se = _mean_se(*_sample_sums(m, n, seed, shards, _max_rows), n)
    return MCEstimate(mean=float(mean[0]), std_error=float(se[0]), n_samples=n, seed=seed)


def _sorted_rows(z: np.ndarray, lt: np.ndarray) -> np.ndarray:
    """The (4, c) array ``np.sort(z @ lt, axis=1).T``, from a 5-comparator
    sorting network of np.minimum/np.maximum over contiguous rows."""
    t = _transposed(z, lt)
    u = np.empty_like(t)
    asc = np.empty_like(t)
    np.minimum(t[0], t[1], out=u[0])
    np.maximum(t[0], t[1], out=u[1])
    np.minimum(t[2], t[3], out=u[2])
    np.maximum(t[2], t[3], out=u[3])
    # t is free from here on and holds the two middle candidates
    np.minimum(u[0], u[2], out=asc[0])
    np.maximum(u[0], u[2], out=t[0])
    np.minimum(u[1], u[3], out=t[1])
    np.maximum(u[1], u[3], out=asc[3])
    np.minimum(t[0], t[1], out=asc[1])
    np.maximum(t[0], t[1], out=asc[2])
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
