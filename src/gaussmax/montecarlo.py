"""Monte-Carlo oracle: sampling X ~ N(0, corr) and estimating the expected
maximum and the four order-statistic means.

Reproducibility contract: results depend only on (matrix, n, seed, shards) --
never on a thread count, GAUSSMAX_THREADS or the BLAS library's
(OPENBLAS_NUM_THREADS).  The n/2 pairs are split evenly over the shards,
each of which needs at least one pair (so shards <= n // 2, else
ValueError), and each shard into blocks of _BLOCK pairs.  Block k of shard
s draws from its own SFC64 generator, keyed by SeedSequence(seed,
spawn_key=(s, k)), so each block is an independent task on the thread pool
and its draws do not depend on which thread runs it or when.  The block
sums are added exactly (math.fsum), so no order of addition enters the
result.

A draw is x = L z for the 4 x r factor L of ``sample_factor``, r the
matrix's rank (4 inside the elliptope), so each pair takes r standard
normals.  The n draws are n/2 antithetic pairs (x, -x), and the pair is the
unit of reduction: a statistic f is summed as its pair sums
q = f(x) + f(-x), its mean is sum(q) / n and its standard error is that of
the mean of the n/2 pair averages q/2.  The mate -x has the draw's order
statistics negated and reversed, so e3 = -e2 and e4 = -e1 exactly.

A block of b = _BLOCK = 65,536 pairs (fewer in a shard's last block) draws
_CHUNK pairs at a time, transforms them by the factor into a (4, c) array
and writes their pair sums straight into the block's (k, b) array.  Each
pool worker allocates these three buffers once per call and reuses them for
every block it runs, so a running block holds its (k, b) pair sums, at most
1.5 MiB for the three rows of the order statistics, plus one chunk, and no
chunk allocates.  Drawing in pieces gives the same stream as one call, each
transformed column depends on its own draw alone, and max, min and the
sorting network are exact elementwise operations; the block's sums are
taken over the whole (k, b) array.  So _CHUNK does not change results,
while _BLOCK does: it fixes the keys of the streams and which pairs each
block's float sum adds.  Sums of squares are taken with einsum, not BLAS,
whose dot product splits across its threads.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .corrmat import (EPS_PSD, CorrelationMatrix4, DomainTag, _check_count, _unit_classes,
                      classify)

_CHUNK = 16_384  # pairs drawn at a time; its draws and transform (1 MiB) stay in L2 cache
_BLOCK = 65_536  # pairs per block, one pool task; bounds peak memory


def thread_count() -> int:
    """Worker threads, capped by the GAUSSMAX_THREADS env var (0 = auto: the
    CPUs this process may run on, at most 8).  A value that is not an
    integer is ignored with a RuntimeWarning."""
    raw = os.environ.get("GAUSSMAX_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        warnings.warn(f"GAUSSMAX_THREADS={raw!r} is not an integer; using the automatic "
                      "thread count", RuntimeWarning, stacklevel=2)
        cap = 0
    if cap > 0:
        return cap
    if hasattr(os, "sched_getaffinity"):  # where the OS can tell
        return min(8, len(os.sched_getaffinity(0)))
    return min(8, os.cpu_count() or 1)


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
    """4 x r factor L with L @ L.T equal to the matrix, r its rank, so that a
    draw L z takes r standard normals: the Cholesky factor (r = 4) when
    positive definite, else the eigen factor u sqrt(w) without the columns
    of eigenvalue w <= EPS_PSD, the bound ``classify`` puts on the smallest
    eigenvalue.  The members of a unit class are one variable, drawn from
    one row: the first member's."""
    cls = classify(m)
    if cls.tag is DomainTag.INVALID:
        raise ValueError("not a correlation matrix")
    if cls.tag is DomainTag.INTERIOR_S:
        return np.linalg.cholesky(m.matrix())
    w, u = np.linalg.eigh(m.matrix())
    keep = w > EPS_PSD
    factor = u[:, keep] * np.sqrt(w[keep])
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
                 pair_rows, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-row sums of the pair sums q and of q**2 over n/2 antithetic
    pairs.

    ``pair_rows(x, out)`` takes one chunk of draws x, a (4, c) array whose
    column j is draw j, and writes into the (k, c) array out, column j, the
    pair sums f(x) + f(-x) of k statistics f at draw j, from exact
    elementwise operations; it may overwrite x.  Each block is one pool
    task and draws from its (seed, shard, block) stream into its worker's
    buffers; the block sums are added exactly.
    """
    _check_args(n, shards)
    nshards = shards if shards is not None else _default_shards(n)
    factor = sample_factor(m)
    r = factor.shape[1]
    sizes = _shard_sizes(n // 2, nshards)
    local = threading.local()

    def block_sums(shard: int, block: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        if not hasattr(local, "buffers"):  # one set per worker, reused by its blocks
            local.buffers = (np.empty(_CHUNK * r), np.empty(4 * _CHUNK), np.empty(k * _BLOCK))
        zs, xs, qs = local.buffers
        rng = _block_rng(seed, shard, block)
        q = qs[:k * b].reshape(k, b)
        for a in range(0, b, _CHUNK):
            c = min(_CHUNK, b - a)
            z = zs[:c * r].reshape(c, r)
            x = xs[:4 * c].reshape(4, c)
            rng.standard_normal(out=z)
            _transform(factor, z, x)
            pair_rows(x, q[:, a:a + c])
        return q.sum(axis=1), np.einsum("ij,ij->i", q, q)

    keys = [(shard, block, min(_BLOCK, size - a))
            for shard, size in enumerate(sizes) for block, a in enumerate(range(0, size, _BLOCK))]
    with ThreadPoolExecutor(max_workers=min(thread_count(), len(keys))) as pool:
        sums, squares = zip(*pool.map(block_sums, *zip(*keys)))
    return (np.array([math.fsum(col) for col in zip(*sums)]),
            np.array([math.fsum(col) for col in zip(*squares)]))


def _mean_se(s: np.ndarray, s2: np.ndarray, n: int) -> tuple[list[float], list[float]]:
    """Means and standard errors of n draws' statistics from the sums s and
    s2 of their pair sums q and of q**2: the mean is s / n, and the n/2 pair
    averages q/2 have variance s2 / (2n) - mean**2."""
    mean = s / n
    var = np.maximum(s2 / (2 * n) - mean ** 2, 0.0)
    return mean.tolist(), np.sqrt(2 * var / n).tolist()


def _transform(factor: np.ndarray, z: np.ndarray, out: np.ndarray) -> None:
    """Write ``factor @ z.T`` into the contiguous (4, c) array out: column j
    is the draw of the normals in row j of z, and max, min and the sorting
    network read its rows.

    Each column depends on its own draw alone, whatever the chunk, except
    that numpy multiplies a lone row by a vector kernel whose bits differ:
    a lone row is multiplied together with a copy of itself.
    """
    if len(z) == 1:
        out[:] = (factor @ np.repeat(z, 2, axis=0).T)[:, :1]
    else:
        np.matmul(factor, z.T, out=out)


def _max_rows(x: np.ndarray, out: np.ndarray) -> None:
    """The pair sums of the maximum, max(x) + max(-x) = max(x) - min(x),
    into out[0]; the minimum is kept in x[0]."""
    hi, lo = out[0], x[0]
    np.maximum(x[0], x[1], out=hi)
    np.minimum(x[0], x[1], out=lo)
    for row in x[2:]:
        np.maximum(hi, row, out=hi)
        np.minimum(lo, row, out=lo)
    np.subtract(hi, lo, out=hi)


def estimate_max(m: CorrelationMatrix4, n: int, seed: int, shards: int | None = None) -> MCEstimate:
    """Sample mean of max(X_1..X_4) over n draws (n/2 antithetic pairs)."""
    (mean,), (se,) = _mean_se(*_sample_sums(m, n, seed, shards, _max_rows, 1), n)
    return MCEstimate(mean=mean, std_error=se, n_samples=n, seed=seed)


def _sorted_rows(x: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows of the (4, c) array x sorted elementwise, ascending, by a
    5-comparator network of np.minimum/np.maximum in place: four rows of x
    and work, one spare row of c values, hold them in a shuffled order."""
    np.minimum(x[0], x[1], out=work)
    np.maximum(x[0], x[1], out=x[1])
    np.minimum(x[2], x[3], out=x[0])
    np.maximum(x[2], x[3], out=x[3])
    # the two minima are in work and x[0], the two maxima in x[1] and x[3]
    np.minimum(work, x[0], out=x[2])
    np.maximum(work, x[0], out=x[0])
    np.minimum(x[1], x[3], out=work)
    np.maximum(x[1], x[3], out=x[3])
    # x[2] and x[3] hold the extremes, x[0] and work the middle two
    np.minimum(x[0], work, out=x[1])
    np.maximum(x[0], work, out=x[0])
    return x[2], x[1], x[0], x[3]


def _order_stat_rows(x: np.ndarray, out: np.ndarray) -> None:
    """The (3, c) pair sums of e1, e2 and e2 + 3 e1 into out: the mate -x
    sorts to -x reversed, so they are x(1) - x(4), x(2) - x(3) and
    (x(2) - x(3)) + 3 (x(1) - x(4)) in descending order.  The network's
    spare row is out[2], written last."""
    lo, low2, high2, hi = _sorted_rows(x, out[2])
    np.subtract(hi, lo, out=out[0])
    np.subtract(high2, low2, out=out[1])
    np.multiply(out[0], 3.0, out=out[2])
    out[2] += out[1]


def estimate_order_stats(m: CorrelationMatrix4, n: int, seed: int,
                         shards: int | None = None) -> OrderStats:
    """Means of the four order statistics over n draws (antithetic pairs)."""
    (e1, e2, _), (se1, se2, se_identity) = _mean_se(
        *_sample_sums(m, n, seed, shards, _order_stat_rows, 3), n)
    return OrderStats(
        e1=e1, e2=e2, e3=-e2, e4=-e1,
        std_errors=(se1, se2, se2, se1),
        se_third_identity=se_identity,
        se_second_identity=se_identity,
        n_samples=n, seed=seed,
    )
