"""Monte-Carlo oracle: sampling X ~ N(0, corr) and estimating the expected
maximum and the four order-statistic means.

Reproducibility contract: results depend only on (matrix, n, seed, shards) --
never on a thread count, GAUSSMAX_THREADS or the BLAS library's
(OPENBLAS_NUM_THREADS).  Shard s draws from Philox keyed by
SeedSequence(seed, spawn_key=(s,)), and shard partials are reduced in shard
order with exact summation.  Antithetic pairs (z, -z) are used throughout,
which makes the min/max symmetry of the order statistics exact in-sample.

Each shard draws in blocks of _BLOCK pairs.  One block of one shard is one
task on the thread pool: it draws its standard normals, submits the shard's
next block (which draws from the same generator, so the draws come in the
same order whichever thread runs them) and then reduces its own draws to
per-block addends.  A shard's sums add those addends in block order, so
_BLOCK fixes the summation order: changing it changes results in the last
bits.  Within a block the standard normals are transformed by the factor
one _CHUNK at a time, into a transposed chunk buffer, so that no
transformed copy of the whole block is held and max, min and the sorting
network run on contiguous rows.  The chunk products equal the rows of the
whole-block product, and max, min and the network are exact elementwise
operations; the sums that follow see the same full-block arrays whatever
the chunk size, so _CHUNK does not change results.  Sums of squares are
taken with einsum, not BLAS, whose dot product splits across its threads.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .corrmat import CorrelationMatrix4, DomainTag, _check_count, classify

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

    se_third_identity / se_second_identity are the standard errors of the
    in-sample residuals e3 - 3*e1 and e2 + 3*e1 used by the order-statistic
    identity checks.
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
    definite, eigen-based with eigenvalues clipped at 0 otherwise."""
    cls = classify(m)
    if cls.tag is DomainTag.INVALID:
        raise ValueError("not a correlation matrix")
    mat = m.matrix()
    if cls.tag is DomainTag.INTERIOR_S:
        return np.linalg.cholesky(mat)
    w, v = np.linalg.eigh(mat)
    return v * np.sqrt(np.clip(w, 0.0, None))


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
                 stats, addends, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-column sums and sums of squares over n antithetic draws.

    ``stats(z, lt)`` takes one block of standard normals z, shape (b, 4),
    whose draws are the rows of ``z @ lt``, and returns per-draw statistics
    from exact elementwise operations.  ``addends`` turns those into
    the block's addends for the draws and their antithetic mates: a list of
    (sums, sums of squares) pairs, each of length ``width``.

    Each block of each shard is one task, which submits its shard's next
    block as soon as it has drawn its own, so that a free thread draws while
    this one reduces.  A shard's sums add its blocks' addends in block
    order, and the shard partials are reduced in shard order with exact
    summation.
    """
    _check_args(n, shards)
    nshards = shards if shards is not None else _default_shards(n)
    lt = sample_factor(m).T
    sizes = _shard_sizes(n // 2, nshards)

    def block(rng: np.random.Generator, left: int):
        z = rng.standard_normal((min(left, _BLOCK), 4))
        rest = left - len(z)
        following = pool.submit(block, rng, rest) if rest else None
        per_draw = stats(z, lt)
        del z  # free the draws before the sums
        return addends(per_draw), following

    def shard_sums(task) -> tuple[np.ndarray, np.ndarray]:
        s = np.zeros(width)
        s2 = np.zeros(width)
        while task is not None:
            steps, task = task.result()
            for a, a2 in steps:
                s += a
                s2 += a2
        return s, s2

    blocks = sum(-(-size // _BLOCK) for size in sizes)
    with ThreadPoolExecutor(max_workers=min(thread_count(), blocks)) as pool:
        try:
            heads = [pool.submit(block, _shard_rng(seed, shard), size) if size else None
                     for shard, size in enumerate(sizes)]
            parts = [shard_sums(task) for task in heads]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    s = np.array([math.fsum(p[0][i] for p in parts) for i in range(width)])
    s2 = np.array([math.fsum(p[1][i] for p in parts) for i in range(width)])
    return s, s2


def _sums(c: np.ndarray) -> tuple[float, float]:
    """Sum and sum of squares of c.  The squares are summed by einsum, not
    BLAS, whose dot product splits across its threads from about 50k
    elements, which changes the last bits."""
    return c.sum(), np.einsum("i,i->", c, c)


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


def _extremes(z: np.ndarray, lt: np.ndarray) -> np.ndarray:
    """The (2, b) array of each draw's max and min."""
    ext = np.empty((2, len(z)))
    for rows, t in _transposed_chunks(z, lt):
        t.max(axis=0, out=ext[0, rows])
        t.min(axis=0, out=ext[1, rows])
    return ext


def _max_addends(ext: np.ndarray) -> list:
    (s_hi, q_hi), (s_lo, q_lo) = map(_sums, ext)
    # antithetic mate of each draw contributes max(-x) = -min(x)
    return [((s_hi - s_lo,), (q_hi + q_lo,))]


def estimate_max(m: CorrelationMatrix4, n: int, seed: int, shards: int | None = None) -> MCEstimate:
    """Sample mean of max(X_1..X_4) over n draws (n/2 antithetic pairs)."""
    s, s2 = _sample_sums(m, n, seed, shards, _extremes, _max_addends, 1)
    mean = float(s[0]) / n
    var = max(float(s2[0]) / n - mean * mean, 0.0)
    return MCEstimate(mean=mean, std_error=math.sqrt(var / n), n_samples=n, seed=seed)


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


def _order_stat_addends(asc: np.ndarray) -> list:
    desc = asc[::-1]
    draw = [_sums(c) for c in desc]
    # The antithetic mate -x sorts to -asc: its order statistics are the
    # draw's negated and reversed, and so are their sums, exactly.
    mate = [(-s, s2) for s, s2 in draw[::-1]]
    # The residuals e3 - 3 e1 and e2 + 3 e1, one column at a time; the
    # mate's are -asc[2] + 3 asc[0] and -(asc[1] + 3 asc[0]), exactly.
    draw += [_sums(desc[2] - 3.0 * desc[0]), _sums(desc[1] + 3.0 * desc[0])]
    r2, r2sq = _sums(asc[1] + 3.0 * asc[0])
    mate += [_sums(3.0 * asc[0] - asc[2]), (-r2, r2sq)]
    return [tuple(zip(*draw)), tuple(zip(*mate))]


def estimate_order_stats(m: CorrelationMatrix4, n: int, seed: int,
                         shards: int | None = None) -> OrderStats:
    """Means of the four order statistics over n draws (antithetic pairs)."""
    s, s2 = _sample_sums(m, n, seed, shards, _sorted_rows, _order_stat_addends, 6)
    means = s / n
    var = np.maximum(s2 / n - means ** 2, 0.0)
    se = np.sqrt(var / n)
    return OrderStats(
        e1=means[0], e2=means[1], e3=means[2], e4=means[3],
        std_errors=tuple(se[:4]),
        se_third_identity=float(se[4]),
        se_second_identity=float(se[5]),
        n_samples=n, seed=seed,
    )
