"""Monte-Carlo oracle: sampling X ~ N(0, corr) and estimating the expected
maximum and the four order-statistic means.

Reproducibility contract: results depend only on (matrix, n, seed, shards) --
never on thread count.  Shard s draws from Philox keyed by
SeedSequence(seed, spawn_key=(s,)), and shard partials are reduced in shard
order with exact summation.  Antithetic pairs (z, -z) are used throughout,
which makes the min/max symmetry of the order statistics exact in-sample.

Each shard draws in blocks of _BLOCK pairs and adds one partial sum per
block, so _BLOCK fixes the summation order: changing it changes results in
the last bits.  Within a block the reducers read the draws in _CHUNK-sized
transposed copies, so that max, min and the sorting network run on
contiguous rows; those are exact elementwise operations, and the sums that
follow see the same full-block arrays whatever the chunk size, so _CHUNK
does not change results.
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
                 accumulate, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-column sums and sums of squares over n antithetic draws.

    ``accumulate(x, s, s2)`` adds one block of draws x (and their antithetic
    mates -x) into the shard's length-``width`` sums s and s2 in place.
    Shard partials are reduced in shard order with exact summation.
    """
    _check_args(n, shards)
    nshards = shards if shards is not None else _default_shards(n)
    lt = sample_factor(m).T

    def worker(shard: int, size: int):
        rng = _shard_rng(seed, shard)
        s = np.zeros(width)
        s2 = np.zeros(width)
        left = size
        while left > 0:
            b = min(left, _BLOCK)
            accumulate(rng.standard_normal((b, 4)) @ lt, s, s2)
            left -= b
        return s, s2

    sizes = _shard_sizes(n // 2, nshards)
    with ThreadPoolExecutor(max_workers=min(thread_count(), nshards)) as pool:
        parts = list(pool.map(worker, range(nshards), sizes))
    s = np.array([math.fsum(p[0][i] for p in parts) for i in range(width)])
    s2 = np.array([math.fsum(p[1][i] for p in parts) for i in range(width)])
    return s, s2


def _transposed_chunks(x: np.ndarray):
    """Yield ``(rows, t)`` over the (b, 4) draws x in runs of _CHUNK, where t
    is a contiguous (4, k) copy of x[rows].T held in one reused buffer."""
    b = len(x)
    buf = np.empty((4, min(_CHUNK, b)))
    for a in range(0, b, _CHUNK):
        rows = slice(a, min(a + _CHUNK, b))
        t = buf[:, :rows.stop - a]
        np.copyto(t, x[rows].T)
        yield rows, t


def _add_max(x: np.ndarray, s: np.ndarray, s2: np.ndarray) -> None:
    hi = np.empty(len(x))
    lo = np.empty(len(x))
    for rows, t in _transposed_chunks(x):
        t.max(axis=0, out=hi[rows])
        t.min(axis=0, out=lo[rows])
    # antithetic mate of each draw contributes max(-x) = -min(x)
    s[0] += float(hi.sum() - lo.sum())
    s2[0] += float(hi @ hi + lo @ lo)


def estimate_max(m: CorrelationMatrix4, n: int, seed: int, shards: int | None = None) -> MCEstimate:
    """Sample mean of max(X_1..X_4) over n draws (n/2 antithetic pairs)."""
    s, s2 = _sample_sums(m, n, seed, shards, _add_max, 1)
    mean = float(s[0]) / n
    var = max(float(s2[0]) / n - mean * mean, 0.0)
    return MCEstimate(mean=mean, std_error=math.sqrt(var / n), n_samples=n, seed=seed)


def _sorted_rows(x: np.ndarray) -> np.ndarray:
    """The (4, b) array ``np.sort(x, axis=1).T``, from a 5-comparator sorting
    network of np.minimum/np.maximum over contiguous chunk rows."""
    asc = np.empty((4, len(x)))
    scratch = np.empty((4, min(_CHUNK, len(x))))
    for rows, t in _transposed_chunks(x):
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


def _add_order_stats(x: np.ndarray, s: np.ndarray, s2: np.ndarray) -> None:
    asc = _sorted_rows(x)
    for desc in (asc[::-1], -asc):  # draw and its antithetic mate
        r3 = desc[2] - 3.0 * desc[0]
        r2 = desc[1] + 3.0 * desc[0]
        for i, col in enumerate((*desc, r3, r2)):
            s[i] += float(col.sum())
            s2[i] += float(col @ col)


def estimate_order_stats(m: CorrelationMatrix4, n: int, seed: int,
                         shards: int | None = None) -> OrderStats:
    """Means of the four order statistics over n draws (antithetic pairs)."""
    s, s2 = _sample_sums(m, n, seed, shards, _add_order_stats, 6)
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
