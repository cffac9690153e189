"""Monte-Carlo oracle: sampling X ~ N(0, corr) and estimating the expected
maximum and the four order-statistic means.

Reproducibility contract: results depend only on (matrix, n, seed, shards) --
never on a thread count, GAUSSMAX_THREADS or the BLAS library's
(OPENBLAS_NUM_THREADS).  The n/2 antithetic pairs are split evenly over the
shards, each of which needs at least one pair (so shards <= n // 2, else
ValueError), and each shard into blocks of _BLOCK pairs.  Block k of shard
s draws from its own SFC64 generator, keyed by SeedSequence(seed,
spawn_key=(s, k)), so each block is an independent task on the thread pool
and its draws do not depend on which thread runs it or when.  The chunk
sums are added exactly (math.fsum), so no order of addition enters the
result.

Both pair statistics below, max - min and the gaps x(1) - x(4) and
x(2) - x(3), are unchanged when one constant is added to every coordinate
of x.  So a draw is the centred vector x = F z, X less its mean, for the
4 x r factor F of ``sample_factor``, r <= 3 the affine rank of the
matrix's simplex, zero-padded to 4 x 3: z is 3 standard normals whatever
the rank, and every pair statistic has the distribution it has on X.  A
pair (x, -x) has the pair sum q = f(x) + f(-x) of a statistic f.  The mate
-x has the draw's order statistics negated and reversed, so e3 = -e2 and
e4 = -e1 exactly.

One draw z serves an orbit of 12 pairs.  The 12 signed cyclic
permutations g = C^a diag(1, +-1, +-1) of R^3 (C the cyclic shift,
a = 0, 1, 2) are orthogonal, so each g z is again a standard normal draw
and (F g z, -F g z) an antithetic pair; with their negations they are a
group of 24 signed permutation matrices.  Every pair sum is positively
homogeneous of degree 1 in z, and |z| is independent of z / |z|, so
replacing |z| by its mean E|z| = GAUSSIAN_RADIAL_FACTOR, that is scaling
the pair sums by E|z| / |z|, keeps their expectation (conditional Monte
Carlo): the radial factorisation E[max X] = (E|G| / 2) w of the mean width
w, taken with no closed form.  The radius step matters: without it the 12
images are nearly perfectly correlated.  An orbit o of m_o pairs (12, or
fewer in a block's last orbit) is the unit of reduction, with the orbit
sum Q_o = (E|z| / |z|) (q(g_1 z) + ... + q(g_m z)) of its first m = m_o
images.  A statistic's mean is sum(Q) / n; its standard error, over the
independent orbits, is sqrt(sum (Q_o - 2 m_o mean)**2) / n.

A block of b pairs (b = _BLOCK = 49,152, fewer in a shard's last block) is
b // 12 whole orbits, drawn _CHUNK = 1,536 orbits at a time (fewer in its
last chunk), then, if 12 does not divide b, one partial orbit of the
b % 12 pairs left, drawn alone.  _BLOCK is a multiple of 12, so only a
shard whose pair count is not ends in a partial orbit.  A chunk of c
orbits draws a (3, c) array, transforms it in one (48, 3) @ (3, c) matmul
into a (48, c) array, which the reducers read as 4 rows of 12 c images,
writes the images' pair sums into a (k, 12 c) array and the orbit sums
into a (k, c) array.  Each pool worker allocates these buffers once per
call (1.07 MiB at k = 3) and reuses them for every chunk of every block it
runs; a chunk allocates nothing larger than a mask of c booleans.  Drawing
in pieces gives the same stream as one call, each transformed column
depends on its own draw alone, and max, min and the sorting network are
exact elementwise operations.  Each chunk's sums of Q, Q**2 and m Q are
taken in numpy over its (k, c) array, and these chunk sums are added
exactly.  So both _CHUNK and _BLOCK fix results: _BLOCK the keys of the
streams and _CHUNK which orbits each float sum adds.  Sums of squares are
taken with einsum, not BLAS, whose dot product splits across its threads.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .corrmat import (EPS_PSD, CorrelationMatrix4, DomainTag, _check_count, _unit_classes,
                      classify)
from .geometry import GAUSSIAN_RADIAL_FACTOR

_CHUNK = 1_536  # orbits drawn and reduced at a time; its buffers (1.07 MiB at k = 3) stay in L2
_BLOCK = 49_152  # pairs per block (4,096 orbits), one pool task and one stream


def _orbit_maps() -> np.ndarray:
    """The 12 signed cyclic permutations C^a diag(1, +-1, +-1) of R^3, a
    (12, 3, 3) array: (C^a z)_i = z_(i - a mod 3)."""
    shift = np.roll(np.eye(3), 1, axis=0)
    return np.array([np.linalg.matrix_power(shift, a) @ np.diag([1.0, s, t])
                     for a in range(3) for s in (1.0, -1.0) for t in (1.0, -1.0)])


_ORBIT_MAPS = _orbit_maps()
_ORBIT = len(_ORBIT_MAPS)  # antithetic pairs per draw


def thread_count() -> int:
    """Worker threads, capped by the GAUSSMAX_THREADS env var (0 = auto: the
    CPUs this process may run on, at most 8).  A value that is not an
    integer, or is negative, is ignored with a RuntimeWarning."""
    raw = os.environ.get("GAUSSMAX_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        warnings.warn(f"GAUSSMAX_THREADS={raw!r} is not a non-negative integer; using the "
                      "automatic thread count", RuntimeWarning, stacklevel=2)
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

    Every standard error is taken over the independent orbits, and
    e3 = -e2, e4 = -e1, std_errors = (se1, se2, se2, se1).
    se_third_identity and se_second_identity are the standard errors of the
    in-sample residuals e3 - 3*e1 and e2 + 3*e1 used by the order-statistic
    identity checks; they are equal, as the residuals' orbit sums are each
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
    """4 x r factor F of the centred matrix P M P, P = I - 11'/4: F @ F.T
    equals P M P, and F z is distributed as P X, the draw X less its mean.
    It is the eigen factor u sqrt(w) without the columns of eigenvalue
    w <= EPS_PSD, the bound ``classify`` puts on the smallest eigenvalue,
    so its columns sum to 0 and r is the affine rank of the simplex whose
    vertices have Gram matrix M: 3 inside the elliptope, at most 3 on it,
    0 for all ones.  Monte Carlo pads it with zero columns to 4 x 3, so a
    draw takes 3 standard normals whatever r.  The members of a unit class
    are one variable, drawn from one row: the first member's."""
    cls = classify(m)
    if cls.tag is DomainTag.INVALID:
        raise ValueError("not a correlation matrix")
    p = np.eye(4) - 0.25
    w, u = np.linalg.eigh(p @ m.matrix() @ p)
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


def _orbit_factor(factor: np.ndarray) -> np.ndarray:
    """The (48, 3) array whose row 12 i + j is row i of F g_j, F the 4 x r
    factor padded with zero columns to 4 x 3 and g_j the j-th orbit map:
    its product with a draw z is the 12 images F g_j z, coordinate-major."""
    padded = np.zeros((4, 3))
    padded[:, :factor.shape[1]] = factor
    return (padded @ _ORBIT_MAPS).transpose(1, 0, 2).reshape(4 * _ORBIT, 3)


def _sample_sums(m: CorrelationMatrix4, n: int, seed: int, shards: int | None,
                 pair_rows, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Exact per-row sums, over the orbits o of n/2 antithetic pairs, of the
    orbit sums Q_o, of Q_o**2 and of m_o Q_o, m_o the orbit's pair count,
    and the sum of m_o**2.

    ``pair_rows(x, out)`` takes the images of one chunk of draws, a (4, w)
    array whose column j is image j, and writes into the (k, w) array out,
    column j, the pair sums f(x) + f(-x) of k statistics f at image j, from
    exact elementwise operations; it may overwrite x.  Each block is one
    pool task and draws from its (seed, shard, block) stream, chunk by
    chunk, into its worker's buffers; each chunk's sums are taken in numpy,
    and all chunk sums are added exactly.  ThreadPoolExecutor is imported
    here, its one use, so that importing gaussmax does not load it.
    """
    from concurrent.futures import ThreadPoolExecutor

    _check_args(n, shards)
    nshards = shards if shards is not None else _default_shards(n)
    images = _orbit_factor(sample_factor(m))
    sizes = _shard_sizes(n // 2, nshards)
    local = threading.local()

    def block_sums(shard: int, block: int, b: int) -> list[tuple[np.ndarray, ...]]:
        if not hasattr(local, "buffers"):  # one set per worker, reused by its chunks
            rows = (3, 4 * _ORBIT, k * _ORBIT, k, 1)  # draws, images, pair sums, orbit sums, scales
            local.buffers = tuple(np.empty(r * _CHUNK) for r in rows)
        zs, xs, qs, orbits, radii = local.buffers
        rng = _block_rng(seed, shard, block)
        full, rest = divmod(b, _ORBIT)
        pieces = [(min(_CHUNK, full - a), _ORBIT) for a in range(0, full, _CHUNK)]
        pieces += [(1, rest)] if rest else []
        sums = []
        for c, pairs in pieces:
            z = zs[:3 * c].reshape(3, c)  # column j is draw j
            x = xs[:4 * _ORBIT * c].reshape(4 * _ORBIT, c)
            q = qs[:k * _ORBIT * c].reshape(k, _ORBIT * c)
            o = orbits[:k * c].reshape(k, c)
            scale = radii[:c]
            rng.standard_normal(out=z)
            _transform(images, z.T, x)
            pair_rows(x.reshape(4, _ORBIT * c), q)
            q.reshape(k, _ORBIT, c)[:, :pairs].sum(axis=1, out=o)
            np.sqrt(np.einsum("ij,ij->j", z, z, out=scale), out=scale)
            # E|z| / |z|; a zero draw has zero pair sums and keeps scale 0
            np.divide(GAUSSIAN_RADIAL_FACTOR, scale, out=scale, where=scale > 0)
            o *= scale
            s = o.sum(axis=1)
            sums.append((s, np.einsum("ij,ij->i", o, o), pairs * s))
        return sums

    keys = [(shard, block, min(_BLOCK, size - a))
            for shard, size in enumerate(sizes) for block, a in enumerate(range(0, size, _BLOCK))]
    with ThreadPoolExecutor(max_workers=min(thread_count(), len(keys))) as pool:
        chunks = itertools.chain.from_iterable(pool.map(block_sums, *zip(*keys)))
        sums = [np.array([math.fsum(col) for col in zip(*stat)]) for stat in zip(*chunks)]
    mm = sum(b // _ORBIT * _ORBIT ** 2 + (b % _ORBIT) ** 2 for _, _, b in keys)
    return (*sums, mm)


def _mean_se(s: np.ndarray, s2: np.ndarray, sm: np.ndarray, mm: int,
             n: int) -> tuple[list[float], list[float]]:
    """Means and standard errors of n draws' statistics from the sums, over
    the orbits o, of Q_o, Q_o**2 and m_o Q_o and of m_o**2: the mean is
    s / n, an orbit of m_o pairs has expectation 2 m_o mean, and the
    standard error is sqrt(sum (Q_o - 2 m_o mean)**2) / n."""
    mean = s / n
    resid = np.maximum(s2 - 4 * mean * sm + 4 * mean ** 2 * mm, 0.0)
    return mean.tolist(), (np.sqrt(resid) / n).tolist()


def _transform(factor: np.ndarray, z: np.ndarray, out: np.ndarray) -> None:
    """Write ``factor @ z.T`` into the contiguous array out: column j is the
    transform of the normals in row j of z.

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
    """Mean of max(X_1..X_4) over n draws: n/2 antithetic pairs in orbits of
    12, one draw of 3 normals per orbit, each pair sum scaled by E|z| / |z|;
    the standard error is taken over the orbits."""
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
    """Means of the four order statistics over n draws: n/2 antithetic pairs
    in orbits of 12, one draw of 3 normals per orbit, each pair sum scaled by
    E|z| / |z|; the standard errors are taken over the orbits."""
    (e1, e2, _), (se1, se2, se_identity) = _mean_se(
        *_sample_sums(m, n, seed, shards, _order_stat_rows, 3), n)
    return OrderStats(
        e1=e1, e2=e2, e3=-e2, e4=-e1,
        std_errors=(se1, se2, se2, se1),
        se_third_identity=se_identity,
        se_second_identity=se_identity,
        n_samples=n, seed=seed,
    )
