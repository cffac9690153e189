#!/usr/bin/env python3
"""One SHA-256 digest per output family of the closed-form path and of
Monte Carlo.

Feeds a fixed set of matrices through the library and hashes the exact bits
of what comes back, one digest per family: the classification (tag and
witness), the ``derive`` record, ``f_max``, ``gradient``, ``hessian``,
``dihedrals`` (each of these five on a fresh copy of the matrix, so that
each derives it), ``in_a_row`` (``f_max``, ``gradient``, ``hessian`` and
``dihedrals`` in a row on one matrix object, so that the last three read
the record ``derive`` kept from the first), ``maximize`` (every
``OptResult`` field, then the ``worst_margin``, ``target`` and
``worst_random_value`` of ``certify``, called twice so that the rivals' score
kept by the first call is hashed where the second reads it), and ``embed`` (the vertices of
``geometry.embed`` on a fresh copy of every input; a matrix of rank 4 gives
its error), and ``mean_width`` (``geometry.mean_width`` at quadrature orders 50
and 200 on the tetrahedra of ``mean_width_inputs``), and ``width_transfer``
(``f_width`` and ``f_width_inv`` on fixed grids that include both ends and
points 10^-k from them, and the runs and endpoints of ``u_interval_scan`` on
``U_SCANS`` seeded pairs), ``h_scan`` (the worst margin, its location and the
pair count of a small ``h_monotonicity_scan``), ``scans`` (the reports of
the default ``p_inequality_scan`` and ``p_ordering_scan``), ``shared``
(``geometry.corr_of`` on the tetrahedra of ``mean_width_inputs``,
``geometry.h_func`` on the admissible points of ``h_grid``, and the reports
of the ``hessian`` and ``bounds`` suites of ``gaussmax verify`` at its
default seed), ``sample_factor`` (``montecarlo.sample_factor`` on the
inputs), and ``cli`` (the stdout bytes and the exit code of ``cli.main`` on
each line of ``CLI_ARGV``; stderr is not hashed, since only stdout is the
command's output).  Four Monte-Carlo families hash ``estimate_max`` and
``estimate_order_stats`` on ``MC_MATRICES`` with ``MC_RUNS``, whose shards
run to several blocks: ``mc_mean_full`` and ``mc_mean_singular`` the mean
and e1..e4, ``mc_se_full`` and ``mc_se_singular`` every standard error, on
the full-rank and the singular matrices apart, since a singular matrix
draws one normal per pair for each unit of its rank.  A call that raises
contributes its exception type and message instead of a value.  Two trees
whose digests agree give bit-identical outputs on every input below.

Inputs: the 512 rows of perfbench/reference_evaluate.json, 1,000
``random_psd(default_rng(d), d)`` matrices for each d = 2, 3, 4, and a
handful of special matrices (identity, the regular simplex, unit pairs);
``maximize`` starts from 8 ``random_interior`` matrices drawn from
``default_rng(MAXIMIZE_SEED)``; ``mean_width`` runs on the regular
tetrahedron, ``DEGENERATE_POINTS`` and 100 random tetrahedra from
``default_rng(MEAN_WIDTH_SEED)``; the Monte-Carlo families run on
``MC_MATRICES`` with ``MC_RUNS``; the ``u_interval_scan`` pairs are drawn
from ``default_rng(WIDTH_SEED)``.

The digests hash float bits, which depend on the numpy build, the LAPACK
it calls and the CPU.  Compare them only between runs on one machine, for
example a checkout of the parent commit against the change:

    PYTHONPATH=<parent>/src python scripts/output_digest.py
    PYTHONPATH=src python scripts/output_digest.py

Usage: python scripts/output_digest.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

import numpy as np

from gaussmax import cli, closedform, geometry, montecarlo, verify
from gaussmax.corrmat import CorrelationMatrix4, DomainTag, classify, derive
from gaussmax.optimize import certify, maximize, random_interior, random_psd

ROOT = pathlib.Path(__file__).resolve().parents[1]
FAMILIES = ("classify", "derive", "f_max", "gradient", "hessian", "dihedrals", "in_a_row",
            "maximize", "embed", "mean_width", "width_transfer", "h_scan", "scans", "shared",
            "sample_factor", "mc_mean_full", "mc_se_full", "mc_mean_singular", "mc_se_singular",
            "cli")
# The one-matrix calls, each hashed alone and then all four in a row.
CALLS = (("f_max", closedform.f_max), ("gradient", closedform.gradient),
         ("hessian", closedform.hessian), ("dihedrals", lambda m: geometry.dihedrals(m).alpha))
MAXIMIZE_SEED = 8
MEAN_WIDTH_SEED = 17
WIDTH_SEED = 18
U_SCANS = 20
# 10^-k for k = 1..16: the near-end offsets of the width-transfer grids
NEAR_END = 10.0 ** -np.arange(1, 17)
# Point sets where pairs of vertices never cross on a latitude or cross at
# coincident angles: a planar square, a repeated vertex, an antipodal pair on
# the polar axis, four points on the small circle z = 0.6.
DEGENERATE_POINTS = (
    ((1.0, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)),
    ((1.0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)),
    ((0, 0, 1.0), (0, 0, -1), (1, 0, 0), (0, 1, 0)),
    ((0.8, 0, 0.6), (0, 0.8, 0.6), (-0.8, 0, 0.6), (0, -0.8, 0.6)),
)
MC_MATRICES = (
    CorrelationMatrix4.identity(),
    CorrelationMatrix4.equicorrelated(-1.0 / 3.0),  # rank 3
    CorrelationMatrix4((0.2, -0.1, 0.3, 0.0, -0.2, 0.1)),
    CorrelationMatrix4((1.0, 0.5, 0.5, 0.5, 0.5, 1.0)),  # rank 2
)
# (n, shards, seed): 3 blocks, the last of 16,385 pairs (a one-row last
# chunk); 2 shards of 12 blocks; 2 blocks on the default shard count (one)
MC_RUNS = ((294_914, 1, 5), (3_000_000, 2, 6), (200_000, None, 7))
# Cheap command lines: each subcommand, then one usage error (a flag of
# another scan kind) and one domain error (a matrix outside the elliptope).
CLI_MATRIX = "0.2,-0.1,0.3,0,-0.2,0.1"
CLI_ARGV = (
    ("compute", "--corr", CLI_MATRIX),
    ("--pretty", "compute", "--corr3", "-0.5,-0.5,-0.5"),
    ("grad", "--corr", CLI_MATRIX),
    ("hessian", "--corr", CLI_MATRIX),
    ("mc", "--corr", CLI_MATRIX, "--samples", "20000", "--seed", "3", "--order-stats"),
    ("meanwidth", "--corr", ",".join([repr(-1.0 / 3.0)] * 6), "--order", "20"),
    ("dihedrals", "--corr", CLI_MATRIX),
    ("optimize", "--start", "random", "--seed", "4"),
    ("verify", "--suite", "identity"),
    ("scan", "--kind", "u-interval", "--x", "0.4", "--n", "500"),
    ("scan", "--kind", "p-ordering", "--n-pairs", "3"),
    ("compute", "--corr", "-0.5,-0.5,-0.5,-0.5,-0.5,-0.5"),
)


def special_matrices() -> list[CorrelationMatrix4]:
    return [
        CorrelationMatrix4.identity(),
        CorrelationMatrix4.equicorrelated(-1.0 / 3.0),
        CorrelationMatrix4.equicorrelated(1.0),
        CorrelationMatrix4.equicorrelated(0.5),
        CorrelationMatrix4((0.0, 0.0, 1.0, 0.0, 0.0, 0.0)),
        CorrelationMatrix4((1.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        CorrelationMatrix4((1.0, 0.5, 0.5, 0.5, 0.5, 1.0)),
        CorrelationMatrix4((0.93, 0.91, 0.90, 0.75, 0.77, 0.75)),
        CorrelationMatrix4((1.0, -1.0, -1.0, -1.0, -1.0, 1.0)),
    ]


def inputs() -> list[CorrelationMatrix4]:
    ref = json.loads((ROOT / "perfbench" / "reference_evaluate.json").read_text())
    ms = [CorrelationMatrix4(tuple(e["offdiag"])) for e in ref["entries"]]
    for d in (2, 3, 4):
        rng = np.random.default_rng(d)
        ms.extend(random_psd(rng, d) for _ in range(1000))
    return ms + special_matrices()


def mean_width_inputs() -> list[geometry.Tetrahedron]:
    rng = np.random.default_rng(MEAN_WIDTH_SEED)
    random = []
    for _ in range(100):
        v = rng.normal(size=(4, 3))
        random.append(v / np.linalg.norm(v, axis=1, keepdims=True))
    return ([geometry.Tetrahedron.regular()]
            + [geometry.Tetrahedron(np.array(v)) for v in DEGENERATE_POINTS + tuple(random)])


def width_transfer_grids() -> tuple[np.ndarray, np.ndarray]:
    """Arguments of ``f_width`` on [-1, 1] and of ``f_width_inv`` on [0, 1]."""
    xs = np.concatenate([np.linspace(-1.0, 1.0, 2001), 1 - NEAR_END, NEAR_END - 1])
    ys = np.concatenate([np.linspace(0.0, 1.0, 2001), 1 - NEAR_END, NEAR_END])
    return xs, ys


def u_interval_pairs() -> list[tuple[float, float]]:
    rng = np.random.default_rng(WIDTH_SEED)
    pairs = []
    while len(pairs) < U_SCANS:
        x, y = (float(v) for v in rng.uniform(0.05, 1.5, 2))
        if x * y < 1:
            pairs.append((x, y))
    return pairs


def h_grid() -> list[tuple[float, float, float]]:
    """Triples on a 13-point grid of [0.15, 1.3] per axis where det(Gamma) > 0."""
    ws = np.linspace(0.15, 1.3, 13)
    x, y, z = (a.ravel() for a in np.meshgrid(ws, ws, ws, indexing="ij"))
    inside = np.maximum(np.maximum(x * y, x * z), y * z) < 1
    x, y, z = x[inside], y[inside], z[inside]
    keep = geometry.gamma_det(x, y, z) > 0
    return list(zip(x[keep].tolist(), y[keep].tolist(), z[keep].tolist()))


def cli_run(argv) -> tuple[bytes, int]:
    """The stdout bytes and the exit code of one command line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return out.getvalue().encode(), code


def _bits(value) -> bytes:
    if isinstance(value, np.ndarray):
        return str(value.dtype).encode() + str(value.shape).encode() + value.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return repr(value).encode()


def _feed(h, fn, *args) -> None:
    try:
        out = fn(*args)
    except Exception as exc:  # the error is part of the output
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return
    for part in out if isinstance(out, tuple) else (out,):
        h.update(_bits(part))


def digests() -> dict[str, str]:
    ms = inputs()
    h = {name: hashlib.sha256() for name in FAMILIES}

    def classified(m):
        c = classify(m)
        return (c.tag.value, c.witness)

    def derived(m):
        d = derive(m)
        return (d.tag.value, d.lambda_prime, d.lambda_tilde, float(d.a_tilde), d.angles)

    def maximized(m):
        res = maximize(m)
        cert = ()
        for _ in range(2 if res.converged else 0):
            rep = certify(res)
            cert += (rep.worst_margin, rep.details["target"], rep.details["worst_random_value"])
        return (np.array(res.argmax.offdiag), res.value, res.iterations, res.trajectory_summary,
                res.converged, res.grad_norm, res.s_min_eig) + cert

    for m in ms:
        _feed(h["classify"], classified, m)
        _feed(h["derive"], derived, CorrelationMatrix4(m.offdiag))
        for name, fn in CALLS:
            _feed(h[name], fn, CorrelationMatrix4(m.offdiag))
        for _, fn in CALLS:
            _feed(h["in_a_row"], fn, m)
    rng = np.random.default_rng(MAXIMIZE_SEED)
    for _ in range(8):
        _feed(h["maximize"], maximized, random_interior(rng))
    for m in ms:
        _feed(h["embed"], lambda m: geometry.embed(m).vertices, CorrelationMatrix4(m.offdiag))
    for t in mean_width_inputs():
        for order in (50, 200):
            _feed(h["mean_width"], geometry.mean_width, t, order)
    xs, ys = width_transfer_grids()
    _feed(h["width_transfer"], geometry.f_width, xs)
    _feed(h["width_transfer"], geometry.f_width_inv, ys)
    for x, y in u_interval_pairs():
        details = verify.u_interval_scan(x, y).details
        _feed(h["width_transfer"], lambda: (details["runs"], details["z1"], details["z2"]))
    h_rep = verify.h_monotonicity_scan(verify.HMonotonicityGrid(n_pairs=10, z_steps=50,
                                                                det_samples=500))
    _feed(h["h_scan"], lambda: (h_rep.worst_margin, h_rep.worst_location,
                                h_rep.details["pairs_scanned"]))
    for rep in (verify.p_inequality_scan(), verify.p_ordering_scan()):
        _feed(h["scans"], lambda: json.dumps(rep.to_json_obj(), sort_keys=True))
    for m in ms:
        _feed(h["sample_factor"], montecarlo.sample_factor, m)
    for t in mean_width_inputs():
        _feed(h["shared"], lambda t: np.array(geometry.corr_of(t).offdiag), t)
    for x, y, z in h_grid():
        _feed(h["shared"], geometry.h_func, x, y, z)
    seed = cli.build_parser().parse_args(["verify"]).seed
    for suite in ("hessian", "bounds"):
        for rep in cli._suite_reports(suite, seed):
            _feed(h["shared"], lambda: json.dumps(rep.to_json_obj(), sort_keys=True))
    for m in MC_MATRICES:
        rank = "full" if classify(m).tag is DomainTag.INTERIOR_S else "singular"
        for n, shards, seed in MC_RUNS:
            est = montecarlo.estimate_max(m, n, seed, shards=shards)
            order = montecarlo.estimate_order_stats(m, n, seed, shards=shards)
            _feed(h[f"mc_mean_{rank}"], lambda: (est.mean, order.e1, order.e2, order.e3, order.e4))
            _feed(h[f"mc_se_{rank}"], lambda: (est.std_error, *order.std_errors,
                                               order.se_third_identity, order.se_second_identity))
    for argv in CLI_ARGV:
        _feed(h["cli"], cli_run, argv)
    return {name: h[name].hexdigest() for name in FAMILIES}


def main() -> None:
    for name, digest in digests().items():
        print(f"{name:12s} {digest}")


if __name__ == "__main__":
    main()
