"""Record the reference table the `evaluate` workload checks against.

The table holds 512 correlation matrices in seven strata (interior,
boundary of rank 3 and 2, and unit-pair matrices built four ways) with the
closed-form value `f_max` of each, written with full float precision.  It
was recorded once, when the benchmark was added; `evaluate` then requires
every later version of the closed form to reproduce these values within
1e-12.  Re-recording would silently move that reference, so only do it when
the input set itself has to change, and say so in the change log.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from gaussmax import closedform, corrmat, optimize  # noqa: E402
from gaussmax.corrmat import CorrelationMatrix4, DomainTag  # noqa: E402

TABLE = HERE / "reference_evaluate.json"
RECORD_SEED = 20261017

# (class, construction dimension, count).  Dimension d < 4 gives a Gram
# matrix of rank <= d; "dup" strata copy one unit vector onto another, so one
# correlation is exactly 1.
STRATA = (
    ("interior", 4, 256),
    ("boundary", 3, 96),
    ("boundary", 2, 64),
    ("unit_pair", 1, 32),
    ("unit_pair_dup", 2, 16),
    ("unit_pair_dup", 3, 24),
    ("unit_pair_dup", 4, 24),
)

EXPECTED_TAG = {
    "interior": DomainTag.INTERIOR_S,
    "boundary": DomainTag.BOUNDARY_S1,
    "unit_pair": DomainTag.DEGENERATE_UNIT_PAIR,
    "unit_pair_dup": DomainTag.DEGENERATE_UNIT_PAIR,
}


def _duplicated(rng: np.random.Generator, dim: int) -> CorrelationMatrix4:
    a = rng.normal(size=(4, dim))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    i, j = rng.choice(4, size=2, replace=False)
    a[j] = a[i]
    g = a @ a.T
    return CorrelationMatrix4(tuple(np.clip(g[p], -1.0, 1.0) for p in corrmat.PAIRS))


def make_matrix(rng: np.random.Generator, kind: str, dim: int) -> CorrelationMatrix4:
    if kind == "interior":
        return optimize.random_interior(rng, min_eig=0.05)
    if kind == "unit_pair_dup":
        return _duplicated(rng, dim)
    return optimize.random_psd(rng, dim)


def main() -> int:
    rng = np.random.default_rng(RECORD_SEED)
    entries = []
    for kind, dim, count in STRATA:
        for _ in range(count):
            m = make_matrix(rng, kind, dim)
            tag = corrmat.classify(m).tag
            if tag is not EXPECTED_TAG[kind]:
                raise RuntimeError(f"{kind}/{dim}: classified as {tag}")
            entries.append({
                "cls": "unit_pair" if kind.startswith("unit_pair") else kind,
                "stratum": f"{kind}/{dim}",
                "dim": dim,
                "offdiag": list(m.offdiag),
                "f_max": closedform.f_max(m),
            })
    doc = {
        "description": "closed-form f_max recorded when the benchmark was added; "
                       "evaluate requires |f_max - recorded| <= 1e-12",
        "record_seed": RECORD_SEED,
        "numpy": np.__version__,
    }
    # one entry per line keeps the table readable and its diffs small
    head = json.dumps(doc)[:-1]
    body = ",\n".join(json.dumps(e) for e in entries)
    TABLE.write_text(f'{head}, "entries": [\n{body}\n]}}\n')
    print(f"wrote {len(entries)} entries to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
