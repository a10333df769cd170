"""Every draw path's bytes pinned to stored digests.

``tests/data/golden_draws_v1.json`` was generated once, by running this
module as a script (it refuses to overwrite the file without ``--force``):

    PYTHONPATH=src python tests/test_golden_draws.py

For each of the 20 routes (the 16 inverse-Wishart combinations of
``EXPECTED_OP_COUNTS`` and the 4 Wishart ones), every m in ``GOLDEN_M`` and
two degrees of freedom per m, it holds one sha256 over the plan's factor,
two :meth:`Plan.draw`, one :meth:`Plan.draw_many` of 3, one one-shot draw,
``cholesky_upper_param(scale, True)`` and the stream's end position; once
with the compiled column walk and, for the m in ``PYTHON_M``, once with the
Python loop.  The scales are dyadic rationals and the full ones their exact
products U^T U, so the inputs are the same everywhere; the draws pass
through LAPACK and BLAS, whose kernels round differently on different
CPUs.  So the file also stores the OpenBLAS core names, and the numpy and
scipy versions, of the process that made it; the digests are asserted
where the cores match and the test is skipped elsewhere.  From m of about
50 on the bytes also depend on whether OpenBLAS runs one thread or more, so
the digests are made and checked with OpenBLAS pinned to the file's thread
count (``golden_env.golden_threads``).
"""

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from golden_env import fingerprint, golden_threads, openblas_cores
from triwish import rng as rng_module
from triwish.rng import RngStream
from triwish.samplers import (
    EXPECTED_OP_COUNTS,
    WISHART,
    SamplerSpec,
    ScaleParam,
    cholesky_upper_param,
    prepare,
    rwishart,
    sample_invwishart,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_draws_v1.json"
GOLDEN_M = (1, 2, 4, 5, 13, 50, 64, 65, 200)
PYTHON_M = (1, 4, 13, 50)
ROUTES = list(EXPECTED_OP_COUNTS) + [(kind, WISHART, retcholu)
                                     for kind in ("cov", "cov_chol") for retcholu in (False, True)]


def dyadic_factor(m):
    """Upper-triangular factor with entries k/256 above a diagonal in
    [1, 1.75]; every product and sum in U^T U is exact in any BLAS."""
    i, j = np.indices((m, m))
    u = np.triu(((3 * i + 7 * j) % 11 - 5) / 256.0, 1)
    u[np.diag_indices(m)] = 1.0 + (5 * np.arange(m) % 7) / 8.0
    return u


def record_key(route, m, n):
    kind, algorithm, retcholu = route
    return f"{kind} {algorithm} retcholu={int(retcholu)} m={m} n={n!r}"


def draws_digest(route, m, n):
    kind, algorithm, retcholu = route
    u = dyadic_factor(m)
    scale = ScaleParam(u if kind.endswith("_chol") else u.T @ u,
                       iscov=kind.startswith("cov"), ischolu=kind.endswith("_chol"))
    spec = SamplerSpec(m, n, scale, retcholu=retcholu)
    rng = RngStream(m)
    plan = prepare(spec, algorithm)
    parts = [plan.factor, plan.draw(rng), plan.draw(rng), plan.draw_many(rng, 3)]
    if algorithm == WISHART:
        parts.append(rwishart(rng, spec))
    else:
        parts.append(sample_invwishart(rng, spec, algorithm))
    parts.append(cholesky_upper_param(scale, True))
    h = hashlib.sha256()
    for x in parts:
        h.update(x.tobytes())
    h.update(str(rng.position).encode())
    return h.hexdigest()


def golden_draws_records(m):
    """Recompute the digests ``golden_draws_v1.json`` pins at m, by key."""
    return {record_key(route, m, n): draws_digest(route, m, n)
            for route in ROUTES for n in (m + 0.5, m + 3.0)}


@pytest.fixture(scope="module")
def stored():
    golden = json.loads(GOLDEN.read_text())
    made, here = golden["fingerprint"]["openblas_cores"], openblas_cores()
    if made != here:
        pytest.skip(f"the draws were pinned with OpenBLAS core {'/'.join(made)}, "
                    f"and this process runs core {'/'.join(here) or 'unknown'}")
    return golden


@pytest.mark.parametrize("m", GOLDEN_M)
def test_draws_match_golden_digests(stored, m):
    if rng_module.compiled_loop() is None:
        pytest.skip("no compiled column walk: every fill runs the Python loop")
    want = {key: d for key, d in stored["compiled"].items() if f" m={m} " in key}
    assert len(want) == 2 * len(ROUTES)
    with golden_threads():
        assert golden_draws_records(m) == want


@pytest.mark.parametrize("m", PYTHON_M)
def test_draws_without_the_compiled_walk_match_golden_digests(stored, monkeypatch, m):
    monkeypatch.setattr(rng_module, "_loop", None)
    want = {key: d for key, d in stored["python"].items() if f" m={m} " in key}
    assert len(want) == 2 * len(ROUTES)
    with golden_threads():
        assert golden_draws_records(m) == want


if __name__ == "__main__":
    if GOLDEN.exists() and "--force" not in sys.argv[1:]:
        sys.exit(f"{GOLDEN.name} exists; pass --force to overwrite it")
    if rng_module.compiled_loop() is None:
        sys.exit("the compiled column walk does not load here")
    golden = {"fingerprint": fingerprint(), "compiled": {}, "python": {}}
    with golden_threads():
        for m in GOLDEN_M:
            golden["compiled"].update(golden_draws_records(m))
        rng_module._loop = None
        for m in PYTHON_M:
            golden["python"].update(golden_draws_records(m))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
