"""The KS rows' report bytes pinned to stored digests.

``tests/data/golden_ks_v1.json`` was generated once, by running this module
as a script (it refuses to overwrite the file without ``--force``):

    PYTHONPATH=src python tests/test_golden_ks.py

For each registry row in ``KS_ROWS``, run by name at ``SEED``, it holds one
sha256 over the NDJSON lines ``triwish validate`` writes for the row's
records; once with the compiled column walk and, for the rows in
``PYTHON_ROWS``, once with the Python loop.  The records carry the KS
p-values, so a change to the statistic or to the draws shows here.  The
scalar rows draw through LAPACK and BLAS, whose kernels round differently on
different CPUs, so the file also stores the OpenBLAS core names and the
numpy and scipy versions of the process that made it; the digests are
asserted where the cores match and the test is skipped elsewhere.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from golden_env import fingerprint, openblas_cores
from triwish import rng as rng_module
from triwish import suite

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_ks_v1.json"
SEED = suite.DEFAULT_SEED
KS_ROWS = ("bartlett.wishart", "bartlett.invwishart", "scalar.wishart",
           "scalar.invwishart.indirect", "scalar.invwishart.direct")
PYTHON_ROWS = ("bartlett.invwishart",)


def row_digest(name):
    """sha256 of the NDJSON report lines of the registry row ``name``.

    The row runs by its name alone: ``--only`` matches substrings, and
    ``bartlett`` would also run the slow outer-product oracle row.
    """
    (fn, kwargs), = [(fn, kwargs) for row, fn, kwargs in suite.REGISTRY if row == name]
    lines = "".join(json.dumps(rec.to_dict()) + "\n" for rec in fn(name, SEED, **kwargs))
    return hashlib.sha256(lines.encode()).hexdigest()


@pytest.fixture(scope="module")
def stored():
    golden = json.loads(GOLDEN.read_text())
    made, here = golden["fingerprint"]["openblas_cores"], openblas_cores()
    if made != here:
        pytest.skip(f"the KS rows were pinned with OpenBLAS core {'/'.join(made)}, "
                    f"and this process runs core {'/'.join(here) or 'unknown'}")
    return golden


@pytest.mark.parametrize("name", KS_ROWS)
def test_ks_row_matches_golden_digest(stored, name):
    if rng_module.compiled_loop() is None:
        pytest.skip("no compiled column walk: every fill runs the Python loop")
    assert row_digest(name) == stored["compiled"][name]


@pytest.mark.parametrize("name", PYTHON_ROWS)
def test_ks_row_without_the_compiled_walk_matches_golden_digest(stored, monkeypatch, name):
    monkeypatch.setattr(rng_module, "_loop", None)
    assert row_digest(name) == stored["python"][name]


if __name__ == "__main__":
    if GOLDEN.exists() and "--force" not in sys.argv[1:]:
        sys.exit(f"{GOLDEN.name} exists; pass --force to overwrite it")
    if rng_module.compiled_loop() is None:
        sys.exit("the compiled column walk does not load here")
    golden = {"fingerprint": fingerprint(), "seed": SEED,
              "compiled": {name: row_digest(name) for name in KS_ROWS}}
    rng_module._loop = None
    golden["python"] = {name: row_digest(name) for name in PYTHON_ROWS}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
