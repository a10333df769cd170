"""The scalar random stream pinned to stored bits: normals and gammas, and
the normals of the compiled column walk.

``tests/data/golden_rng_v1.json`` was generated once, by running this module
as a script (it refuses to overwrite the file without ``--force``):

    PYTHONPATH=src python tests/test_golden_rng.py

It holds the ``float.hex`` of the first 64 standard normals at one seed, and
for each gamma shape in ``SHAPES`` a few seeds of eight draws each, with the
stream position after every draw.  Besides seed 0, each shape gets the first
seed whose first draw has a rejected Marsaglia-Tsang attempt and the first
seed whose first draw is accepted by the log test rather than the squeeze,
so both slow paths are pinned; the test checks that they are really taken.
"""

import json
import math
import pathlib
import sys
from dataclasses import dataclass

import pytest

from triwish import rng as rng_module
from triwish.rng import RngStream

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_rng_v1.json"
NORMAL_SEED = 12345
NORMAL_COUNT = 64
SHAPES = (0.3, 0.5, 1.0, 2.5, 50.0)
DRAWS_PER_SEED = 8
# Uniforms in the first NORMAL_COUNT columns of a fill when each chi takes 3.
WRAP_LEAD = NORMAL_COUNT * (NORMAL_COUNT - 1) + 3 * NORMAL_COUNT


@dataclass
class GammaPath:
    """How one gamma draw went: normals drawn, attempts made, log tests run."""

    normals: int
    attempts: int
    log_tests: int

    @property
    def rejected(self):
        return self.attempts > 1

    @property
    def log_accepted(self):
        # A rejected attempt always runs the log test (bar u == 0), so the
        # accepting attempt ran it too exactly when every attempt did.
        return self.log_tests == self.attempts


class _CountingMath:
    """Stands in for ``math`` inside ``triwish.rng`` and counts log and cos calls."""

    pi = math.pi
    sqrt = staticmethod(math.sqrt)

    def __init__(self):
        self.logs = 0
        self.cos_calls = 0

    def log(self, x):
        self.logs += 1
        return math.log(x)

    def cos(self, x):
        self.cos_calls += 1
        return math.cos(x)


def gamma_draws(seed, shape, ndraws):
    """Draw ndraws gammas; return (hex, position) pairs and each draw's path.

    Every normal makes one cos call, one log call and takes two uniforms;
    every attempt takes one more uniform, and every log test two log calls.
    """
    spy = _CountingMath()
    rng = RngStream(seed)
    draws, paths = [], []
    boost = 1 if shape < 1.0 else 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "math", spy)
        for _ in range(ndraws):
            start, spy.logs, spy.cos_calls = rng.position, 0, 0
            value = rng.gamma(shape)
            normals = spy.cos_calls
            attempts = rng.position - start - boost - 2 * normals
            paths.append(GammaPath(normals, attempts, (spy.logs - normals) // 2))
            draws.append([value.hex(), rng.position])
    return draws, paths


def _first_seed(shape, want):
    seed = 0
    while not want(gamma_draws(seed, shape, 1)[1][0]):
        seed += 1
    return seed


def golden_rng_record():
    rng = RngStream(NORMAL_SEED)
    normals = [rng.standard_normal().hex() for _ in range(NORMAL_COUNT)]
    gammas = []
    for shape in SHAPES:
        seeds = sorted({
            0,
            _first_seed(shape, lambda p: p.rejected),
            _first_seed(shape, lambda p: p.log_accepted and not p.rejected),
        })
        for seed in seeds:
            draws, _ = gamma_draws(seed, shape, DRAWS_PER_SEED)
            gammas.append({"shape": shape, "seed": seed, "draws": draws})
    return {"normals": {"seed": NORMAL_SEED, "hex": normals}, "gammas": gammas}


def test_golden_normals():
    stored = json.loads(GOLDEN.read_text())["normals"]
    rng = RngStream(stored["seed"])
    assert len(stored["hex"]) == NORMAL_COUNT
    assert [rng.standard_normal().hex() for _ in range(NORMAL_COUNT)] == stored["hex"]


def test_golden_normals_through_box_muller(walk):
    # Column NORMAL_COUNT of an m = NORMAL_COUNT + 1 fill holds NORMAL_COUNT
    # normals above its chi.  Positions count modulo 2**258, where the Philox
    # counter wraps, so a fill started WRAP_LEAD uniforms before 2**258 whose
    # first NORMAL_COUNT columns take exactly WRAP_LEAD uniforms draws that
    # column from the stream's first uniforms.  They do at n = 100, found
    # once: every chi accepts at its first attempt, taking three uniforms.
    stored = json.loads(GOLDEN.read_text())["normals"]
    m, n = NORMAL_COUNT + 1, 100.0
    rng = RngStream(stored["seed"])
    rng.skip(2 ** 258 - WRAP_LEAD)
    z = walk(rng, m, 1, n + 1, -1.0)
    assert rng.position == 2 ** 258 + 2 * NORMAL_COUNT + 3
    assert [x.hex() for x in z[0, :m - 1, m - 1].tolist()] == stored["hex"]


@pytest.mark.parametrize("shape", SHAPES)
def test_golden_gammas_and_their_paths(shape):
    records = [r for r in json.loads(GOLDEN.read_text())["gammas"] if r["shape"] == shape]
    assert records
    paths = []
    for rec in records:
        draws, rec_paths = gamma_draws(rec["seed"], shape, len(rec["draws"]))
        assert draws == rec["draws"], rec["seed"]
        paths += rec_paths
    assert any(p.rejected for p in paths)
    assert any(p.log_accepted for p in paths)
    assert any(not p.rejected and not p.log_accepted for p in paths)


if __name__ == "__main__":
    if GOLDEN.exists() and "--force" not in sys.argv[1:]:
        sys.exit(f"{GOLDEN.name} exists; pass --force to overwrite it")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_rng_record(), indent=1) + "\n")
