"""Bartlett fills pinned to stored bytes, on the scalar and the two-pass path.

``tests/data/golden_fill_v1.json`` was generated once, from the
column-by-column scalar fill, by running this module as a script:

    PYTHONPATH=src python tests/test_fill.py

Each record holds the sha256 of one fill's float64 bytes (C order, little
endian), the stream position after it and the next uniform.  The file is a
frozen reference: both fill paths must reproduce it unchanged.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from triwish import samplers
from triwish.rng import RngStream
from triwish.samplers import draw_bartlett_invwishart, draw_bartlett_wishart

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_fill_v1.json"
FILLS = {"wishart": draw_bartlett_wishart, "invwishart": draw_bartlett_invwishart}
GOLDEN_M = (1, 2, 3, 5, 11, 12, 13, 16, 50, 200)
GOLDEN_SEEDS = (0, 7, 424242)


def _golden_n(m):
    # n = m - 0.5 drives the first inverse-Wishart chi to shape 0.25, so the
    # gamma shape < 1 boost is pinned too.
    return (m - 0.5, m + 2.0, 3.0 * m + 7.5)


def _fill_record(fill, m, n, seed, skip=0):
    rng = RngStream(seed)
    for _ in range(skip):
        rng.uniform()
    z = FILLS[fill](rng, m, n)
    return {
        "fill": fill,
        "m": m,
        "n": n,
        "seed": seed,
        "sha256": hashlib.sha256(np.ascontiguousarray(z, dtype="<f8").tobytes()).hexdigest(),
        "position": rng.position,
        "next_uniform": rng.uniform().hex(),
    }


def _golden_records():
    return [
        _fill_record(fill, m, n, seed)
        for fill in FILLS
        for m in GOLDEN_M
        for n in _golden_n(m)
        for seed in GOLDEN_SEEDS
    ]


# Forces one path: every m at or above the threshold takes the two-pass fill.
PATHS = {"scalar": 10 ** 9, "two_pass": 1}


@pytest.fixture(params=sorted(PATHS))
def fill_path(request, monkeypatch):
    monkeypatch.setattr(samplers, "FILL_BATCH_MIN_M", PATHS[request.param])
    return request.param


def test_golden_fill_digests(fill_path):
    stored = json.loads(GOLDEN.read_text())
    assert len(stored) == len(FILLS) * len(GOLDEN_M) * 3 * len(GOLDEN_SEEDS)
    for rec in stored:
        assert _fill_record(rec["fill"], rec["m"], rec["n"], rec["seed"]) == rec, rec


def test_golden_covers_the_crossover():
    assert {samplers.FILL_BATCH_MIN_M - 1, samplers.FILL_BATCH_MIN_M} <= set(GOLDEN_M)


def _both_paths(monkeypatch, fill, m, n, seed, skip=0):
    out = {}
    for path, threshold in PATHS.items():
        monkeypatch.setattr(samplers, "FILL_BATCH_MIN_M", threshold)
        out[path] = _fill_record(fill, m, n, seed, skip)
    return out["scalar"], out["two_pass"]


@pytest.mark.parametrize("fill", sorted(FILLS))
def test_paths_agree_around_the_crossover(monkeypatch, fill):
    c = samplers.FILL_BATCH_MIN_M
    for m in (1, 4, c - 2, c - 1, c, c + 1, c + 7, 40):
        for n in (m - 0.25, m + 0.5, 2.0 * m + 3.0):
            scalar, two_pass = _both_paths(monkeypatch, fill, m, n, seed=m)
            assert scalar == two_pass


@pytest.mark.parametrize("fill", sorted(FILLS))
def test_paths_agree_across_a_block_boundary(monkeypatch, fill):
    # 4096 uniforms per Philox block.  Start each fill a few uniforms before
    # the first boundary so that a batch of column uniforms, or a chi draw,
    # straddles it.
    m = 20
    for skip in (4096 - 1, 4096 - 7, 4096 - 40, 4096 - 300, 4096):
        scalar, two_pass = _both_paths(monkeypatch, fill, m, m + 1.5, seed=11, skip=skip)
        assert scalar == two_pass
        assert scalar["position"] > 4096


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(rec) for rec in _golden_records())
    GOLDEN.write_text("[\n" + lines + "\n]\n")
