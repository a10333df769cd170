"""Bartlett fills pinned to stored bytes, on the scalar loop and the column
engine, and the batched fills checked against k single fills.

``tests/data/golden_fill_v1.json`` was generated once, from the
column-by-column scalar fill, by running this module as a script (it
refuses to overwrite the file without ``--force``):

    PYTHONPATH=src python tests/test_fill.py

Each record holds the sha256 of one fill's float64 bytes (C order, little
endian), the stream position after it and the next uniform.  The file is a
frozen reference: both fill paths must reproduce it unchanged.  Records at
m = 27 and 28 were added later, generated the same way from the fills of
that time, to pin the crossover of ``FILL_BATCH_MIN_M``.
"""

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwish import samplers
from triwish.rng import RngStream
from triwish.samplers import (
    draw_bartlett_invwishart,
    draw_bartlett_invwishart_many,
    draw_bartlett_wishart,
    draw_bartlett_wishart_many,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_fill_v1.json"
FILLS = {"wishart": draw_bartlett_wishart, "invwishart": draw_bartlett_invwishart}
MANY = {"wishart": draw_bartlett_wishart_many, "invwishart": draw_bartlett_invwishart_many}
GOLDEN_M = (1, 2, 3, 5, 11, 12, 13, 16, 27, 28, 50, 200)
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


# Forces one path: every m at or above the threshold takes the column engine.
PATHS = {"scalar": 10 ** 9, "columns": 1}


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
    return out["scalar"], out["columns"]


@pytest.mark.parametrize("fill", sorted(FILLS))
def test_paths_agree_around_the_crossover(monkeypatch, fill):
    c = samplers.FILL_BATCH_MIN_M
    for m in (1, 4, c - 2, c - 1, c, c + 1, c + 7, 40):
        for n in (m - 0.25, m + 0.5, 2.0 * m + 3.0):
            scalar, columns = _both_paths(monkeypatch, fill, m, n, seed=m)
            assert scalar == columns


@pytest.mark.parametrize("fill", sorted(FILLS))
def test_paths_agree_across_a_block_boundary(monkeypatch, fill):
    # 4096 uniforms per Philox block.  Start each fill a few uniforms before
    # the first boundary so that a batch of column uniforms, or a chi draw,
    # straddles it.
    m = 20
    for skip in (4096 - 1, 4096 - 7, 4096 - 40, 4096 - 300, 4096):
        scalar, columns = _both_paths(monkeypatch, fill, m, m + 1.5, seed=11, skip=skip)
        assert scalar == columns
        assert scalar["position"] > 4096


def _digest(z):
    return hashlib.sha256(np.ascontiguousarray(z, dtype="<f8").tobytes()).hexdigest()


def _singles_and_many(fill, m, n, k, seed, skip=0):
    """(digest, position, next uniform) after k single fills of the scalar
    loop and after one k-batch."""
    out = []
    for draw in (lambda rng: np.stack([FILLS[fill](rng, m, n) for _ in range(k)]),
                 lambda rng: MANY[fill](rng, m, n, k)):
        rng = RngStream(seed)
        rng.skip(skip)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(samplers, "FILL_BATCH_MIN_M", PATHS["scalar"])
            z = draw(rng)
        assert z.shape == (k, m, m)
        out.append((_digest(z), rng.position, rng.uniform()))
    return out


MANY_M = (1, 2, 3, 5, 11, 12, 13)


@pytest.mark.parametrize("fill", sorted(FILLS))
@pytest.mark.parametrize("m", MANY_M)
def test_many_matches_single_fills(fill, m):
    for n in _golden_n(m):
        for k in (1, 2, 37):
            single, many = _singles_and_many(fill, m, n, k, seed=1000 * m + k)
            assert single == many, (n, k)


@pytest.mark.parametrize("fill", sorted(FILLS))
@pytest.mark.parametrize("m", MANY_M)
def test_many_matches_single_fills_past_a_window(fill, m):
    k = samplers.fills_per_window(m) + 1
    assert k > 37
    single, many = _singles_and_many(fill, m, m + 2.0, k, seed=m)
    assert single == many


@pytest.mark.parametrize("fill", sorted(FILLS))
def test_many_matches_single_fills_across_a_block_boundary(fill):
    # 4096 uniforms per Philox block: the read-ahead and the consumption
    # both start a few uniforms before the first boundary.
    for skip in (4096 - 1, 4096 - 7, 4096 - 40, 4096):
        single, many = _singles_and_many(fill, 5, 10.0, 200, seed=21, skip=skip)
        assert single == many
        assert single[1] > 4096


def _batch_scalar_chis(fill, m, n, k, seed):
    """Scalar chi draws one k-batch makes, once it matches k single fills."""
    single, many = _singles_and_many(fill, m, n, k, seed)
    assert single == many
    calls = []
    chi = RngStream.chi
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RngStream, "chi", lambda self, df: calls.append(df) or chi(self, df))
        MANY[fill](RngStream(seed), m, n, k)
    return len(calls)


def test_many_runs_a_failing_chi_singly():
    # At m=5, n=10 about one column in a hundred holds a chi that misses its
    # first Marsaglia-Tsang attempt: only that chi takes the scalar draw.
    assert _batch_scalar_chis("invwishart", 5, 10.0, 300, seed=424242) == 15
    # At n=4.5 two columns of each fill have a gamma shape below 1 (the
    # boost path), and each of those takes the scalar draw as well.
    assert _batch_scalar_chis("invwishart", 5, 4.5, 10, seed=3) == 22


def test_first_attempt_with_v_not_positive_is_not_accepted():
    # u1 = 0.999 and u2 = 1/2 make x = -3.72; at gamma shape 1
    # (d = 2/3, c = 1/sqrt(6)) that gives v = 1 + c x < 0, which the scalar
    # gamma redraws, so the batch must not accept it.  At shape 50 the same
    # uniforms give v > 0 and pass the log test: the constants are per draw.
    d = np.array([1.0, 50.0]) - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    t = np.array([[0.999, 0.5, 0.5], [0.999, 0.5, 0.5]])
    ok, _ = samplers._first_attempt_gammas(t, d, c)
    assert ok.tolist() == [False, True]


def test_many_matches_single_fills_at_large_m():
    # At m=40 about one column in three hundred misses its first attempt;
    # the rest of its fill stays batched.
    assert _batch_scalar_chis("wishart", 40, 42.0, 8, seed=5) == 1


FILL_CASES = dict(
    fill=st.sampled_from(sorted(FILLS)),
    seed=st.integers(0, 2 ** 64 - 1),
    m=st.integers(1, 8),
    extra=st.floats(0.01, 30.0),
    k=st.integers(1, 64),
)


@settings(max_examples=60, deadline=None)
@given(**FILL_CASES)
def test_many_matches_single_fills_property(fill, seed, m, extra, k):
    single, many = _singles_and_many(fill, m, m - 1 + extra, k, seed)
    assert single == many


@settings(max_examples=60, deadline=None)
@given(**FILL_CASES)
def test_many_matches_single_fills_property_in_small_windows(fill, seed, m, extra, k):
    # 50-uniform windows and 3-column chunks: windows end inside a fill, and
    # a chi that takes the scalar draw can run past the end of its window.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(samplers, "MANY_READ_AHEAD", 50)
        mp.setattr(samplers, "MANY_CHUNK", 3)
        single, many = _singles_and_many(fill, m, m - 1 + extra, k, seed)
    assert single == many


if __name__ == "__main__":
    if GOLDEN.exists() and "--force" not in sys.argv[1:]:
        sys.exit(f"{GOLDEN.name} exists; pass --force to overwrite it")
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(rec) for rec in _golden_records())
    GOLDEN.write_text("[\n" + lines + "\n]\n")
