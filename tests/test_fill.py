"""Bartlett fills pinned to stored bytes, on the scalar loop and the compiled
column walk, and the batched fills checked against k single fills.

``tests/data/golden_fill_v1.json`` was generated once, from the
column-by-column scalar fill, by running this module as a script (it
refuses to overwrite the file without ``--force``):

    PYTHONPATH=src python tests/test_fill.py

Each record holds the sha256 of one fill's float64 bytes (C order, little
endian), the stream position after it and the next uniform.  The file is a
frozen reference: both fill paths must reproduce it unchanged.  Records at
m = 27 and 28, later at m = 21 and 22 and then at m = 4 and 6, were added
afterwards, generated the same way from the scalar fills of that time, to
pin the crossovers of the batched fill.
"""

import hashlib
import json
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from triwish import rng as rng_module
from triwish import samplers
from triwish.errors import InvalidDegreesOfFreedom, InvalidParameter
from triwish.rng import RngStream
from triwish.samplers import (
    draw_bartlett_invwishart,
    draw_bartlett_invwishart_many,
    draw_bartlett_wishart,
    draw_bartlett_wishart_many,
)

from test_golden_rng import GammaPath, _CountingMath

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_fill_v1.json"
FILLS = {"wishart": draw_bartlett_wishart, "invwishart": draw_bartlett_invwishart}
MANY = {"wishart": draw_bartlett_wishart_many, "invwishart": draw_bartlett_invwishart_many}
GOLDEN_M = (1, 2, 3, 4, 5, 6, 11, 12, 13, 16, 21, 22, 27, 28, 50, 200)
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


# Forces one path: every m at or above the threshold takes the column walk.
PATHS = {"scalar": 10 ** 9, "columns": 1}


def _force_fill_path(mp, path):
    mp.setattr(samplers, "FILL_BATCH_MIN_M", PATHS[path])


@pytest.fixture(params=sorted(PATHS))
def fill_path(request, monkeypatch):
    _force_fill_path(monkeypatch, request.param)
    return request.param


def _check_golden_fills():
    stored = json.loads(GOLDEN.read_text())
    assert len(stored) == len(FILLS) * len(GOLDEN_M) * 3 * len(GOLDEN_SEEDS)
    for rec in stored:
        assert _fill_record(rec["fill"], rec["m"], rec["n"], rec["seed"]) == rec, rec


def test_golden_fill_digests(fill_path):
    _check_golden_fills()


def test_golden_fill_digests_without_the_compiled_loop(monkeypatch, no_compiled_loop):
    _force_fill_path(monkeypatch, "columns")
    _check_golden_fills()


@pytest.mark.parametrize("failure", ["no compiler", "cache not writable"])
def test_golden_fill_digests_when_the_loop_cannot_be_built(tmp_path, monkeypatch, failure):
    if failure == "no compiler":
        monkeypatch.setattr(rng_module, "_CC", str(tmp_path / "no-such-cc"))
        cache = tmp_path / "cache"
    else:
        # Under a regular file no directory can be made, even by root.
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"
    monkeypatch.setattr(rng_module, "_CACHE", cache)
    monkeypatch.setattr(rng_module, "_loop", rng_module._NOT_LOADED)
    _force_fill_path(monkeypatch, "columns")
    _check_golden_fills()
    assert rng_module.compiled_loop() is None
    if failure == "no compiler":
        assert not any(cache.iterdir())  # the temporary file is gone


@pytest.mark.parametrize("loop", ["as built", "none"])
def test_single_fills_are_fortran_ordered_and_batches_c_ordered(monkeypatch, loop):
    # The kernels take a Fortran-ordered fill without a copy; batches keep
    # C order, which the validation checks' sums over them depend on.
    if loop == "none":
        monkeypatch.setattr(rng_module, "_loop", None)
    for m in (2, samplers.FILL_BATCH_MIN_M - 1, samplers.FILL_BATCH_MIN_M, 30):
        for name in FILLS:
            assert FILLS[name](RngStream(m), m, m + 2.0).flags.f_contiguous
            assert MANY[name](RngStream(m), m, m + 2.0, 3).flags.c_contiguous


def test_golden_covers_the_crossover():
    c = samplers.FILL_BATCH_MIN_M
    assert {c - 1, c} <= set(GOLDEN_M)


def test_single_fill_threshold_follows_the_loaded_loop(monkeypatch):
    walk_ms = []
    walk = samplers._fill_walk
    monkeypatch.setattr(samplers, "_fill_walk",
                        lambda rng, m, diag_df, k, **kw: walk_ms.append(m)
                        or walk(rng, m, diag_df, k, **kw))
    # Fills below FILL_BATCH_MIN_M never build or load the loop.
    monkeypatch.setattr(rng_module, "_loop", rng_module._NOT_LOADED)
    for m in (1, samplers.FILL_BATCH_MIN_M - 1):
        draw_bartlett_wishart(RngStream(m), m, m + 2.0)
    assert rng_module._loop is rng_module._NOT_LOADED and not walk_ms
    ms = (samplers.FILL_BATCH_MIN_M, 40)
    for loop in (rng_module.compiled_loop(), None):
        monkeypatch.setattr(rng_module, "_loop", loop)
        walk_ms.clear()
        for m in ms:
            draw_bartlett_invwishart(RngStream(m), m, m + 2.0)
        draw_bartlett_wishart_many(RngStream(1), 2, 3.0, 4)
        assert walk_ms == (list(ms) + [2] if loop is not None else [])


def _both_paths(monkeypatch, fill, m, n, seed, skip=0):
    out = {}
    for path in PATHS:
        _force_fill_path(monkeypatch, path)
        out[path] = _fill_record(fill, m, n, seed, skip)
    return out["scalar"], out["columns"]


@pytest.mark.parametrize("fill", sorted(FILLS))
def test_paths_agree_around_the_crossover(monkeypatch, fill):
    c = samplers.FILL_BATCH_MIN_M
    for m in sorted({1, c - 2, c - 1, c, c + 1, c + 7, 22, 40}):
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
            _force_fill_path(mp, "scalar")
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
    # The walk generates its uniforms 256 at a time; a batch of about 8,200
    # uniforms runs past many of those windows and two 4096-uniform blocks.
    k = 2 * 4096 // (m * (m + 2)) + 1
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


def _walk_chi(u, df):
    """One column of a 1x1 fill through the walk: (done, uniforms used, chi)."""
    z = np.zeros((1, 1, 1))
    done, used = rng_module.column_walk(np.array(u, dtype=float), z, 0, 1, np.array([df]))
    return done, used, float(z[0, 0, 0])


def _scalar_chi(u, df):
    """RngStream.chi over the uniforms u: (1, uniforms used, chi).  Raises
    StopIteration where the uniforms run out."""
    feed = iter(u)
    stream = RngStream.__new__(RngStream)
    stream.uniform = feed.__next__
    chi = stream.chi(df)
    return 1, len(u) - len(list(feed)), chi


def test_first_attempt_with_v_not_positive_is_not_accepted(compiled_walk):
    # u1 = 0.999 and u2 = 1/2 make x = -3.72; at gamma shape 1 (chi df 2,
    # d = 2/3, c = 1/sqrt(6)) that gives v = 1 + c x < 0, which the scalar
    # gamma redraws from the next two uniforms (5 used in all).  At shape 50
    # the same uniforms give v > 0 and miss the squeeze, as 1 - 0.0331 x^4 < 0,
    # so the log test decides: it accepts u = 1/2 (3 used) and rejects
    # u = 0.99, which starts a second attempt (6 used).
    x = math.sqrt(-2.0 * math.log(1.0 - 0.999)) * math.cos(math.pi)
    assert 1.0 - 0.0331 * x ** 4 < 0.0
    for df, u, used in ((2.0, [0.999, 0.5, 0.25, 0.125, 0.5], 5),
                        (100.0, [0.999, 0.5, 0.5], 3),
                        (100.0, [0.999, 0.5, 0.99, 0.25, 0.125, 0.5], 6)):
        shape = 0.5 * df
        stream = RngStream.__new__(RngStream)
        stream.uniform = iter(u).__next__
        g = RngStream._gamma_mt(stream, shape)
        assert _walk_chi(u, df) == _scalar_chi(u, df) == (1, used, math.sqrt(g * 2.0))
        # One uniform short, the walk finishes no column and uses none.
        assert _walk_chi(u[:-1], df) == (0, 0, 0.0)


def test_column_walk_rejects_arrays_it_cannot_walk(compiled_walk):
    u, z, df = np.full(10, 0.5), np.zeros((1, 2, 2)), np.full(2, 5.0)
    # Fills are walked in C order or in Fortran order; fills whose rows or
    # columns are spaced out are refused.
    for args in ((u[::2], z, 0, 2, df),
                 (u, z.astype(np.float32), 0, 2, df),
                 (u, np.zeros((1, 2, 4))[:, :, :2], 0, 2, df),
                 (u, np.zeros((1, 2, 4)).transpose(0, 2, 1)[:, :2, :], 0, 2, df),
                 (u, np.zeros((4, 2, 2))[::2], 0, 2, df),
                 (u, np.zeros((2, 2, 1)), 0, 2, df),
                 (u, z, 0, 2, np.full(3, 5.0)),
                 (u, z, 0, 3, df),
                 (u, z, 2, 1, df)):
        with pytest.raises(InvalidParameter):
            compiled_walk(*args)
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(InvalidDegreesOfFreedom):
            compiled_walk(u, z, 0, 2, np.array([5.0, bad]))
    walked = []
    for fills in (z, np.zeros((3, 2, 2)).transpose(0, 2, 1), np.zeros((2, 2), order="F")[None]):
        assert compiled_walk(u, fills, 0, 2, df)[0] == 2
        walked.append(fills[0].tobytes())
        # Column 1's normal lands above the diagonal, in either order.
        assert fills[0, 0, 1] < 0.0 and fills[0, 1, 0] == 0.0
    assert walked[0] == walked[1] == walked[2]


_U53 = 2.0 ** -53
_UNIFORM = st.one_of(st.sampled_from((0.0, _U53, 0.5, 1.0 - _U53)),
                     st.integers(0, 2 ** 53 - 1).map(lambda i: i * _U53))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(u=st.lists(_UNIFORM, max_size=16), df=st.floats(1e-3, 1e4))
def test_walk_chi_matches_the_scalar_chi(compiled_walk, u, df):
    # Any uniforms: rejected attempts, the boost below shape 1, and a
    # window that ends inside the chi, where neither side finishes.
    try:
        scalar = _scalar_chi(u, df)
    except StopIteration:
        assert _walk_chi(u, df)[:2] == (0, 0)
    else:
        walk = _walk_chi(u, df)
        assert walk[:2] == scalar[:2] and walk[2].hex() == scalar[2].hex()


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


DIAG_DF = {"wishart": lambda m, n: lambda j: n + 1 - j,
           "invwishart": lambda m, n: lambda j: n - m + j}


def _fill_in_windows(fill, m, n, k, seed, width):
    """k fills through the walk's window entry, over windows of numpy's
    Philox stream: each starts where the finished columns ended, holds
    ``width`` uniforms, and is doubled when it finishes no column.
    (digest, uniforms used, next uniform), as :func:`_singles_and_many`."""
    philox = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    u = (philox.random_raw(4 * k * m * (m + 2) + 1000) >> 11) * 2.0 ** -53
    df = np.array([DIAG_DF[fill](m, n)(j + 1) for j in range(m)])
    z = np.zeros((k, m, m))
    col, at, grow = 0, 0, 1
    while col < k * m:
        assert at + grow * width < len(u)
        done, used = rng_module.column_walk(u[at:at + grow * width], z, col, k * m, df)
        grow = 1 if done > col else 2 * grow
        col, at = done, at + used
    return _digest(z), at, float(u[at])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(**FILL_CASES)
def test_many_matches_single_fills_property_in_small_windows(compiled_walk, fill, seed, m, extra,
                                                              k):
    # 50-uniform windows: windows end inside a fill and inside a column, and
    # a chi whose rejections run past its window doubles the next one.
    single, _ = _singles_and_many(fill, m, m - 1 + extra, k, seed)
    assert _fill_in_windows(fill, m, m - 1 + extra, k, seed, 50) == single


def test_walk_fills_take_every_chi_path(compiled_walk):
    # 100 inverse-Wishart fills at m = 5, n = 4.5 (chi df 0.5 .. 4.5) from
    # seed 0, found by search: counted on the scalar fills with a counting
    # math, their chis take the v <= 0 redraw, the squeeze, the log test's
    # accept and reject, and the shape < 1 boost.  The walk's batch draws
    # the same bytes and ends at the same position.
    m, n, k, seed = 5, 4.5, 100, 0
    spy, paths = _CountingMath(), []

    class Recording(RngStream):
        def chi(self, df):
            start, spy.logs, spy.cos_calls = self.position, 0, 0
            value = RngStream.chi(self, df)
            boost = 1 if df < 2.0 else 0
            normals = spy.cos_calls
            attempts = self.position - start - boost - 2 * normals
            paths.append((GammaPath(normals, attempts, (spy.logs - normals) // 2), boost))
            return value

    rng = Recording(seed)
    with pytest.MonkeyPatch.context() as mp:
        _force_fill_path(mp, "scalar")
        mp.setattr(rng_module, "math", spy)
        singles = np.stack([draw_bartlett_invwishart(rng, m, n) for _ in range(k)])
    assert any(p.normals > p.attempts for p, _ in paths)
    assert any(not p.log_accepted for p, _ in paths)
    assert any(p.log_accepted for p, _ in paths)
    assert any(p.rejected for p, _ in paths)
    assert any(boost for _, boost in paths)
    walk = RngStream(seed)
    many = draw_bartlett_invwishart_many(walk, m, n, k)
    assert many.tobytes() == singles.tobytes()
    assert walk.position == rng.position


if __name__ == "__main__":
    if GOLDEN.exists() and "--force" not in sys.argv[1:]:
        sys.exit(f"{GOLDEN.name} exists; pass --force to overwrite it")
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(rec) for rec in _golden_records())
    GOLDEN.write_text("[\n" + lines + "\n]\n")
