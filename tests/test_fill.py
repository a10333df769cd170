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
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from triwish import rng as rng_module
from triwish.errors import InvalidDegreesOfFreedom, InvalidParameter
from triwish.rng import RngStream
from triwish.samplers import (
    draw_bartlett_invwishart,
    draw_bartlett_invwishart_many,
    draw_bartlett_wishart,
    draw_bartlett_wishart_many,
)

from philox_positions import position_of
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


def _fill_record(fill, m, n, seed, skip=0, k=None):
    # One fill, or a batch of k fills.
    rng = RngStream(seed)
    for _ in range(skip):
        rng.uniform()
    z = FILLS[fill](rng, m, n) if k is None else MANY[fill](rng, m, n, k)
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


# "scalar" unloads the compiled column walk, as in a process that cannot
# build or load it, so every fill runs the scalar loop; "columns" leaves the
# walk as built, which runs every fill where it loads.
PATHS = ("columns", "scalar")


def _force_fill_path(mp, path):
    if path == "scalar":
        mp.setattr(rng_module, "_loop", None)


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


def test_golden_fill_digests_without_the_compiled_loop(no_compiled_loop):
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
    _check_golden_fills()
    assert rng_module.compiled_loop() is None
    if failure == "no compiler":
        assert not any(cache.iterdir())  # the temporary file is gone


@pytest.mark.parametrize("loop", ["as built", "none"])
def test_every_fill_is_fortran_ordered(monkeypatch, loop):
    # The kernels take a Fortran-ordered fill without a copy: a single fill,
    # each fill of a public batch and each fill of a plan's batch.
    if loop == "none":
        monkeypatch.setattr(rng_module, "_loop", None)
    for m in (1, 2, 5, 6, 30):
        for name in FILLS:
            assert FILLS[name](RngStream(m), m, m + 2.0).flags.f_contiguous
            many = MANY[name](RngStream(m), m, m + 2.0, 3)
            assert many.shape == (3, m, m) and all(z.flags.f_contiguous for z in many)
        fills = rng_module.bartlett_fills(RngStream(m), m, 3, m + 3.0, -1.0)
        assert fills.shape == (3, m, m) and all(z.flags.f_contiguous for z in fills)
        assert np.array_equal(fills, MANY["wishart"](RngStream(m), m, m + 2.0, 3))


def _both_paths(fill, m, n, seed, skip=0, k=None):
    out = {}
    for path in PATHS:
        with pytest.MonkeyPatch.context() as mp:
            _force_fill_path(mp, path)
            out[path] = _fill_record(fill, m, n, seed, skip, k)
    return out["scalar"], out["columns"]


@pytest.mark.parametrize("fill", sorted(FILLS))
def test_paths_agree_around_the_crossover(fill):
    # Single fills below m = 6 ran the scalar loop even where the walk
    # loads, until the walk became cheaper at every m.
    # A numpy float32 n once ran the scalar draws in float32 arithmetic.
    for m in (1, 2, 4, 5, 6, 7, 13, 22, 40):
        for n in (m - 0.25, m + 0.5, 2.0 * m + 3.0, np.float32(m + 0.3)):
            scalar, columns = _both_paths(fill, m, n, seed=m)
            assert scalar == columns


@pytest.mark.parametrize("fill", sorted(FILLS))
def test_paths_agree_across_a_block_boundary(fill):
    # 4096 uniforms per Philox block.  Start each fill, and each batch of 40
    # fills at m = 6 (about 1,900 uniforms), a few uniforms before the first
    # boundary, from every lane of a Philox block, so that a batch of column
    # uniforms, a chi draw or a fill straddles it.
    for skip in (4096 - 1, 4096 - 2, 4096 - 3, 4096 - 7, 4096 - 40, 4096 - 300, 4096):
        for m, k in ((20, None), (6, 40)):
            scalar, columns = _both_paths(fill, m, m + 1.5, seed=11, skip=skip, k=k)
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


def _walk_and_scalar_chi(walk, python_fills, u, lane, df):
    """A 1 x 1 fill at chi df drawn from lane ``lane`` of a Philox block
    crafted to hold the uniforms u, by the walk and by the Python loop:
    [(chi as hex, uniforms used)] for each."""
    p = position_of(2, 0, u) + lane
    out = []
    for fills in (walk, python_fills):
        rng = RngStream(2, 0)
        rng.skip(p)
        out.append((fills(rng, 1, 1, df + 1.0, -1.0)[0, 0, 0].hex(), rng.position - p))
    return out


def test_first_attempt_with_v_not_positive_is_not_accepted(walk, python_fills):
    # u1 = 0.999 and u2 = 1/2 make x = -3.72; at gamma shape 1 (chi df 2,
    # d = 2/3, c = 1/sqrt(6)) that gives v = 1 + c x < 0, which the scalar
    # gamma redraws from the next two uniforms (5 or more used in all).  At
    # shape 50 the same uniforms give v > 0 and miss the squeeze, as
    # 1 - 0.0331 x^4 < 0, so the log test decides: it accepts u = 1/2 (3
    # used) and rejects u = 0.99, which starts a second attempt (6 or more).
    x = math.sqrt(-2.0 * math.log(1.0 - 0.999)) * math.cos(math.pi)
    assert 1.0 - 0.0331 * x ** 4 < 0.0
    for df, u, path_taken in ((2.0, [0.999, 0.5, 0.25, 0.125], lambda used: used >= 5),
                              (100.0, [0.999, 0.5, 0.5, 0.5], lambda used: used == 3),
                              (100.0, [0.999, 0.5, 0.99, 0.25], lambda used: used >= 6)):
        walked, scalar = _walk_and_scalar_chi(walk, python_fills, u, 0, df)
        assert walked == scalar and path_taken(scalar[1])


def test_df_line_is_checked_before_any_uniform(fill_path):
    # A NaN or non-positive df would never end the walk's chi, as
    # RngStream.chi refuses it; the df is checked at both ends of the line,
    # before any column is drawn.  The Python loop once drew the columns
    # before a last df that is not positive.
    for m, a, s in ((1, -1.0, 1.0), (1, -2.0, 1.0), (3, 3.0, -1.0), (3, 0.5, -1.0),
                    (5, 4.5, -1.0), (3, -2.5, 1.0), (2, math.nan, 1.0), (2, math.nan, -1.0),
                    (2, -math.inf, 1.0)):
        rng = RngStream(1)
        with pytest.raises(InvalidDegreesOfFreedom):
            rng_module.bartlett_fills(rng, m, 2, a, s)
        assert rng.position == 0
    assert rng_module.bartlett_fills(RngStream(1), 3, 2, 3.5, -1.0).shape == (2, 3, 3)


def test_fills_into_a_given_array_write_every_double(fill_path):
    # A reused buffer holds the last fills, or anything else: NaN here.
    # Every double is written, zeros below the diagonals included, with the
    # bytes and end position of fills into a new array.
    for m, k in ((1, 1), (2, 3), (5, 2), (30, 2)):
        want_rng, rng = RngStream(m), RngStream(m)
        want = rng_module.bartlett_fills(want_rng, m, k, m + 3.0, -1.0)
        out = np.full((k, m, m), np.nan)
        got = rng_module.bartlett_fills(rng, m, k, m + 3.0, -1.0, out)
        assert np.shares_memory(got, out)
        assert got.tobytes() == want.tobytes() and rng.position == want_rng.position
        single = draw_bartlett_wishart(RngStream(m), m, m + 2.0, out=out[:1])
        assert single.tobytes() == want[0].tobytes() and np.shares_memory(single, out)


def test_a_wrong_fill_output_raises_before_any_uniform(fill_path):
    # The walk writes k * m * m doubles through the array's bare address,
    # so a buffer one fill too small must never reach it.  The single fills
    # take a (1, m, m) output.
    m = 4
    for k in (3, 1):
        read_only = np.empty((k, m, m))
        read_only.flags.writeable = False
        for out in (np.empty((k - 1, m, m)), np.empty((k, m, m - 1)),
                    np.empty((k, m, m), np.float32), np.empty((k, m, m), dtype=">f8"),
                    np.empty((k, m, m), order="F"), np.empty((k, m, m + 1))[:, :, :m], read_only,
                    np.empty((k, m, m)).tolist()):
            rng = RngStream(1)
            with pytest.raises(InvalidParameter, match="fill output"):
                rng_module.bartlett_fills(rng, m, k, m + 3.0, -1.0, out)
            if k == 1:
                for fill in FILLS.values():
                    with pytest.raises(InvalidParameter, match="fill output"):
                        fill(rng, m, m + 2.0, out=out)
            assert rng.position == 0


_U53 = 2.0 ** -53
_UNIFORM = st.one_of(st.sampled_from((0.0, _U53, 0.5, 1.0 - _U53)),
                     st.integers(0, 2 ** 53 - 1).map(lambda i: i * _U53))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(u=st.lists(_UNIFORM, min_size=4, max_size=4), lane=st.integers(0, 3),
       df=st.floats(1e-3, 1e4))
# w = 0 after a normal that misses the squeeze, which the log test must not
# take; and the shape < 1 boost at its largest and smallest uniforms.
@example(u=[0.999, 0.0, 0.0, 0.5], lane=0, df=100.0)
@example(u=[0.5, 0.0, 0.5, 1.0 - _U53], lane=0, df=0.5)
@example(u=[0.5, 0.0, 0.5, 0.0], lane=0, df=0.5)
def test_walk_chi_matches_the_scalar_chi(walk, python_fills, u, lane, df):
    # Chosen uniforms, from any lane of their block: rejected attempts, the
    # boost below shape 1, and the uniforms 0 and 1 - 2^-53.
    walked, scalar = _walk_and_scalar_chi(walk, python_fills, u, lane, df)
    assert walked == scalar


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


def test_walk_fills_take_every_chi_path(walk):
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
