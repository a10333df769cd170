"""Deterministic stream behavior and scalar distribution laws."""

import math
import re
import shutil

import numpy as np
import pytest
import scipy.stats
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from triwish import rng as rng_module
from triwish.errors import InvalidDegreesOfFreedom, InvalidParameter
from triwish.rng import RngStream
from triwish.validation import chi_square_cdf, ks_one_sample, normal_cdf

from philox_positions import philox_block, position_of, raw_word


def test_same_seed_same_sequence():
    a = RngStream(987654321)
    b = RngStream(987654321)
    for _ in range(100):
        assert a.standard_normal() == b.standard_normal()
    a2 = RngStream(987654321)
    b2 = RngStream(987654321)
    for _ in range(50):
        assert a2.chi(3.5) == b2.chi(3.5)
        assert a2.gamma(0.7, 2.0) == b2.gamma(0.7, 2.0)


def test_different_streams_differ():
    a = RngStream(5, stream=0)
    b = RngStream(5, stream=1)
    draws_a = [a.uniform() for _ in range(20)]
    draws_b = [b.uniform() for _ in range(20)]
    assert draws_a != draws_b


def test_spawn_matches_explicit_stream():
    base = RngStream(42)
    child = base.spawn(7)
    explicit = RngStream(42, stream=7)
    assert [child.uniform() for _ in range(10)] == [explicit.uniform() for _ in range(10)]


def test_seed_validation():
    RngStream(0)
    RngStream(2**64 - 1)
    with pytest.raises(InvalidParameter):
        RngStream(-1)
    with pytest.raises(InvalidParameter):
        RngStream(2**64)


@pytest.mark.parametrize("bad", [1.5, True, False, "7", b"7", None, math.nan, math.inf, -1, 2**64])
def test_seed_and_stream_id_must_be_unsigned_64_bit_integers(bad):
    # A float, bool or string used to be truncated or parsed by int():
    # RngStream(1.5) and RngStream(True) drew seed 1's stream.
    with pytest.raises(InvalidParameter):
        RngStream(bad)
    with pytest.raises(InvalidParameter):
        RngStream(1, bad)
    with pytest.raises(InvalidParameter):
        RngStream(1).spawn(bad)


def test_integer_valued_seeds_are_accepted():
    ref = RngStream(7, 3).uniform()
    for seed, stream in ((7.0, 3), (np.int64(7), np.uint64(3)), (7, 3.0)):
        rng = RngStream(seed, stream)
        assert (rng.seed, rng.stream) == (7, 3) and type(rng.seed) is int
        assert rng.uniform() == ref


def test_uniform_range_and_moments():
    rng = RngStream(2024)
    draws = np.array([rng.uniform() for _ in range(200_000)])
    assert np.all(draws >= 0.0) and np.all(draws < 1.0)
    assert abs(draws.mean() - 0.5) < 0.004
    assert abs(draws.var() - 1.0 / 12.0) < 0.002


def test_normal_moments_one_million():
    rng = RngStream(31337)
    draws = np.array([rng.standard_normal() for _ in range(1_000_000)])
    assert abs(draws.mean()) < 0.005
    assert abs(draws.var() - 1.0) < 0.01


def test_chi2_mean():
    # E[chi_2] = sqrt(pi/2).
    rng = RngStream(404)
    draws = np.array([rng.chi(2.0) for _ in range(1_000_000)])
    assert abs(draws.mean() - math.sqrt(math.pi / 2.0)) < 0.01


def test_chi1_matches_absolute_normal():
    rng = RngStream(808)
    draws = np.array([rng.chi(1.0) for _ in range(1_000_000)])
    # CDF of |N(0,1)| is erf(x / sqrt 2).
    res = ks_one_sample(draws, lambda x: 2.0 * normal_cdf(x) - 1.0)
    assert res.statistic < 0.005


def test_gamma_exponential_mean():
    rng = RngStream(909)
    draws = np.array([rng.gamma(1.0, 2.0) for _ in range(1_000_000)])
    assert abs(draws.mean() - 2.0) < 0.02


def test_gamma_half_shape_matches_squared_normal():
    # gamma(1/2, 2) is the chi-square(1) law of N(0,1) squared.
    rng = RngStream(1010)
    draws = np.array([rng.gamma(0.5, 2.0) for _ in range(1_000_000)])
    res = ks_one_sample(draws, lambda x: chi_square_cdf(x, 1.0))
    assert res.statistic < 0.005


def test_parameter_validation():
    rng = RngStream(1)
    with pytest.raises(InvalidParameter):
        rng.gamma(-1.0)
    with pytest.raises(InvalidParameter):
        rng.gamma(0.0)
    with pytest.raises(InvalidParameter):
        rng.gamma(1.0, scale=0.0)
    with pytest.raises(InvalidDegreesOfFreedom):
        rng.chi(0.0)
    with pytest.raises(InvalidDegreesOfFreedom):
        rng.chi(-2.5)


def test_chi_squared_is_chi_square_all_dfs():
    # Includes a shape-boost case (k=0.5 and k=1 run the gamma shape<1 path).
    alpha = 0.001
    for stream, k in enumerate((0.5, 1.0, 3.0, 7.5, 20.0)):
        rng = RngStream(606, stream=stream)
        draws = np.array([rng.chi(k) ** 2 for _ in range(50_000)])
        res = ks_one_sample(draws, lambda x, k=k: chi_square_cdf(x, k))
        assert res.pvalue >= alpha, f"k={k}: p={res.pvalue}"


def test_chi_draws_strictly_positive():
    rng = RngStream(707)
    for _ in range(20_000):
        assert rng.chi(0.5) > 0.0


def test_chi_against_scipy_oracle():
    # Independent check of one df against scipy's chi distribution.
    rng = RngStream(505)
    draws = np.array([rng.chi(7.5) for _ in range(50_000)])
    stat, pvalue = scipy.stats.kstest(draws, scipy.stats.chi(7.5).cdf)
    assert pvalue > 0.001


def test_gamma_against_scipy_oracle():
    rng = RngStream(606)
    draws = np.array([rng.gamma(2.7, 1.8) for _ in range(50_000)])
    stat, pvalue = scipy.stats.kstest(draws, scipy.stats.gamma(a=2.7, scale=1.8).cdf)
    assert pvalue > 0.001


def test_position_counts_uniforms():
    rng = RngStream(99)
    assert rng.position == 0
    rng.uniform()
    assert rng.position == 1
    rng.standard_normal()
    assert rng.position == 3
    for _ in range(5000):
        rng.uniform()
    assert rng.position == 5003


def test_skip_matches_scalar_calls():
    # Skips of every size, within a block, to its end and across several
    # 4096-uniform block boundaries, mixed with scalar draws.
    a = RngStream(2718)
    b = RngStream(2718)
    for k in (0, 1, 5, 4090, 3, 4096, 1, 9000, 0, 7, 3 * 4096, 4095, 4097):
        a.skip(k)
        for _ in range(k):
            b.uniform()
        assert a.position == b.position
        assert a.uniform() == b.uniform()


@pytest.mark.parametrize("bad", [-1, -4097, 1.5, True, "3", None])
def test_skip_rejects_a_count_that_is_not_a_non_negative_integer(bad):
    rng = RngStream(3)
    rng.uniform()
    with pytest.raises(InvalidParameter):
        rng.skip(bad)
    assert rng.position == 1


def _numpy_uniforms(seed, stream, count):
    raw = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)).random_raw(count)
    return ((raw >> 11) * 2.0 ** -53).tolist()


def test_skip_builds_no_block():
    # A skip past the current block only moves the counter; the block it
    # lands in is built by the next uniform.
    rng = RngStream(17)
    calls = []
    refill = rng._refill
    rng._refill = lambda: calls.append(rng.position) or refill()
    rng.skip(3 * 4096 + 5)
    rng.skip(100)
    assert calls == [] and rng.position == 3 * 4096 + 105
    assert rng.uniform() == _numpy_uniforms(17, 0, 3 * 4096 + 106)[-1]
    assert calls == [3 * 4096 + 105] and rng.position == 3 * 4096 + 106


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(st.tuples(st.booleans(), st.integers(0, 3 * 4096)), max_size=8))
def test_any_mix_of_uniform_and_skip_follows_the_stream(steps):
    # A skip jumps k uniforms, a draw reads the next few: both against the
    # raw numpy stream, with the position checked after each step.
    want = _numpy_uniforms(8, 2, sum(k + 3 for _, k in steps) + 1)
    rng = RngStream(8, 2)
    at = 0
    for draw, k in steps:
        if draw:
            assert [rng.uniform() for _ in range(k % 7)] == want[at:at + k % 7]
            at += k % 7
        else:
            rng.skip(k)
            at += k
        assert rng.position == at
    assert rng.uniform() == want[at]


_U53 = 2.0 ** -53
# u1 = 0 makes log(1) = 0 and a -0.0 normal, u2 = 0 makes cos(0) = 1; 2^-53
# and 1 - 2^-53 are the smallest and largest nonzero uniforms of the stream.
EDGES = (0.0, _U53, 1.0 - _U53)
_UNIFORM = st.one_of(st.sampled_from(EDGES), st.integers(0, 2 ** 53 - 1).map(lambda i: i * _U53))


class _Feed:
    """Stands in for a stream and hands out the given uniforms in order."""

    def __init__(self, u):
        self.uniform = iter(u).__next__


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), stream=st.integers(0, 2 ** 64 - 1),
       u=st.lists(_UNIFORM, min_size=4, max_size=4))
@example(seed=0, stream=0, u=[0.0, 0.5, 0.0, 1.0 - _U53])
def test_philox_positions_reach_chosen_uniforms(seed, stream, u):
    # The position inverted from four chosen uniforms is where numpy's
    # Philox, through RngStream.skip, gives them next.
    p = position_of(seed, stream, u)
    assert p % 4 == 0 and 0 <= p < 2 ** 258
    rng = RngStream(seed, stream)
    rng.skip(p)
    assert [rng.uniform() for _ in range(4)] == u
    assert philox_block(seed, stream, p // 4 + 1) == [raw_word(x) for x in u]


def _walk_normal(walk, python_fills, u1, u2):
    """The walk's normal from the uniforms u1 then u2, once the whole fill
    it sits in has matched the scalar fill.  A 2 x 2 Wishart fill at df 100
    draws a chi, then that normal, then a chi.  Its start is put three uniforms before a block
    crafted to begin with u1, u2: the first chi takes exactly those three
    where it accepts at its first attempt, as it mostly does at shape 50,
    and the stream id is the first for which it does.  The Python loop
    draws the reference fill."""
    for stream in range(100):
        p = position_of(1, stream, [u1, u2, 0.5, 0.5])
        ref = RngStream(1, stream)
        ref.skip(p - 3)
        ref.chi(100.0)
        if ref.position == p:
            break
    else:
        raise AssertionError("no stream id puts the normal on the crafted block")
    rng, ref = RngStream(1, stream), RngStream(1, stream)
    rng.skip(p - 3)
    ref.skip(p - 3)
    z = walk(rng, 2, 1, 101.0, -1.0)[0]
    scalar = python_fills(ref, 2, 1, 101.0, -1.0)[0]
    assert z.tobytes() == scalar.tobytes() and rng.position == ref.position
    return z[0, 1]


def _edge_examples(test):
    for a in EDGES:
        for b in EDGES:
            test = example(u1=a, u2=b)(test)
    return test


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(u1=_UNIFORM, u2=_UNIFORM)
@_edge_examples
def test_box_muller_matches_standard_normal_bits(walk, python_fills, u1, u2):
    scalar = RngStream.standard_normal(_Feed([u1, u2]))
    assert _walk_normal(walk, python_fills, u1, u2).hex() == scalar.hex()


def test_box_muller_matches_a_stream_of_normals(walk):
    # A 200 x 200 fill through the walk: 19,900 normals between 200 chis.
    a = RngStream(31337)
    b = RngStream(31337)
    z = walk(a, 200, 1, 201.0, -1.0)[0]
    for j in range(200):
        assert z[:j, j].tobytes() == np.array([b.standard_normal() for _ in range(j)]).tobytes()
        assert z[j, j] == b.chi(201.0 - (j + 1))
    assert a.position == b.position


# Start positions: every lane 0-3 of the Philox blocks around the stream's
# start, one and two 256-uniform chunks in, and around the 4096-uniform
# blocks of RngStream's scalar buffer.
WALK_STARTS = sorted({e + d for e in (0, 256, 512, 4096, 2 * 4096) for d in range(-4, 5)
                      if e + d >= 0})


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("stream", [0, 1, 2 ** 64 - 1])
def test_walk_philox_matches_numpy_philox(walk, python_fills, seed, stream):
    # The walk computes its own Philox uniforms from (seed, stream, position),
    # 256 at a time from the block holding the start.  Six 9 x 9 fills (about
    # 600 uniforms, so two chunk edges fall inside them) from each start must
    # equal the Python loop's fills over numpy's raw stream, converted as
    # (raw >> 11) * 2**-53, and use exactly the uniforms those do.  The
    # stream reaches its start by skip or by scalar uniform() calls.
    m, k, a, s = 9, 6, 10.5, -1.0
    want = _numpy_uniforms(seed, stream, WALK_STARTS[-1] + 2000)
    for start in WALK_STARTS:
        for by_skip in (True, False):
            rng = RngStream(seed, stream)
            if by_skip:
                rng.skip(start)
            else:
                for _ in range(start):
                    rng.uniform()
            z = walk(rng, m, k, a, s)
            rest = iter(want[start:])
            feed = RngStream.__new__(RngStream)
            feed.uniform = rest.__next__
            ref = python_fills(feed, m, k, a, s)
            assert z.tobytes() == ref.tobytes(), start
            assert rng.position == len(want) - len(list(rest)), start
            assert rng.uniform() == want[rng.position - 1]


needs_cc = pytest.mark.skipif(shutil.which(rng_module._CC) is None,
                              reason="no C compiler: every fill runs the scalar loop")


@needs_cc
def test_compiled_loop_loads_where_a_compiler_is_present():
    lib = rng_module.compiled_loop()
    assert lib.walk.__name__ == "triwish_bartlett_walk"
    assert lib.format_rows.__name__ == "triwish_format_rows"
    assert lib.parse_rows.__name__ == "triwish_parse_rows"


@needs_cc
def test_compiled_loop_builds_into_an_empty_cache(tmp_path, monkeypatch, python_fills):
    monkeypatch.setattr(rng_module, "_CACHE", tmp_path / "cache")
    monkeypatch.setattr(rng_module, "_loop", rng_module._NOT_LOADED)
    assert rng_module.compiled_loop() is not None
    # Only the finished library is left, named by the hash of source and flags.
    [lib] = (tmp_path / "cache").iterdir()
    assert re.fullmatch(r"_boxmuller-[0-9a-f]{16}\.so", lib.name)
    z = rng_module.bartlett_fills(RngStream(5), 30, 1, 31.5, -1.0)
    assert z.tobytes() == python_fills(RngStream(5), 30, 1, 31.5, -1.0).tobytes()


def test_golden_first_draws():
    # Frozen regression values for the documented generator definition:
    # counter-based raws mapped to [0,1) by the 53-bit shift, cosine-branch
    # Box-Muller normals, rejection-sampled gammas.  If these move, the
    # reproducibility contract is broken.
    rng = RngStream(12345)
    golden_uniform = [rng.uniform() for _ in range(3)]
    rng2 = RngStream(12345)
    assert golden_uniform == [rng2.uniform() for _ in range(3)]
    # The uniform stream is the raw Philox output scaled into [0,1); pin it
    # against numpy's own raw output so the definition stays frozen.
    from numpy.random import Philox

    raw = Philox(key=np.array([12345, 0], dtype=np.uint64)).random_raw(3)
    expect = [(int(r) >> 11) * (2.0**-53) for r in raw]
    assert golden_uniform == expect
