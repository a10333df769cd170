"""KS machinery, chi-square CDF, moment checks, FD Jacobians, outer oracle."""

import math
import re

import numpy as np
import pytest
import scipy.special
import scipy.stats

from triwish.densities import logjac_tri_inverse
from triwish.errors import (
    InvalidParameter,
    MeanUndefined,
    NumericalFailure,
    TooFewSamples,
)
from triwish.linalg import tri_inverse
from triwish.rng import RngStream
from triwish import validation
from triwish.samplers import (
    DIRECT,
    INDIRECT,
    WISHART,
    SamplerSpec,
    ScaleParam,
    cholesky_upper_param,
    rwishart,
    sample_invwishart,
)
from triwish.validation import (
    chi_square_cdf,
    fd_logdet_jacobian,
    ks_one_sample,
    ks_two_sample,
    mc_mean_invwishart,
    mc_mean_wishart,
    normal_cdf,
    rwishart_outer_oracle,
    triangular_coords,
)


def test_ks_one_sample_perfect_fit():
    n = 1000
    # Quantiles of the fitted CDF at (i - 1/2) / n leave deviation <= 1/n.
    draws = (np.arange(1, n + 1) - 0.5) / n
    res = ks_one_sample(draws, lambda x: x)
    assert res.statistic <= 1.0 / n + 1e-12


def test_ks_one_sample_uniform_self_test():
    rng = np.random.default_rng(1234)
    draws = rng.random(100_000)
    res = ks_one_sample(draws, lambda x: np.clip(x, 0.0, 1.0))
    assert res.pvalue > 0.001


def test_ks_one_sample_degenerate():
    draws = np.full(50, 0.3)
    res = ks_one_sample(draws, lambda x: x)
    assert abs(res.statistic - 0.7) < 1e-12


def test_ks_one_sample_too_few():
    with pytest.raises(TooFewSamples):
        ks_one_sample(np.arange(5) / 5.0, lambda x: x)


def ks_one_sample_reference(draws, cdf):
    """The CDF at every draw: the implementation ks_one_sample replaced."""
    xs = np.sort(np.asarray(draws, dtype=float))
    n = xs.size
    if n < validation.MIN_KS_SAMPLES:
        raise TooFewSamples(f"need at least {validation.MIN_KS_SAMPLES} draws, got {n}")
    f = np.asarray(cdf(xs), dtype=float)
    if f.shape != xs.shape:
        raise InvalidParameter(f"cdf returned shape {f.shape} for {n} draws; it must be vectorized")
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    d = max(float(d_plus), float(d_minus), 0.0)
    return validation.KsResult(statistic=d, pvalue=validation._ks_pvalue(d, math.sqrt(n)), n=n)


def assert_same_ks(draws, cdf):
    got, want = ks_one_sample(draws, cdf), ks_one_sample_reference(draws, cdf)
    for a, b in ((got.statistic, want.statistic), (got.pvalue, want.pvalue)):
        assert a == b or math.isnan(a) and math.isnan(b)
    assert got.n == want.n
    return got


# The scalar rows' CDFs (suite.check_scalar_wishart and
# check_scalar_invwishart) and draws from their laws.
SCALAR_CDFS = {
    "scalar.wishart": (lambda x: chi_square_cdf(x / 2.0, 4.5),
                       lambda rng, n: 2.0 * rng.chisquare(4.5, n)),
    "scalar.invwishart": (lambda x: 1.0 - chi_square_cdf(3.0 / x, 6),
                          lambda rng, n: 6.0 / rng.chisquare(6, n)),
}
KS_SIZES = (10, 31, 32, 33, 63, 64, 65, 1000, 50_000)


@pytest.mark.parametrize("n", KS_SIZES)
def test_ks_one_sample_matches_the_cdf_at_every_draw(n):
    rng = np.random.default_rng(n)
    for df in range(6, 11):
        assert_same_ks(rng.chisquare(df, n), lambda x, d=df: chi_square_cdf(x, d))
    # A sample of the law, and one of a wider law, whose supremum lies elsewhere.
    assert_same_ks(rng.standard_normal(n), normal_cdf)
    assert_same_ks(1.2 * rng.standard_normal(n), normal_cdf)
    for cdf, draw in SCALAR_CDFS.values():
        assert_same_ks(draw(rng, n), cdf)


def test_ks_one_sample_matches_the_cdf_at_every_draw_at_500_000():
    assert_same_ks(np.random.default_rng(500).standard_normal(500_000), normal_cdf)


@pytest.mark.parametrize("n", (10, 33, 1000))
def test_ks_one_sample_matches_on_ties(n):
    rng = np.random.default_rng(n)
    assert_same_ks(np.full(n, 0.3), lambda x: x)
    assert_same_ks(np.full(n, 0.3), normal_cdf)
    assert_same_ks(np.round(rng.standard_normal(n), 2), normal_cdf)
    assert_same_ks(np.round(rng.standard_normal(50 * n), 2), normal_cdf)


def test_ks_one_sample_matches_on_flat_stretches():
    rng = np.random.default_rng(8)
    for n in KS_SIZES:
        assert_same_ks(rng.uniform(-0.5, 1.5, n), lambda x: np.clip(x, 0.0, 1.0))
        assert_same_ks(rng.uniform(0.0, 1.0, n), lambda x: np.clip(x, 0.0, 1.0))


@pytest.mark.parametrize("n", (10, 33, 1000, 50_000))
def test_ks_one_sample_matches_on_infinite_and_nan_draws(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    x[::7] = np.inf
    assert_same_ks(x, normal_cdf)
    x[::5] = -np.inf
    assert_same_ks(x, normal_cdf)
    x[3] = np.nan
    assert math.isnan(assert_same_ks(x, normal_cdf).statistic)
    c = rng.chisquare(7, n)
    c[::3] = np.inf
    assert_same_ks(c, lambda x: chi_square_cdf(x, 7))
    c[-1] = np.nan
    assert math.isnan(assert_same_ks(c, lambda x: chi_square_cdf(x, 7)).pvalue)
    for cdf, draw in SCALAR_CDFS.values():
        s = draw(rng, n)
        s[1] = np.inf
        assert_same_ks(s, cdf)
        s[2] = np.nan
        assert_same_ks(s, cdf)


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.value


def test_ks_one_sample_raises_what_the_cdf_at_every_draw_raises():
    rng = np.random.default_rng(9)
    cases = [
        (TooFewSamples, rng.standard_normal(9), normal_cdf),
        (InvalidParameter, rng.standard_normal(200), lambda x: float(np.mean(normal_cdf(x)))),
        (InvalidParameter, rng.standard_normal(200), lambda x: normal_cdf(x)[:-1]),
    ]
    for n in (10, 50_000):
        cases.append((InvalidParameter, rng.standard_normal(n), lambda x: chi_square_cdf(x, 6)))
        c = rng.chisquare(6, n)
        c[n // 2] = -1.0
        cases.append((InvalidParameter, c.copy(), lambda x: chi_square_cdf(x, 6)))
        c[-1] = np.nan
        cases.append((InvalidParameter, c, lambda x: chi_square_cdf(x, 6)))
        cases.append((InvalidParameter, -rng.chisquare(6, n), SCALAR_CDFS["scalar.invwishart"][0]))
    for kind, draws, cdf in cases:
        got, want = raised(ks_one_sample, draws, cdf), raised(ks_one_sample_reference, draws, cdf)
        assert type(got) is type(want) is kind
        if kind is TooFewSamples:
            assert str(got) == str(want)
        elif "vectorized" in str(want):
            assert "vectorized" in str(got)
        else:
            assert "must be nonnegative" in str(got)
    # chi_square_cdf names its least argument: the least draw, or NaN where
    # a draw is NaN, and the first call's subset holds both.
    for _, draws, cdf in cases[-3:-1]:
        got, want = raised(ks_one_sample, draws, cdf), raised(ks_one_sample_reference, draws, cdf)
        assert str(got) == str(want)


def test_ks_one_sample_calls_the_cdf_at_most_twice_on_sorted_draws():
    draws = np.random.default_rng(3).standard_normal(50_000)
    calls = []

    def cdf(x):
        calls.append(x.copy())
        return normal_cdf(x)

    assert ks_one_sample(draws, cdf) == ks_one_sample_reference(draws, normal_cdf)
    assert 1 <= len(calls) <= 2
    for x in calls:
        assert x.dtype == np.float64 and x.ndim == 1
        assert np.all(np.diff(x) >= 0.0)
        assert np.all(np.isin(x, draws))
    assert sum(x.size for x in calls) <= draws.size / 4


@pytest.mark.parametrize("shape", [(3, 50), (1, 50), (50, 1), (2, 5, 10)])
def test_ks_samples_must_be_1d(shape):
    draws = np.random.default_rng(5).standard_normal(shape)
    calls = []

    def cdf(x):
        calls.append(x)
        return normal_cdf(x)

    with pytest.raises(InvalidParameter, match=re.escape(str(shape))):
        ks_one_sample(draws, cdf)
    assert not calls
    flat = draws.ravel()
    with pytest.raises(InvalidParameter, match=re.escape(str(shape))):
        ks_two_sample(draws, flat)
    with pytest.raises(InvalidParameter, match=re.escape(str(shape))):
        ks_two_sample(flat, draws)


def test_ks_one_sample_rejects_a_scalar_only_cdf():
    # No per-element fallback: a CDF written for one float at a time fails
    # on the array of draws, and one that returns a single value for it is
    # refused.
    draws = np.random.default_rng(4).standard_normal(200)
    with pytest.raises(TypeError):
        ks_one_sample(draws, lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0))))
    with pytest.raises(InvalidParameter, match="vectorized"):
        ks_one_sample(draws, lambda x: 0.5 * (1.0 + math.erf(float(np.mean(x)) / math.sqrt(2.0))))


@pytest.mark.parametrize("n", (10, 65, 500_000))
def test_ks_sorted_matches_ks_one_sample_and_ks_one_sample_leaves_its_input(n):
    # suite.check_fill_marginals sorts its off-diagonal draws in place and
    # calls _ks_sorted on them; ks_one_sample sorts a copy.
    draws = np.random.default_rng(n).standard_normal(n)
    kept = draws.copy()
    got = ks_one_sample(draws, normal_cdf)
    assert draws.tobytes() == kept.tobytes()
    xs = np.sort(draws)
    want = validation._ks_sorted(xs, normal_cdf)
    assert (got.statistic, got.pvalue, got.n) == (want.statistic, want.pvalue, want.n)
    assert xs.tobytes() == np.sort(kept).tobytes()


def test_ks_one_sample_matches_scipy():
    rng = np.random.default_rng(99)
    draws = rng.standard_normal(5000)
    res = ks_one_sample(draws, normal_cdf)
    stat, _ = scipy.stats.kstest(draws, scipy.stats.norm.cdf)
    assert abs(res.statistic - stat) < 1e-12


def test_ks_two_sample_edges():
    a = np.arange(10.0)
    res = ks_two_sample(a, a)
    assert res.statistic == 0.0
    assert res.pvalue == 1.0
    res = ks_two_sample(np.arange(10.0), np.arange(10.0) + 100.0)
    assert res.statistic == 1.0
    with pytest.raises(TooFewSamples):
        ks_two_sample(np.arange(9.0), np.arange(20.0))


def test_ks_two_sample_same_law():
    rng = np.random.default_rng(4321)
    res = ks_two_sample(rng.standard_normal(100_000), rng.standard_normal(100_000))
    assert res.pvalue > 0.001


def test_ks_two_sample_matches_scipy_statistic():
    rng = np.random.default_rng(77)
    a = rng.standard_normal(3000)
    b = rng.standard_normal(4000) * 1.1
    res = ks_two_sample(a, b)
    stat, _ = scipy.stats.ks_2samp(a, b)
    assert abs(res.statistic - stat) < 1e-12


def test_kolmogorov_tail_matches_scipy():
    from triwish.validation import _ks_pvalue

    en = 40.0
    corrected = en + 0.12 + 0.11 / en
    for t in (0.01, 0.1, 0.3, 0.5, 0.8, 1.0, 1.5, 2.0):
        assert abs(_ks_pvalue(t / corrected, en) - scipy.special.kolmogorov(t)) < 1e-12
    # The survival function is 1 to double precision at small t.
    assert _ks_pvalue(0.01 / corrected, en) == 1.0


def test_ks_pvalue_of_a_perfect_fit_is_one():
    n = 1000
    res = ks_one_sample((np.arange(n) + 0.5) / n, lambda x: x)
    assert res.statistic == pytest.approx(0.5 / n)
    assert res.pvalue == 1.0


def test_ks_alpha_calibration():
    # Same-law pairs should pass at alpha=0.001 in at least 99 of 100 seeds.
    passes = 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        one = ks_one_sample(rng.standard_normal(2000), normal_cdf)
        two = ks_two_sample(rng.standard_normal(2000), rng.standard_normal(2000))
        if one.pvalue >= 0.001 and two.pvalue >= 0.001:
            passes += 1
    assert passes >= 99


def test_chi_square_cdf_values():
    assert chi_square_cdf(0.0, 3.0) == 0.0
    assert abs(chi_square_cdf(2.0 * math.log(2.0), 2.0) - 0.5) < 1e-12
    assert abs(chi_square_cdf(1.0, 1.0) - 0.6826894921) < 1e-9


def test_chi_square_cdf_errors():
    with pytest.raises(InvalidParameter):
        chi_square_cdf(1.0, 0.0)
    with pytest.raises(InvalidParameter):
        chi_square_cdf(1.0, -2.0)
    with pytest.raises(InvalidParameter):
        chi_square_cdf(-0.5, 2.0)


def test_chi_square_cdf_against_scipy_grid():
    for k in (0.5, 1.0, 3.0, 7.5, 20.0, 100.0):
        xs = np.linspace(0.0, 5.0 * k + 10.0, 200)
        ours = np.array([chi_square_cdf(float(x), k) for x in xs])
        ref = scipy.special.gammainc(k / 2.0, xs / 2.0)
        assert np.max(np.abs(ours - ref)) < 1e-10, k


def test_normal_cdf_against_erf():
    xs = np.linspace(-6.0, 6.0, 41)
    ref = 0.5 * (1.0 + scipy.special.erf(xs / math.sqrt(2.0)))
    assert np.max(np.abs(normal_cdf(xs) - ref)) < 1e-14


def test_mc_mean_wishart_m1():
    spec = SamplerSpec(1, 4, ScaleParam(np.array([[1.0]])))
    report = mc_mean_wishart(RngStream(55), spec, 200_000)
    assert report.relative_error < 0.02
    assert report.confident
    np.testing.assert_allclose(report.target, [[4.0]])


def test_mc_mean_wishart_identity3():
    spec = SamplerSpec(3, 6, ScaleParam(np.eye(3)))
    report = mc_mean_wishart(RngStream(56), spec, 200_000)
    assert report.relative_error < 0.02
    np.testing.assert_allclose(report.target, 6.0 * np.eye(3))


def test_mc_mean_small_sample_flagged():
    spec = SamplerSpec(1, 4, ScaleParam(np.array([[1.0]])))
    report = mc_mean_wishart(RngStream(57), spec, 10)
    assert report.nsamples == 10
    assert not report.confident
    assert math.isfinite(report.relative_error)


def test_mc_mean_invwishart_m1():
    spec = SamplerSpec(1, 6, ScaleParam(np.array([[3.0]]), iscov=False))
    report = mc_mean_invwishart(RngStream(58), spec, DIRECT, 200_000)
    np.testing.assert_allclose(report.target, [[0.75]])
    assert report.relative_error < 0.02


@pytest.mark.parametrize("algorithm", [None, INDIRECT, DIRECT])
def test_mc_means_sum_the_draws_in_draw_order(monkeypatch, algorithm):
    # Blocks of Plan.draw_many (3 draws each here, so the last is partial)
    # give the bits of a loop of one-shot draws summed in draw order.
    monkeypatch.setattr(validation, "BATCH_ENTRIES", 3 * 4)
    spec = SamplerSpec(2, 6.5, ScaleParam(np.array([[2.0, 0.6], [0.6, 1.0]])), retcholu=True)
    full = SamplerSpec(2, 6.5, spec.scale)
    rng, ref = RngStream(61), RngStream(61)
    acc = np.zeros((2, 2))
    for _ in range(10):
        acc += rwishart(ref, full) if algorithm is None else sample_invwishart(ref, full, algorithm)
    if algorithm is None:
        report = mc_mean_wishart(rng, spec, 10)
    else:
        report = mc_mean_invwishart(rng, spec, algorithm, 10)
    assert report.sample_mean.tobytes() == (acc / 10).tobytes()
    assert rng.position == ref.position


def test_mc_mean_invwishart_rejects_the_wishart_route():
    spec = SamplerSpec(2, 6, ScaleParam(np.eye(2)))
    with pytest.raises(InvalidParameter):
        mc_mean_invwishart(RngStream(1), spec, WISHART, 10)


def test_mc_mean_invwishart_boundary():
    spec = SamplerSpec(2, 3, ScaleParam(np.eye(2), iscov=False))
    with pytest.raises(MeanUndefined):
        mc_mean_invwishart(RngStream(59), spec, DIRECT, 2000)


def test_mc_mean_invwishart_algorithms_agree():
    spec = SamplerSpec(2, 7, ScaleParam(np.eye(2), iscov=False))
    rep_i = mc_mean_invwishart(RngStream(60, 0), spec, INDIRECT, 50_000)
    rep_d = mc_mean_invwishart(RngStream(60, 1), spec, DIRECT, 50_000)
    diff = np.linalg.norm(rep_i.sample_mean - rep_d.sample_mean)
    assert diff < 0.05 * np.linalg.norm(rep_i.target)


def test_triangular_coords_order():
    # Wedge order: (1,1), (1,2), (2,2), (1,3), ...
    assert triangular_coords(1) == [(0, 0)]
    assert triangular_coords(2) == [(0, 0), (0, 1), (1, 1)]
    assert triangular_coords(3) == [
        (0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2),
    ]


def test_fd_jacobian_identity_map():
    t = np.array([[1.3, 0.4], [0.0, 0.9]])
    assert abs(fd_logdet_jacobian(lambda x: x, t)) < 1e-8


def test_fd_jacobian_scaling_map():
    # X -> 2X on m=2 triangulars has d=3 coordinates, log|det| = 3 log 2.
    t = np.array([[1.0, 0.2], [0.0, 0.7]])
    got = fd_logdet_jacobian(lambda x: 2.0 * x, t)
    assert abs(got - 3.0 * math.log(2.0)) < 1e-9


def test_fd_jacobian_matches_triinv_formula():
    rng = np.random.default_rng(31)
    for _ in range(5):
        t = np.triu(rng.standard_normal((3, 3))) + np.diag([2.0, 2.0, 2.0])
        fd = fd_logdet_jacobian(tri_inverse, t)
        analytic = logjac_tri_inverse(t)
        assert abs(fd - analytic) / max(1.0, abs(analytic)) < 1e-5


def test_fd_jacobian_singular_map():
    t = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NumericalFailure):
        fd_logdet_jacobian(lambda x: np.zeros_like(x), t)


def test_outer_oracle_rejects_non_integer_n():
    with pytest.raises(InvalidParameter):
        rwishart_outer_oracle(RngStream(1), 2, 2.5, np.eye(2))
    with pytest.raises(InvalidParameter):
        rwishart_outer_oracle(RngStream(1), 2, 0, np.eye(2))


def test_outer_oracle_n1_m1_chi_square():
    rng = RngStream(71)
    draws = np.array([rwishart_outer_oracle(rng, 1, 1, np.eye(1))[0, 0] for _ in range(50_000)])
    res = ks_one_sample(draws, lambda x: chi_square_cdf(x, 1.0))
    assert res.pvalue > 0.001


def test_outer_oracle_mean():
    sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
    u_sigma = cholesky_upper_param(ScaleParam(sigma), invert=False)
    rng = RngStream(72)
    n = 5
    acc = np.zeros((2, 2))
    nsamples = 50_000
    for _ in range(nsamples):
        acc += rwishart_outer_oracle(rng, 2, n, u_sigma)
    err = np.linalg.norm(acc / nsamples - n * sigma) / np.linalg.norm(n * sigma)
    assert err < 0.05
