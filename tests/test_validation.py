"""KS machinery, chi-square CDF, moment checks, FD Jacobians, outer oracle."""

import math

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


def test_ks_one_sample_calls_the_cdf_once_on_the_sorted_draws():
    draws = np.random.default_rng(3).standard_normal(200)
    calls = []

    def cdf(x):
        calls.append(x.copy())
        return normal_cdf(x)

    assert ks_one_sample(draws, cdf) == ks_one_sample(draws, normal_cdf)
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.sort(draws))


def test_ks_one_sample_rejects_a_scalar_only_cdf():
    # No per-element fallback: a CDF written for one float at a time fails
    # on the array of draws, and one that returns a single value for it is
    # refused.
    draws = np.random.default_rng(4).standard_normal(200)
    with pytest.raises(TypeError):
        ks_one_sample(draws, lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0))))
    with pytest.raises(InvalidParameter, match="vectorized"):
        ks_one_sample(draws, lambda x: 0.5 * (1.0 + math.erf(float(np.mean(x)) / math.sqrt(2.0))))


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
