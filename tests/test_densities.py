"""Log-density kernels: frozen scalar values, oracles, and identities."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from triwish.densities import (
    _right_div_upper,
    logjac_chol,
    logjac_tri_inverse,
    logkernel_cholinvwishart,
    logkernel_cholwishart,
    logkernel_invwishart,
    logkernel_wishart,
)
from triwish.errors import DimensionMismatch, InvalidParameter, NotPositiveDefinite, SingularMatrix
from triwish.linalg import gram_ut, tri_inverse, tri_mul
from triwish.rng import RngStream
from triwish.samplers import (
    DIRECT,
    WISHART,
    SamplerSpec,
    ScaleParam,
    cholesky_upper_param,
    draw_bartlett_invwishart,
    prepare,
)

SIGMA_3 = np.array([[2.0, 0.5, 0.2], [0.5, 1.5, 0.3], [0.2, 0.3, 1.0]])


def _factor(matrix, iscov=True):
    return cholesky_upper_param(ScaleParam(matrix, iscov=iscov), invert=False)


def _factor_plan(factor, m, n, algorithm):
    # Factor draws multiplying by ``factor`` itself: Cholesky-Wishart draws
    # (WISHART) or Cholesky-inverse-Wishart draws (DIRECT).
    scale = ScaleParam(factor, iscov=algorithm == WISHART, ischolu=True)
    return prepare(SamplerSpec(m, n, scale, retcholu=True), algorithm)


def test_wishart_kernel_scalar_value():
    # m=1, A=[[2]], n=3, Sigma=[[1]]: -tr/2 = -1, exponent (n-m-1)/2 = 0.5.
    got = logkernel_wishart(np.array([[2.0]]), 3, np.eye(1))
    assert abs(got - (-1.0 + 0.5 * math.log(2.0))) < 1e-14


def test_wishart_kernel_identity_any_n():
    for m in (1, 2, 3):
        for n in (m + 0.5, m + 3):
            got = logkernel_wishart(np.eye(m), n, np.eye(m))
            assert abs(got - (-m / 2.0)) < 1e-14


def test_invwishart_kernel_scalar_value():
    # m=1, B=[[2]], n=4, Omega=[[1]]: -1/4 - 3 log 2.
    got = logkernel_invwishart(np.array([[2.0]]), 4, np.eye(1))
    assert abs(got - (-0.25 - 3.0 * math.log(2.0))) < 1e-14


def test_invwishart_kernel_identity():
    for m in (1, 2, 3):
        got = logkernel_invwishart(np.eye(m), 5, np.eye(m))
        assert abs(got - (-m / 2.0)) < 1e-14


def test_cholwishart_kernel_identity():
    for m in (1, 2, 3):
        got = logkernel_cholwishart(np.eye(m), 6, np.eye(m))
        assert abs(got - (-m / 2.0)) < 1e-14
    # At n = m = 2 the log-diagonal terms are 1 log 1 + 0 log 3, so the
    # kernel is the trace term alone, -||U_A||^2 / 2.
    assert logkernel_cholwishart(np.array([[1.0, 2.0], [0.0, 3.0]]), 2.0, np.eye(2)) == -7.0


def test_cholinvwishart_kernel_scalar_value():
    # m=1, U_B=[[2]], n=4, U_Omega=[[1]]: -(1/2)(1/4) - 5 log 2.
    got = logkernel_cholinvwishart(np.array([[2.0]]), 4, np.eye(1))
    assert abs(got - (-0.125 - 5.0 * math.log(2.0))) < 1e-14


def test_cholinvwishart_kernel_identity():
    for m in (1, 2, 3):
        got = logkernel_cholinvwishart(np.eye(m), 5, np.eye(m))
        assert abs(got - (-m / 2.0)) < 1e-14


def test_logjac_chol_values():
    assert abs(logjac_chol(np.eye(3)) - 3.0 * math.log(2.0)) < 1e-15
    for t in (0.3, 1.0, 2.5):
        assert abs(logjac_chol(np.array([[t]])) - (math.log(2.0) + math.log(t))) < 1e-14


def test_logjac_tri_inverse_values():
    assert logjac_tri_inverse(np.eye(4)) == 0.0
    np.testing.assert_allclose(
        logjac_tri_inverse(np.diag([2.0, 4.0])), -3.0 * np.log(8.0), rtol=1e-15
    )
    for r in (0.4, 2.0, -3.0):
        got = logjac_tri_inverse(np.array([[r]]))
        assert abs(got - (-2.0 * math.log(abs(r)))) < 1e-14
    with pytest.raises(SingularMatrix):
        logjac_tri_inverse(np.diag([1.0, 0.0]))


def test_wishart_kernel_gamma_grid_m1():
    # Against the gamma(shape n/2, scale 2 sigma^2) log kernel, constant offset.
    n, sigma_sq = 5.0, 2.0
    u_sigma = np.array([[math.sqrt(sigma_sq)]])
    grid = np.linspace(0.3, 8.0, 20)
    diffs = []
    for a in grid:
        ours = logkernel_wishart(np.array([[a]]), n, u_sigma)
        gamma_kernel = (n / 2.0 - 1.0) * math.log(a) - a / (2.0 * sigma_sq)
        diffs.append(ours - gamma_kernel)
    assert np.ptp(diffs) < 1e-12


def test_invwishart_kernel_invgamma_grid_m1():
    # Against the inverse-gamma(shape n/2, rate omega/2) log kernel.
    n, omega = 6.0, 3.0
    u_omega = np.array([[math.sqrt(omega)]])
    grid = np.linspace(0.2, 5.0, 20)
    diffs = []
    for b in grid:
        ours = logkernel_invwishart(np.array([[b]]), n, u_omega)
        ig_kernel = (-n / 2.0 - 1.0) * math.log(b) - omega / (2.0 * b)
        diffs.append(ours - ig_kernel)
    assert np.ptp(diffs) < 1e-12


def test_cholwishart_kernel_chi_grid_m1():
    # Against the scaled-chi kernel u^(n-1) exp(-u^2 / (2 sigma^2)).
    n, sigma_sq = 4.5, 1.7
    u_sigma = np.array([[math.sqrt(sigma_sq)]])
    grid = np.linspace(0.2, 4.0, 20)
    diffs = []
    for u in grid:
        ours = logkernel_cholwishart(np.array([[u]]), n, u_sigma)
        chi_kernel = (n - 1.0) * math.log(u) - u * u / (2.0 * sigma_sq)
        diffs.append(ours - chi_kernel)
    assert np.ptp(diffs) < 1e-12


def test_wishart_scale_covariance():
    # (A, Sigma) -> (cA, cSigma) shifts the kernel by ((n-m-1)/2) m log c.
    rng = np.random.default_rng(7)
    m, n, c = 3, 7.0, 3.7
    g = rng.standard_normal((m, m))
    a = g.T @ g + m * np.eye(m)
    u_sigma = _factor(SIGMA_3)
    u_sigma_scaled = math.sqrt(c) * u_sigma
    base = logkernel_wishart(a, n, u_sigma)
    scaled = logkernel_wishart(c * a, n, u_sigma_scaled)
    predicted = ((n - m - 1) / 2.0) * m * math.log(c)
    assert abs((scaled - base) - predicted) < 1e-10


def test_kernels_finite_on_support_raise_off_support():
    u_sigma = _factor(SIGMA_3)
    rng = RngStream(15)
    plan = _factor_plan(u_sigma, 3, 6, WISHART)
    for _ in range(20):
        u = plan.draw(rng)
        vals = [
            logkernel_wishart(gram_ut(u), 6, u_sigma),
            logkernel_invwishart(gram_ut(u), 6, u_sigma),
            logkernel_cholwishart(u, 6, u_sigma),
            logkernel_cholinvwishart(u, 6, u_sigma),
        ]
        assert all(math.isfinite(v) for v in vals)
    with pytest.raises(NotPositiveDefinite):
        logkernel_wishart(np.array([[1.0, 2.0], [2.0, 1.0]]), 5, np.eye(2))
    with pytest.raises(NotPositiveDefinite):
        logkernel_invwishart(np.array([[1.0, 2.0], [2.0, 1.0]]), 5, np.eye(2))
    nan_point = np.array([[1.0, 0.0], [0.0, np.nan]])
    for kernel in (logkernel_wishart, logkernel_invwishart, logkernel_cholwishart,
                   logkernel_cholinvwishart):
        with pytest.raises(InvalidParameter, match="has non-finite entries"):
            kernel(nan_point, 5, np.eye(2))


def _random_factor(rng, m):
    u = np.triu(rng.standard_normal((m, m)))
    np.fill_diagonal(u, np.abs(u.diagonal()) + 0.1)
    return u


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 13, 50, 200])
def test_right_div_upper_keeps_solve_triangulars_bits(m):
    # The trace's direct dtrtrs call must give the bits of the scipy call it
    # replaced, for every layout of either operand and for a strided factor.
    rng = np.random.default_rng(1300 + m)
    a, u = _random_factor(rng, m), _random_factor(rng, m)
    strided = np.zeros((2 * m, 2 * m))
    strided[::2, ::2] = u
    cases = [(aa, uu) for aa in (np.ascontiguousarray(a), np.asfortranarray(a))
             for uu in (np.ascontiguousarray(u), np.asfortranarray(u))]
    cases.append((a, strided[::2, ::2]))
    for aa, uu in cases:
        want = solve_triangular(uu, aa.T, trans="T", lower=False).T
        got = _right_div_upper(aa, uu)
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous == want.flags.c_contiguous
    # The callers' matrices are read, never written.
    assert all(np.array_equal(aa, a) and np.array_equal(uu, u) for aa, uu in cases)


def test_right_div_upper_raises_on_a_singular_factor():
    u = np.triu(np.ones((3, 3)))
    u[1, 1] = 0.0
    with pytest.raises(SingularMatrix):
        _right_div_upper(np.eye(3), u)


@pytest.mark.parametrize("kernel", [logkernel_wishart, logkernel_invwishart,
                                    logkernel_cholwishart, logkernel_cholinvwishart])
@pytest.mark.parametrize("m_point, m_factor", [(3, 2), (2, 3)])
def test_kernels_reject_a_point_and_factor_of_different_sizes(kernel, m_point, m_factor):
    # Identity matrices are valid points and factors, so only the sizes clash.
    with pytest.raises(DimensionMismatch, match=f"{m_point}x{m_point}.*{m_factor}x{m_factor}"):
        kernel(np.eye(m_point), 5.0, np.eye(m_factor))


def test_cholwishart_consistency_offset_constant():
    n, m = 7.0, 3
    u_sigma = _factor(SIGMA_3)
    rng = RngStream(100)
    plan = _factor_plan(u_sigma, m, n, WISHART)
    offsets = []
    for _ in range(100):
        u = plan.draw(rng)
        offsets.append(
            logkernel_cholwishart(u, n, u_sigma)
            - logkernel_wishart(gram_ut(u), n, u_sigma)
            - logjac_chol(u)
        )
    assert np.std(offsets) < 1e-8
    # The constant itself is -m log 2 (factor-vs-square kernel bookkeeping).
    assert abs(np.mean(offsets) + m * math.log(2.0)) < 1e-10


def test_cholinvwishart_consistency_offset_constant():
    n, m = 6.0, 3
    u_omega = _factor(SIGMA_3, iscov=False)
    rng = RngStream(101)
    plan = _factor_plan(u_omega, m, n, DIRECT)
    offsets = []
    for _ in range(100):
        u = plan.draw(rng)
        offsets.append(
            logkernel_cholinvwishart(u, n, u_omega)
            - logkernel_invwishart(gram_ut(u), n, u_omega)
            - logjac_chol(u)
        )
    assert np.std(offsets) < 1e-8
    assert abs(np.mean(offsets) + m * math.log(2.0)) < 1e-10


def test_factor_chain_offset_constant():
    # The triangular-fill density route to the factor kernel: for random Z
    # and U_B = Z^{-1} U_Omega, kernel(U_B) - (m+1) log det Z minus the chi
    # and normal log kernels of Z's entries is draw-independent.
    m, n = 3, 8.0
    u_omega = _factor(SIGMA_3, iscov=False)
    rng = RngStream(102)
    offsets = []
    for _ in range(100):
        z = draw_bartlett_invwishart(rng, m, n)
        u_b = tri_mul(tri_inverse(z), u_omega)
        log_pz = -0.5 * float(np.sum(z * z))
        for j in range(1, m + 1):
            log_pz += (n - m + j - 1.0) * math.log(z[j - 1, j - 1])
        offsets.append(
            logkernel_cholinvwishart(u_b, n, u_omega) + logjac_tri_inverse(z) - log_pz
        )
    assert np.std(offsets) < 1e-8
