"""Statistical and numerical test machinery.

Kolmogorov-Smirnov tests (exact statistic, asymptotic p-value), a
chi-square CDF, Monte Carlo moment checks for the matrix samplers, central
finite-difference Jacobian determinants on triangular coordinates, and the
naive outer-product Wishart construction used as a distributional oracle
for the Bartlett-type samplers.

The one-sample KS statistic is exact for an elementwise, non-decreasing
CDF, which is called on sorted subsets of the draws, at most twice, and
only where the supremum can lie; NaN draws give a NaN statistic and
p-value, as they would with the CDF at every draw.  KS samples must be 1-D.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy  # scipy.special loads on first use, not with triwish

from .errors import InvalidParameter, MeanUndefined, NumericalFailure, TooFewSamples
from .linalg import as_square, check_cholesky_factor, gram_ut
from .samplers import WISHART, SamplerSpec, _invwishart_route, prepare

MIN_KS_SAMPLES = 10
CONFIDENT_SAMPLES = 1000


@dataclass
class KsResult:
    """Supremum ECDF deviation plus its asymptotic p-value."""

    statistic: float
    pvalue: float
    n: int
    n2: int | None = None


@dataclass
class MomentReport:
    """Monte Carlo sample mean against an analytic target."""

    sample_mean: np.ndarray
    target: np.ndarray
    relative_error: float
    nsamples: int
    confident: bool  # False when nsamples is below CONFIDENT_SAMPLES


def normal_cdf(x):
    """Standard normal CDF, elementwise on arrays."""
    return scipy.special.ndtr(x)


def _ks_pvalue(d, en):
    # Asymptotic Kolmogorov survival function at Stephens' corrected
    # statistic (en + 0.12 + 0.11/en) * d, for effective sample size en.
    return float(scipy.special.kolmogorov((en + 0.12 + 0.11 / en) * d))


def _sample_1d(draws):
    # The draws as a float array, refused unless 1-D: np.sort sorts the last
    # axis only, so a 2-D sample would be sorted row by row, then broadcast
    # against the CDF's values or fail inside numpy.
    x = np.asarray(draws, dtype=float)
    if x.ndim != 1:
        raise InvalidParameter(f"KS draws must be a 1-D array, got shape {x.shape}")
    return x


def _cdf_terms(cdf, xs, k):
    # The ECDF deviations i/n - F and F - (i-1)/n at the 0-based sorted
    # indices k (i = k + 1), with the CDF called once on xs[k].
    x = xs[k]
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape:
        raise InvalidParameter(
            f"cdf returned shape {f.shape} for {x.size} draws; it must be vectorized")
    n = xs.size
    return f, (k + 1) / n - f, f - k / n


# Sorted draws per block of ks_one_sample: the CDF is called at every
# block's ends, then inside the blocks whose bound can reach the supremum.
KS_BLOCK = 32


def ks_one_sample(draws, cdf):
    """One-sample KS test of draws against a vectorized continuous CDF.

    The statistic is exact, the same bits as evaluating the CDF at every
    draw, for a CDF that is elementwise and non-decreasing: the CDF is
    called at most twice, each time on an ascending subset of the sorted
    draws.  The first call takes the ends of blocks of ``KS_BLOCK``
    consecutive draws; since F is non-decreasing, no draw of a block
    [s, e] deviates by more than max((e+1)/n - F(x_s), F(x_e) - s/n), and
    the second call takes the draws inside the blocks where that bound
    reaches the largest deviation at the ends.  NaN draws, which sort last,
    give a NaN statistic and p-value.  The draws are sorted in a copy and
    never written.
    """
    return _ks_sorted(np.sort(_sample_1d(draws)), cdf)


def _ks_sorted(xs, cdf):
    # ks_one_sample on draws xs already sorted ascending into a 1-D float
    # array, for a caller that sorted a sample it no longer needs in place.
    n = xs.size
    if n < MIN_KS_SAMPLES:
        raise TooFewSamples(f"need at least {MIN_KS_SAMPLES} draws, got {n}")
    starts = np.arange(0, n, KS_BLOCK)
    ends = np.minimum(starts + (KS_BLOCK - 1), n - 1)
    f, plus, minus = _cdf_terms(cdf, xs, np.column_stack((starts, ends)).ravel())
    d_plus, d_minus = np.max(plus), np.max(minus)
    # Rounding is monotone, so every computed term of a block is at most its
    # computed bound, and a block whose bound is below the supremum at the
    # ends cannot raise it; the 1e-12 margin evaluates a few blocks more.
    bound = np.maximum((ends + 1) / n - f[0::2], f[1::2] - starts / n)
    inside = (starts[bound >= max(d_plus, d_minus) - 1e-12, None]
              + np.arange(1, KS_BLOCK - 1)).ravel()
    inside = inside[inside < n - 1]
    if inside.size:
        _, plus, minus = _cdf_terms(cdf, xs, inside)
        d_plus, d_minus = np.maximum(d_plus, np.max(plus)), np.maximum(d_minus, np.max(minus))
    d = max(float(d_plus), float(d_minus), 0.0)
    return KsResult(statistic=d, pvalue=_ks_pvalue(d, math.sqrt(n)), n=n)


def ks_two_sample(a, b):
    """Two-sample KS test for equality of two empirical distributions."""
    xa = np.sort(_sample_1d(a))
    xb = np.sort(_sample_1d(b))
    n1, n2 = xa.size, xb.size
    if n1 < MIN_KS_SAMPLES or n2 < MIN_KS_SAMPLES:
        raise TooFewSamples(f"need at least {MIN_KS_SAMPLES} draws in each sample")
    grid = np.concatenate([xa, xb])
    cdf1 = np.searchsorted(xa, grid, side="right") / n1
    cdf2 = np.searchsorted(xb, grid, side="right") / n2
    d = float(np.max(np.abs(cdf1 - cdf2)))
    en = math.sqrt(n1 * n2 / (n1 + n2))
    return KsResult(statistic=d, pvalue=_ks_pvalue(d, en), n=n1, n2=n2)


def chi_square_cdf(x, k):
    """CDF of the chi-square distribution with k > 0 real degrees of freedom.

    Elementwise on arrays: the regularized lower incomplete gamma
    ``P(k/2, x/2)`` from ``scipy.special.gammainc``.
    """
    if not k > 0.0:
        raise InvalidParameter(f"chi-square degrees of freedom must be positive, got {k}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise InvalidParameter(f"chi-square CDF argument must be nonnegative, got {x.min()}")
    return scipy.special.gammainc(0.5 * k, 0.5 * x)


def _scale_matrix(scale, iscov):
    # The scale as a full covariance matrix (iscov) or precision matrix.
    full = gram_ut(scale.matrix) if scale.ischolu else scale.matrix
    return full if scale.iscov == iscov else np.linalg.inv(full)


# Batches of about this many entries keep the Monte Carlo and fill checks'
# arrays small next to the peak RSS.
BATCH_ENTRIES = 1 << 17


def _mc_mean(rng, spec, algorithm, nsamples):
    # Mean of nsamples full-matrix draws from one plan, summed in draw order.
    if nsamples < 1:
        raise TooFewSamples("need at least one draw")
    plan = prepare(SamplerSpec(spec.m, spec.n, spec.scale), algorithm)
    block = max(1, BATCH_ENTRIES // (spec.m * spec.m))
    acc = np.zeros((spec.m, spec.m))
    for start in range(0, nsamples, block):
        for x in plan.draw_many(rng, min(block, nsamples - start)):
            acc += x
    return acc / nsamples


def _moment_report(mean, target, nsamples):
    return MomentReport(
        sample_mean=mean,
        target=target,
        relative_error=float(np.linalg.norm(mean - target) / np.linalg.norm(target)),
        nsamples=nsamples,
        confident=nsamples >= CONFIDENT_SAMPLES,
    )


def mc_mean_wishart(rng, spec, nsamples):
    """Monte Carlo mean of Wishart draws against the analytic mean n * Sigma."""
    mean = _mc_mean(rng, spec, WISHART, nsamples)
    return _moment_report(mean, spec.n * _scale_matrix(spec.scale, iscov=True), nsamples)


def mc_mean_invwishart(rng, spec, algorithm, nsamples):
    """Monte Carlo mean of inverse-Wishart draws against Omega / (n - m - 1).

    The mean only exists for n > m + 1; otherwise MeanUndefined is raised.
    """
    if not spec.n > spec.m + 1:
        raise MeanUndefined(
            f"inverse-Wishart mean needs n > m + 1, got n={spec.n}, m={spec.m}"
        )
    mean = _mc_mean(rng, spec, _invwishart_route(algorithm), nsamples)
    target = _scale_matrix(spec.scale, iscov=False) / (spec.n - spec.m - 1)
    return _moment_report(mean, target, nsamples)


def triangular_coords(m):
    """Distinct upper-triangle coordinates in wedge order (11, 12, 22, 13, ...)."""
    return [(i, j) for j in range(m) for i in range(j + 1)]


def _vec_upper(x, coords):
    return np.array([x[i, j] for i, j in coords])


def fd_logdet_jacobian(map_fn, at):
    """log |det J| of a map on upper-triangular matrices, by central differences.

    The Jacobian is assembled coordinate by coordinate over the m(m+1)/2
    distinct entries in wedge order, with step 1e-6 * max(1, |coordinate|).
    Raises NumericalFailure if the finite-difference Jacobian is singular
    to working precision.
    """
    at = as_square(at)
    m = at.shape[0]
    coords = triangular_coords(m)
    d = len(coords)
    jac = np.zeros((d, d))
    for col, (i, j) in enumerate(coords):
        h = 1e-6 * max(1.0, abs(at[i, j]))
        hi = at.copy()
        hi[i, j] += h
        lo = at.copy()
        lo[i, j] -= h
        diff = _vec_upper(map_fn(hi), coords) - _vec_upper(map_fn(lo), coords)
        jac[:, col] = diff / (2.0 * h)
    sign, logabs = np.linalg.slogdet(jac)
    if sign == 0.0 or not np.isfinite(logabs):
        raise NumericalFailure("finite-difference Jacobian is singular to working precision")
    return float(logabs)


def rwishart_outer_oracle(rng, m, n, u_sigma):
    """Naive Wishart draw from the defining sum of outer products.

    Draws n columns y = U_Sigma^T g with g standard normal (entries in row
    order, columns in order) and accumulates sum_i y_i y_i^T.  Requires
    integer n >= 1; this is a small-n validation oracle, not a production
    sampler.
    """
    if int(n) != n or n < 1:
        raise InvalidParameter(f"outer-product oracle needs integer n >= 1, got {n}")
    u_sigma = check_cholesky_factor(u_sigma, "covariance factor")
    if u_sigma.shape[0] != m:
        raise InvalidParameter(f"factor is {u_sigma.shape[0]}x{u_sigma.shape[0]}, expected m={m}")
    normal = rng.standard_normal
    acc = np.zeros((m, m))
    for _ in range(int(n)):
        g = np.array([normal() for _ in range(m)])
        y = u_sigma.T @ g
        acc += np.outer(y, y)
    return acc
