"""
Validating the samplers with the built-in test machinery
========================================================

The package carries its own goodness-of-fit toolbox: one- and two-sample KS
tests, a chi-square CDF (``scipy.special.gammainc``), Monte Carlo moment
checks, and finite-difference Jacobian verification.  This script runs a few of them by
hand; ``triwish validate`` runs the full registry with fixed seeds.
"""

import numpy as np

from triwish import (
    RngStream,
    SamplerSpec,
    ScaleParam,
    chi_square_cdf,
    draw_bartlett_wishart,
    fd_logdet_jacobian,
    ks_one_sample,
    logjac_tri_inverse,
    mc_mean_invwishart,
    prepare,
    tri_inverse,
)

rng = RngStream(314159)

# 1. Marginals of the triangular fill.  For a Wishart fill the squared
#    diagonal z_jj^2 follows chi-square(n + 1 - j).
m, n, nsamples = 3, 6.0, 20_000
diags = np.empty((nsamples, m))
for i in range(nsamples):
    diags[i] = np.diag(draw_bartlett_wishart(rng, m, n))
print("KS tests of z_jj^2 against chi-square(n + 1 - j):")
for j in range(1, m + 1):
    df = n + 1 - j
    res = ks_one_sample(diags[:, j - 1] ** 2, lambda x, d=df: chi_square_cdf(x, d))
    print(f"  j = {j}: df = {df:.0f}, D = {res.statistic:.4f}, p = {res.pvalue:.3f}")

# 2. The m = 1 inverse-Wishart is an inverse-gamma; its CDF needs nothing
#    beyond the chi-square CDF.
omega = 3.0
spec1 = SamplerSpec(1, 6.0, ScaleParam(np.array([[omega]]), iscov=False))
draws = prepare(spec1, "direct").draw_many(rng, 20_000)[:, 0, 0]
res = ks_one_sample(draws, lambda x: 1.0 - chi_square_cdf(omega / np.maximum(x, 1e-300), 6.0))
print(f"\nm=1 inverse-gamma KS: D = {res.statistic:.4f}, p = {res.pvalue:.3f}")

# 3. Monte Carlo mean against the analytic Omega / (n - m - 1).
spec = SamplerSpec(2, 8.0, ScaleParam(np.eye(2), iscov=False))
report = mc_mean_invwishart(RngStream(271828), spec, "direct", 50_000)
print(f"\nMonte Carlo mean check: relative error = {report.relative_error:.4f}")
print("sample mean:")
print(np.array_str(report.sample_mean, precision=4, suppress_small=True))
print("target Omega / (n - m - 1):")
print(np.array_str(report.target, precision=4, suppress_small=True))

# 4. Finite differences confirm the closed-form log Jacobian of triangular
#    inversion at a random point.
t = np.triu(np.random.default_rng(5).standard_normal((3, 3))) + 2.0 * np.eye(3)
fd = fd_logdet_jacobian(tri_inverse, t)
closed = logjac_tri_inverse(t)
print(f"\nlog |det J| of inversion: finite differences = {fd:.10f}")
print(f"                          closed form        = {closed:.10f}")
