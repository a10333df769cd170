"""
Two routes to an inverse-Wishart draw
=====================================

An inverse-Wishart matrix B can be drawn two ways:

* indirect — draw the matching Wishart factor and invert it afterwards;
* direct   — fill a triangular matrix with flipped chi degrees of freedom,
  invert that small factor, and multiply by the factor of the precision
  scale Omega, giving the factor of B with no full-matrix inversion.

Both routes draw from the same distribution; they differ only in which
triangular kernels they call, so the cheaper route depends on how the scale
is parameterized.  ``recommend_algorithm`` encodes that choice and the
``auto`` mode of the samplers applies it.
"""

import numpy as np

from triwish import (
    DIRECT,
    INDIRECT,
    RngStream,
    SamplerSpec,
    ScaleParam,
    ks_two_sample,
    prepare,
    recommend_algorithm,
)

m, n = 3, 8.0
sigma = np.array([[2.0, 0.5, 0.2], [0.5, 1.5, 0.3], [0.2, 0.3, 1.0]])
scale = ScaleParam(sigma, iscov=True)
spec = SamplerSpec(m, n, scale)

# Draw 20,000 matrices through each route from independent streams.  Each
# route is set up once (prepare) and then drawn from in one batch.
nsamples = 20_000
via_indirect = prepare(spec, INDIRECT).draw_many(RngStream(7, stream=0), nsamples)
via_direct = prepare(spec, DIRECT).draw_many(RngStream(7, stream=1), nsamples)

# Entry-by-entry two-sample KS tests cannot tell the routes apart.
print(f"two-sample KS per entry, {nsamples} draws per route:")
for j in range(m):
    for i in range(j + 1):
        res = ks_two_sample(via_indirect[:, i, j], via_direct[:, i, j])
        print(f"  entry ({i + 1},{j + 1}): D = {res.statistic:.4f}  p = {res.pvalue:.3f}")

# The sample means also agree with each other and with the analytic mean
# Omega / (n - m - 1) = Sigma^-1 ... expressed here via the covariance scale.
omega = np.linalg.inv(sigma)
target = omega / (n - m - 1)
print("\nmean of indirect draws:")
print(np.array_str(via_indirect.mean(axis=0), precision=4, suppress_small=True))
print("mean of direct draws:")
print(np.array_str(via_direct.mean(axis=0), precision=4, suppress_small=True))
print("analytic mean Omega / (n - m - 1):")
print(np.array_str(target, precision=4, suppress_small=True))

# Which route does the library recommend for each parameterization?
for iscov in (True, False):
    for ischolu in (False, True):
        s = ScaleParam(np.eye(m), iscov=iscov, ischolu=ischolu)
        print(f"scale kind {s.kind():<10} -> recommended: {recommend_algorithm(s)}")
