"""
Log-density kernels on the matrix and factor scales
===================================================

The library evaluates unnormalized log densities ("kernels") for Wishart and
inverse-Wishart matrices and for their upper Cholesky factors.  The two
scales describe the same distribution, so the factor kernel at U must equal
the matrix kernel at U^T U plus the log Jacobian of the squaring map, up to
the normalizing constants each kernel drops.  That difference is therefore a
constant — a sharp internal consistency check that holds to machine
precision, draw after draw.
"""

import numpy as np

from triwish import (
    WISHART,
    RngStream,
    SamplerSpec,
    ScaleParam,
    chol_upper,
    gram_ut,
    logjac_chol,
    logkernel_cholwishart,
    logkernel_invwishart,
    logkernel_cholinvwishart,
    logkernel_wishart,
    prepare,
)

m, n = 3, 7.5
sigma = np.array([[2.0, 0.5, 0.2], [0.5, 1.5, 0.3], [0.2, 0.3, 1.0]])
u_sigma = chol_upper(sigma)
rng = RngStream(99)
# Wishart factor draws U_A = Z @ U_Sigma from the factor itself: with an
# ischolu scale the plan's setup is free and each draw is one TRMM.
wishart = prepare(
    SamplerSpec(m, n, ScaleParam(u_sigma, iscov=True, ischolu=True), retcholu=True), WISHART
)

# Wishart: factor kernel minus (matrix kernel + Jacobian) is constant.
for _ in range(5):
    u_a = wishart.draw(rng)
    a = gram_ut(u_a)
    off = logkernel_cholwishart(u_a, n, u_sigma) - (
        logkernel_wishart(a, n, u_sigma) + logjac_chol(u_a)
    )
    print(f"Wishart offset at a random draw:  {off:.15f}")
print(f"expected constant -m*log(2):      {-m * np.log(2.0):.15f}")

# Inverse-Wishart: same story with the precision-scale kernels.
n_iw = 6.5
omega = np.linalg.inv(sigma)
u_omega = chol_upper(omega)
invwishart = prepare(SamplerSpec(m, n_iw, ScaleParam(sigma, iscov=True), retcholu=True), "direct")
print()
for _ in range(5):
    u_b = invwishart.draw(rng)
    b = gram_ut(u_b)
    off = logkernel_cholinvwishart(u_b, n_iw, u_omega) - (
        logkernel_invwishart(b, n_iw, u_omega) + logjac_chol(u_b)
    )
    print(f"inverse-Wishart offset:           {off:.15f}")
print(f"expected constant -m*log(2):      {-m * np.log(2.0):.15f}")

# The kernels are exactly what an MCMC sampler needs: ratios of densities at
# two points are exact because the dropped constants cancel.
u1 = wishart.draw(rng)
u2 = wishart.draw(rng)
ratio_factor = logkernel_cholwishart(u1, n, u_sigma) - logkernel_cholwishart(u2, n, u_sigma)
ratio_matrix = (
    logkernel_wishart(gram_ut(u1), n, u_sigma)
    + logjac_chol(u1)
    - logkernel_wishart(gram_ut(u2), n, u_sigma)
    - logjac_chol(u2)
)
print(f"\nlog ratio on the factor scale:   {ratio_factor:.12f}")
print(f"log ratio via matrix + Jacobian: {ratio_matrix:.12f}")
