"""
Drawing Wishart matrices on the Cholesky scale
==============================================

A Wishart draw A with covariance scale Sigma and n degrees of freedom can be
produced without ever forming a sum of outer products: fill an upper-triangular
matrix Z with independent entries (chi-distributed diagonal, standard-normal
above it) and multiply by the factor of Sigma.  The product U_A = Z @ U_Sigma
is itself the upper Cholesky factor of A.
"""

import numpy as np

from triwish import (
    WISHART,
    RngStream,
    SamplerSpec,
    ScaleParam,
    draw_bartlett_wishart,
    gram_ut,
    prepare,
    rwishart,
)

rng = RngStream(seed=2024)

# The triangular fill is the whole source of randomness.  For m = 4 and
# n = 9.5 the diagonal entries are chi(n + 1 - j) and everything above the
# diagonal is N(0, 1); the strict lower triangle stays zero.
z = draw_bartlett_wishart(rng, m=4, n=9.5)
print("triangular fill Z:")
print(np.array_str(z, precision=3, suppress_small=True))

# A covariance scale with some correlation.
sigma = np.array(
    [
        [2.0, 0.5, 0.2, 0.0],
        [0.5, 1.5, 0.3, 0.1],
        [0.2, 0.3, 1.0, 0.2],
        [0.0, 0.1, 0.2, 0.8],
    ]
)
spec = SamplerSpec(m=4, n=9.5, scale=ScaleParam(sigma, iscov=True), retcholu=True)

# With retcholu=True the sampler returns the factor U_A; squaring it with
# gram_ut gives the same matrix a retcholu=False call would return.
u_a = rwishart(rng, spec)
a = gram_ut(u_a)
print("\nfactor U_A:")
print(np.array_str(u_a, precision=3, suppress_small=True))
print("\nA = U_A^T U_A is symmetric positive definite:")
print(np.array_str(a, precision=3, suppress_small=True))
print("eigenvalues:", np.round(np.linalg.eigvalsh(a), 3))

# The law has mean n * Sigma.  A modest Monte Carlo average already gets
# within a few percent.  For repeated draws from one scale, prepare factors
# Sigma once and the plan's draws reuse that factor.
nsamples = 20_000
plan = prepare(SamplerSpec(m=4, n=9.5, scale=ScaleParam(sigma, iscov=True)), WISHART)
acc = np.zeros((4, 4))
for _ in range(nsamples):
    acc += plan.draw(rng)
mean = acc / nsamples
err = np.linalg.norm(mean - 9.5 * sigma) / np.linalg.norm(9.5 * sigma)
print(f"\nMonte Carlo mean vs n * Sigma over {nsamples} draws:")
print(f"relative Frobenius error = {err:.4f}")
