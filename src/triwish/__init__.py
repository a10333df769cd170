"""Wishart and inverse-Wishart sampling on the Cholesky scale.

Samplers for the Wishart and inverse-Wishart distributions and for their
upper-triangular Cholesky factors, built from triangular fills with chi
diagonals and standard-normal off-diagonals.  Two routes to an
inverse-Wishart draw are provided — invert a Wishart factor, or build the
inverse-Wishart factor directly — and every draw can report exactly which
POTRF/TRTRI/TRMM kernels it spent, so the two routes can be compared both
statistically and by operation count.  ``prepare`` factors a scale once and
returns a ``Plan`` to draw from repeatedly.
"""

from .densities import (
    logjac_chol,
    logjac_tri_inverse,
    logkernel_cholinvwishart,
    logkernel_cholwishart,
    logkernel_invwishart,
    logkernel_wishart,
)
from .errors import (
    DimensionMismatch,
    InvalidDegreesOfFreedom,
    InvalidParameter,
    MeanUndefined,
    NotPositiveDefinite,
    NumericalFailure,
    SingularMatrix,
    TooFewSamples,
    TriwishError,
)
from .linalg import OpCounter, chol_upper, gram_ut, gram_vt, tri_inverse, tri_mul
from .rng import RngStream
from .samplers import (
    AUTO,
    DIRECT,
    EXPECTED_OP_COUNTS,
    INDIRECT,
    WISHART,
    Plan,
    SamplerSpec,
    ScaleParam,
    cholesky_upper_param,
    draw_bartlett_invwishart,
    draw_bartlett_wishart,
    prepare,
    recommend_algorithm,
    rwishart,
    sample_invwishart,
)
from .validation import (
    KsResult,
    MomentReport,
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

__version__ = "0.1.0"

__all__ = [
    "AUTO",
    "DIRECT",
    "DimensionMismatch",
    "EXPECTED_OP_COUNTS",
    "INDIRECT",
    "InvalidDegreesOfFreedom",
    "InvalidParameter",
    "KsResult",
    "MeanUndefined",
    "MomentReport",
    "NotPositiveDefinite",
    "NumericalFailure",
    "OpCounter",
    "Plan",
    "RngStream",
    "SamplerSpec",
    "ScaleParam",
    "SingularMatrix",
    "TooFewSamples",
    "TriwishError",
    "WISHART",
    "chi_square_cdf",
    "chol_upper",
    "cholesky_upper_param",
    "draw_bartlett_invwishart",
    "draw_bartlett_wishart",
    "fd_logdet_jacobian",
    "gram_ut",
    "gram_vt",
    "ks_one_sample",
    "ks_two_sample",
    "logjac_chol",
    "logjac_tri_inverse",
    "logkernel_cholinvwishart",
    "logkernel_cholwishart",
    "logkernel_invwishart",
    "logkernel_wishart",
    "mc_mean_invwishart",
    "mc_mean_wishart",
    "normal_cdf",
    "prepare",
    "recommend_algorithm",
    "rwishart",
    "rwishart_outer_oracle",
    "sample_invwishart",
    "tri_inverse",
    "tri_mul",
    "triangular_coords",
    "__version__",
]
