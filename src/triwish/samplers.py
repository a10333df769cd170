"""Wishart and inverse-Wishart samplers built on triangular factors.

Two routes produce an inverse-Wishart draw:

* ``rinvwishart_indirect`` - the standard route: sample a Cholesky-Wishart
  factor by the Bartlett construction, invert it, and square up.
* ``rinvwishart_direct`` - the direct route: sample the Cholesky factor of
  the inverse-Wishart matrix itself (inverse Bartlett factor times the
  upper factor of the precision scale), so no factorization of the output
  is ever needed.

Both accept any of the four scale parameterizations (covariance, precision,
or either one's upper Cholesky factor) via :class:`ScaleParam`, and both
tally their POTRF/TRTRI/TRMM usage in an :class:`OpCounter`;
``EXPECTED_OP_COUNTS`` records the exact tally for each combination.
``recommend_algorithm`` picks the route with the cheaper tally.

Draw-order contract (seed reproducibility): the Bartlett-type fills consume
randomness column by column, for j = 1..m drawing the j-1 off-diagonal
normals z_1j .. z_(j-1)j first and the diagonal chi draw z_jj last.  For
equal (m, n) both fills consume exactly m(m-1)/2 normal draws and m chi
draws in the same positions; only the chi degrees of freedom differ
(n+1-j for the Wishart fill, n-m+j for the inverse-Wishart fill).
For m >= ``FILL_BATCH_MIN_M``, and for every batch of k fills (the ``_many``
fills, one (k, m, m) array), the fill runs through the compiled column walk
of :func:`triwish.rng.walk_fills`: in one call it walks the columns in this
order in C with the scalar draws' operations, computing the Philox uniforms
from the stream's seed, id and position, and the stream then skips exactly
the uniforms the column-by-column loop consumes: same bytes, same position
after.  Where the walk cannot be built or loaded, every fill runs the scalar
loop, which stays the reference.  On either path a single fill is an (m, m)
array in Fortran order, which the kernels take without a copy, and a batch
is a C-ordered (k, m, m) array.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDegreesOfFreedom, InvalidParameter, NumericalFailure
from .linalg import (
    OpCounter,
    as_square,
    check_cholesky_factor,
    chol_upper,
    gram_ut,
    gram_vt,
    tri_inverse,
    tri_mul,
)
from .rng import compiled_loop, integer_value, walk_fills

INDIRECT = "indirect"
DIRECT = "direct"
AUTO = "auto"


@dataclass
class ScaleParam:
    """Scale matrix plus the flags naming which parameterization it is.

    ``iscov`` true means the matrix is a covariance-side scale (or its
    factor), false means precision-side.  ``ischolu`` true means the matrix
    is already an upper Cholesky factor; it is then checked structurally
    (upper triangular, positive diagonal) but never re-factorized.
    """

    matrix: np.ndarray
    iscov: bool = True
    ischolu: bool = False

    def __post_init__(self):
        if self.ischolu:
            self.matrix = check_cholesky_factor(self.matrix, "scale factor")
        else:
            self.matrix = as_square(self.matrix)
            if not np.isfinite(self.matrix).all():
                raise InvalidParameter("scale matrix has non-finite entries")

    @property
    def dim(self):
        return self.matrix.shape[0]

    def kind(self):
        """One of 'cov', 'cov_chol', 'prec', 'prec_chol'."""
        base = "cov" if self.iscov else "prec"
        return base + ("_chol" if self.ischolu else "")


def _check_df(m, n):
    if not (n > m - 1 and math.isfinite(n)):
        raise InvalidDegreesOfFreedom(
            f"need finite n > m - 1 for a nonsingular matrix, got n={n}, m={m}"
        )


def _positive_int(name, value):
    v = integer_value(value)
    if v is None or v < 1:
        raise InvalidParameter(f"{name} must be a positive integer, got {value!r}")
    return v


def _check_fill_args(m, n):
    """The one (m, n) check of a spec, a single fill and a batch of fills; returns int m."""
    m = _positive_int("dimension m", m)
    _check_df(m, n)
    return m


@dataclass
class SamplerSpec:
    """Dimension, degrees of freedom, scale, and output form for one sampler call."""

    m: int
    n: float
    scale: ScaleParam
    retcholu: bool = False

    def __post_init__(self):
        self.m = _check_fill_args(self.m, self.n)
        if self.scale.dim != self.m:
            raise DimensionMismatch(
                f"scale is {self.scale.dim}x{self.scale.dim}, expected {self.m}x{self.m}"
            )


# Smallest m whose single fill runs through the compiled column walk; below
# it the walk's fixed cost (argument checks, ctypes call, skip)
# outweighs the Python draws it saves.  Against the scalar loop the walk took
# 1.06-1.12x the time at m = 4, 0.84-0.85x at m = 5 and 0.68-0.69x at m = 6
# on a 2-CPU x86-64 host with numpy 2.4 (see CHANGES.md).  Starting at 6
# keeps the m = 4 Monte Carlo steps as they were, and lets a single fill
# below it take any stream with standard_normal and chi.
FILL_BATCH_MIN_M = 6


def _fill_scalar(rng, m, diag_df):
    normal = rng.standard_normal
    chi = rng.chi
    z = np.zeros((m, m), order="F")
    for j in range(m):
        if j:
            z[:j, j] = [normal() for _ in range(j)]
        z[j, j] = chi(diag_df(j + 1))
    return z


def _fill_one(rng, m, diag_df):
    # Tested first, the bound keeps small fills from building the walk.
    if m < FILL_BATCH_MIN_M or compiled_loop() is None:
        return _fill_scalar(rng, m, diag_df)
    return _fill_walk(rng, m, diag_df, 1, fortran=True)[0]


def _fill_many(rng, m, diag_df, k):
    if compiled_loop() is None:
        return np.array([_fill_scalar(rng, m, diag_df) for _ in range(k)])
    return _fill_walk(rng, m, diag_df, k)


def _fill_walk(rng, m, diag_df, k, fortran=False):
    # k fills in a row are one stream of k*m columns, each fill in Fortran
    # order or the whole (k, m, m) array in C order.  For a float n, diag_df
    # on the floats 1..m makes the IEEE operations it makes on each int j.
    out = np.zeros((k, m, m))
    if fortran:
        out = out.transpose(0, 2, 1)
    rng.skip(walk_fills(rng, out, diag_df(np.arange(1.0, m + 1.0))))
    return out


def draw_bartlett_wishart(rng, m, n):
    """Bartlett factor Z with Z ~ CholeskyWishart(n, identity).

    Column j gets j-1 standard normals above a chi_(n+1-j) diagonal entry,
    in the documented draw order.
    """
    m = _check_fill_args(m, n)
    return _fill_one(rng, m, lambda j: n + 1 - j)


def draw_bartlett_invwishart(rng, m, n):
    """Factor Z whose inverse is ~ CholeskyInverseWishart(n, identity).

    Identical draw order to :func:`draw_bartlett_wishart`; the diagonal of
    column j uses chi_(n-m+j) instead.
    """
    m = _check_fill_args(m, n)
    return _fill_one(rng, m, lambda j: n - m + j)


def draw_bartlett_wishart_many(rng, m, n, k):
    """k Wishart fills as a (k, m, m) array: the bytes, and the stream
    position after them, of k successive :func:`draw_bartlett_wishart` calls."""
    m = _check_fill_args(m, n)
    k = _positive_int("batch size k", k)
    return _fill_many(rng, m, lambda j: n + 1 - j, k)


def draw_bartlett_invwishart_many(rng, m, n, k):
    """k inverse-Wishart fills as a (k, m, m) array: the bytes, and the stream
    position after them, of k successive :func:`draw_bartlett_invwishart` calls."""
    m = _check_fill_args(m, n)
    k = _positive_int("batch size k", k)
    return _fill_many(rng, m, lambda j: n - m + j, k)


def cholesky_upper_param(scale, invert, counter=None):
    """Upper Cholesky factor of the scale matrix or of its inverse.

    With ``invert`` the factor U of S is inverted (TRTRI), squared into
    S^-1 = (U^-1)(U^-1)^T (TRMM), and re-factorized (POTRF); without it the
    factor is computed directly, or passed through untouched when the scale
    is already a factor.  Only the scale is checked: the matrices built from
    it here are factored and inverted in place.  The result is a new array
    in Fortran order, or ``scale.matrix`` itself when it is passed through.
    """
    if invert:
        u = scale.matrix if scale.ischolu else chol_upper(scale.matrix, counter)
        c = tri_inverse(u, counter, owned=u is not scale.matrix)
        p = gram_vt(c, counter, owned=True)
        return chol_upper(p, counter, owned=True)
    if scale.ischolu:
        return scale.matrix
    return chol_upper(scale.matrix, counter)


def rwishart_chol(rng, m, n, u_sigma, counter=None):
    """Cholesky-Wishart draw: Bartlett factor times the scale factor (one
    TRMM), which is left untouched."""
    z = draw_bartlett_wishart(rng, m, n)
    return tri_mul(z, u_sigma, counter)


def rinvwishart_chol(rng, m, n, u_omega, counter=None):
    """Cholesky-inverse-Wishart draw without any factorization.

    Inverts the Bartlett-type factor (one TRTRI) and multiplies by the
    precision-side factor (one TRMM), which is left untouched.  The chi
    diagonal is strictly positive, so the inversion cannot fail.
    """
    z = draw_bartlett_invwishart(rng, m, n)
    c = tri_inverse(z, counter, owned=True)
    return tri_mul(c, u_omega, counter)


# The routes pass owned=True for each matrix the draw builds itself: the
# fill, every product, and the setup factor unless it is the caller's scale
# matrix.  Those are checked once, as the returned draw (check_draw), and
# LAPACK/BLAS overwrite them in place.
def _setup_factor(scale, invert, counter):
    """:func:`cholesky_upper_param`, and whether the draw owns the factor."""
    u = cholesky_upper_param(scale, invert, counter)
    return u, u is not scale.matrix


def rinvwishart_indirect(rng, spec, counter=None):
    """Inverse-Wishart draw via a Wishart draw and inversion (standard route).

    Returns the matrix, or its upper Cholesky factor if ``spec.retcholu``
    (which costs one extra POTRF on this route).
    """
    u_sigma, owned = _setup_factor(spec.scale, not spec.scale.iscov, counter)
    u_a = tri_mul(draw_bartlett_wishart(rng, spec.m, spec.n), u_sigma, counter, owned=owned)
    b = gram_vt(tri_inverse(u_a, counter, owned=True), counter, owned=True)
    if spec.retcholu:
        return chol_upper(b, counter, owned=True)
    return b


def rinvwishart_direct(rng, spec, counter=None):
    """Inverse-Wishart draw with the Cholesky factor generated directly.

    With ``spec.retcholu`` the factor is returned as-is (no extra work);
    otherwise one TRMM squares it up into the full matrix.
    """
    u_omega, owned = _setup_factor(spec.scale, spec.scale.iscov, counter)
    c = tri_inverse(draw_bartlett_invwishart(rng, spec.m, spec.n), counter, owned=True)
    u_b = tri_mul(c, u_omega, counter, owned=owned)
    if spec.retcholu:
        return u_b
    return gram_ut(u_b, counter, owned=True)


def check_draw(x):
    """Return the draw x after one O(m^2) scan.

    With a scale near either end of the double range the kernels can
    overflow or underflow.  Raises NumericalFailure if an entry of x is not
    finite, or if a diagonal entry is not positive: a factor and a positive
    definite matrix both have a positive diagonal.
    """
    if not np.isfinite(x).all():
        raise NumericalFailure("draw is not finite: the scale is too close to the double range's ends")
    if not x.diagonal().min() > 0.0:
        raise NumericalFailure("draw has a diagonal entry that is not positive")
    return x


def rwishart(rng, spec, counter=None):
    """Wishart draw (full matrix or factor) from a covariance-side scale.

    Raises NumericalFailure for a draw that over- or underflowed (see
    :func:`check_draw`).
    """
    if not spec.scale.iscov:
        raise InvalidParameter("Wishart sampling expects a covariance-side scale (iscov)")
    u_sigma, owned = _setup_factor(spec.scale, False, counter)
    u_a = tri_mul(draw_bartlett_wishart(rng, spec.m, spec.n), u_sigma, counter, owned=owned)
    return check_draw(u_a if spec.retcholu else gram_ut(u_a, counter, owned=True))


def recommend_algorithm(scale):
    """Cheaper inverse-Wishart route for this parameterization.

    Covariance-side scales favor the indirect route; precision-side scales
    favor the direct route (see ``EXPECTED_OP_COUNTS``).
    """
    return INDIRECT if scale.iscov else DIRECT


def sample_invwishart(rng, spec, algorithm, counter=None):
    """Dispatch helper: run the named route, resolving ``'auto'`` first.

    Raises NumericalFailure for a draw that over- or underflowed (see
    :func:`check_draw`).
    """
    if algorithm == AUTO:
        algorithm = recommend_algorithm(spec.scale)
    if algorithm == INDIRECT:
        draw = rinvwishart_indirect(rng, spec, counter)
    elif algorithm == DIRECT:
        draw = rinvwishart_direct(rng, spec, counter)
    else:
        raise InvalidParameter(f"unknown algorithm {algorithm!r}")
    return check_draw(draw)


# (trtri, trmm, potrf) for every parameterization x route x output form.
# retcholu=False returns the full matrix, True just the factor.
EXPECTED_OP_COUNTS = {
    ("cov", INDIRECT, False): OpCounter(trtri=1, trmm=2, potrf=1),
    ("cov", INDIRECT, True): OpCounter(trtri=1, trmm=2, potrf=2),
    ("cov_chol", INDIRECT, False): OpCounter(trtri=1, trmm=2, potrf=0),
    ("cov_chol", INDIRECT, True): OpCounter(trtri=1, trmm=2, potrf=1),
    ("prec", INDIRECT, False): OpCounter(trtri=2, trmm=3, potrf=2),
    ("prec", INDIRECT, True): OpCounter(trtri=2, trmm=3, potrf=3),
    ("prec_chol", INDIRECT, False): OpCounter(trtri=2, trmm=3, potrf=1),
    ("prec_chol", INDIRECT, True): OpCounter(trtri=2, trmm=3, potrf=2),
    ("cov", DIRECT, False): OpCounter(trtri=2, trmm=3, potrf=2),
    ("cov", DIRECT, True): OpCounter(trtri=2, trmm=2, potrf=2),
    ("cov_chol", DIRECT, False): OpCounter(trtri=2, trmm=3, potrf=1),
    ("cov_chol", DIRECT, True): OpCounter(trtri=2, trmm=2, potrf=1),
    ("prec", DIRECT, False): OpCounter(trtri=1, trmm=2, potrf=1),
    ("prec", DIRECT, True): OpCounter(trtri=1, trmm=1, potrf=1),
    ("prec_chol", DIRECT, False): OpCounter(trtri=1, trmm=2, potrf=0),
    ("prec_chol", DIRECT, True): OpCounter(trtri=1, trmm=1, potrf=0),
}
