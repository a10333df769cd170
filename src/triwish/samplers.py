"""Wishart and inverse-Wishart samplers built on triangular factors.

Every draw is a setup step and a per-draw step, as in Smith and Hocking's
Bartlett generator (Algorithm AS 53).  Setup, :func:`prepare`, factors the
scale once and returns a :class:`Plan`; its kernels depend only on the
parameterization.  The per-draw step, :meth:`Plan.draw`, runs the fill and
the route's TRTRI/TRMM kernels; its kernels depend only on the route and the
output form.  Routes: ``'wishart'`` is the Bartlett factor times the factor
of the covariance scale Sigma; the inverse-Wishart ``'indirect'`` route
inverts that Wishart factor and squares up, and ``'direct'`` builds the
inverse-Wishart factor itself, a flipped fill's inverse times the factor of
the precision scale Omega, with no factorization of the output.  A scale
comes in one of four parameterizations (:class:`ScaleParam`).
``sample_invwishart`` and ``rwishart`` are setup plus one draw, as in a
Gibbs sampler whose scale changes every step; ``EXPECTED_OP_COUNTS`` holds
their exact POTRF/TRTRI/TRMM tally (:class:`OpCounter`) for each
combination, and ``recommend_algorithm`` picks the cheaper route.

Draw-order contract (seed reproducibility): the Bartlett-type fills consume
randomness column by column, for j = 1..m drawing the j-1 off-diagonal
normals z_1j .. z_(j-1)j first and the diagonal chi draw z_jj last.  For
equal (m, n) both fills consume exactly m(m-1)/2 normal draws and m chi
draws in the same positions; only the chi degrees of freedom differ
(n+1-j for the Wishart fill, n-m+j for the inverse-Wishart fill).
Every fill, single or a batch of k (the ``_many`` fills, one (k, m, m)
array), is drawn by :func:`triwish.rng.bartlett_fills`, which says how; a
batch has the bytes, and leaves the stream where, k single fills would.
Every fill is in Fortran order, as is every matrix the kernels get from a
setup or a draw (see :mod:`triwish.linalg`, Ownership).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDegreesOfFreedom, InvalidParameter, NumericalFailure
from .linalg import (
    OpCounter,
    check_cholesky_factor,
    check_symmetric,
    chol_upper,
    gram_ut,
    gram_vt,
    tri_inverse,
    tri_mul,
)
from .rng import bartlett_fills, integer_value

INDIRECT = "indirect"
DIRECT = "direct"
AUTO = "auto"
WISHART = "wishart"


@dataclass
class ScaleParam:
    """Scale matrix plus the flags naming which parameterization it is.

    ``iscov`` true means the matrix is a covariance-side scale (or its
    factor), false means precision-side.  ``ischolu`` true means the matrix
    is already an upper Cholesky factor; it is then checked structurally
    (upper triangular, positive diagonal) but never re-factorized; a full
    matrix must be finite and symmetric.  ``matrix`` becomes a Fortran-ordered
    copy of the caller's, which is checked here, once.
    """

    matrix: np.ndarray
    iscov: bool = True
    ischolu: bool = False

    def __post_init__(self):
        if self.ischolu:
            x = check_cholesky_factor(self.matrix, "scale factor")
        else:
            x = check_symmetric(self.matrix, "scale matrix")
        self.matrix = x.copy(order="F")

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


# Column j = 1..m of a fill has chi degrees of freedom a + s * j, in double
# precision: n + 1 - j is a = n + 1, s = -1.0, and n - m + j is a = n - m,
# s = 1.0.


def draw_bartlett_wishart(rng, m, n):
    """Bartlett factor Z with Z ~ CholeskyWishart(n, identity).

    Column j gets j-1 standard normals above a chi_(n+1-j) diagonal entry,
    in the documented draw order.
    """
    m = _check_fill_args(m, n)
    return bartlett_fills(rng, m, 1, n + 1, -1.0)[0]


def draw_bartlett_invwishart(rng, m, n):
    """Factor Z whose inverse is ~ CholeskyInverseWishart(n, identity).

    Identical draw order to :func:`draw_bartlett_wishart`; the diagonal of
    column j uses chi_(n-m+j) instead.
    """
    m = _check_fill_args(m, n)
    return bartlett_fills(rng, m, 1, n - m, 1.0)[0]


def draw_bartlett_wishart_many(rng, m, n, k):
    """k Wishart fills as a (k, m, m) array: the bytes, and the stream
    position after them, of k successive :func:`draw_bartlett_wishart` calls."""
    m = _check_fill_args(m, n)
    k = _positive_int("batch size k", k)
    return bartlett_fills(rng, m, k, n + 1, -1.0)


def draw_bartlett_invwishart_many(rng, m, n, k):
    """k inverse-Wishart fills as a (k, m, m) array: the bytes, and the stream
    position after them, of k successive :func:`draw_bartlett_invwishart` calls."""
    m = _check_fill_args(m, n)
    k = _positive_int("batch size k", k)
    return bartlett_fills(rng, m, k, n - m, 1.0)


def cholesky_upper_param(scale, invert, counter=None):
    """Upper Cholesky factor of the scale matrix or of its inverse.

    With ``invert`` the factor U of S is inverted (TRTRI), squared into
    S^-1 = (U^-1)(U^-1)^T (TRMM), and re-factorized (POTRF); without it the
    factor is computed directly, or passed through untouched when the scale
    is already a factor.  :class:`ScaleParam` checked the scale; the kernels
    factor and invert a copy of it in place.  The result is a new array in
    Fortran order, or ``scale.matrix`` itself when it is passed through.
    """
    if scale.ischolu and not invert:
        return scale.matrix
    u = scale.matrix.copy(order="F")
    if not scale.ischolu:
        u = chol_upper(u, counter, owned=True)
    if invert:
        u = tri_inverse(u, counter, owned=True)
        u = chol_upper(gram_vt(u, counter, owned=True), counter, owned=True)
    return u


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


def recommend_algorithm(scale):
    """Cheaper inverse-Wishart route for this parameterization.

    Covariance-side scales favor the indirect route; precision-side scales
    favor the direct route (see ``EXPECTED_OP_COUNTS``).
    """
    return INDIRECT if scale.iscov else DIRECT


@dataclass(eq=False)
class Plan:
    """One spec and route, set up: what every draw of them shares.

    ``factor`` is the upper Cholesky factor, in Fortran order, of the side
    of the scale the route multiplies by: Sigma for ``'wishart'`` and
    ``'indirect'``, Omega for ``'direct'``.  Draws multiply a copy, so a
    plan can be drawn from any number of times.  Make plans with :func:`prepare`.
    """

    spec: SamplerSpec
    algorithm: str
    factor: np.ndarray

    def draw(self, rng, counter=None):
        """One draw: the fill, the route's kernels, then :func:`check_draw`.

        Raises NumericalFailure for a draw that over- or underflowed.
        """
        fill = draw_bartlett_invwishart if self.algorithm == DIRECT else draw_bartlett_wishart
        return self._kernels(fill(rng, self.spec.m, self.spec.n), counter)

    def draw_many(self, rng, k):
        """k draws as a (k, m, m) array, from one batch of k fills: the
        bytes, and the stream position after them, of k calls of :meth:`draw`."""
        many = draw_bartlett_invwishart_many if self.algorithm == DIRECT else draw_bartlett_wishart_many
        fills = many(rng, self.spec.m, self.spec.n, k)
        out = np.empty(fills.shape)
        for i, z in enumerate(fills):
            out[i] = self._kernels(z, None)
        return out

    def _kernels(self, z, counter):
        # Every route multiplies a triangular factor by the plan's: the fill
        # (Wishart, indirect) or its inverse (direct).  The indirect route
        # then inverts that Wishart factor and squares up.  TRMM overwrites
        # its second operand, so it gets a copy of the plan's factor.
        if self.algorithm == DIRECT:
            z = tri_inverse(z, counter, owned=True)
        u = tri_mul(z, self.factor.copy(order="F"), counter, owned=True)
        if self.algorithm == INDIRECT:
            u = tri_inverse(u, counter, owned=True)
            b = gram_vt(u, counter, owned=True)
            x = chol_upper(b, counter, owned=True) if self.spec.retcholu else b
        else:
            x = u if self.spec.retcholu else gram_ut(u, counter, owned=True)
        return check_draw(x)


def prepare(spec, algorithm, counter=None):
    """Set up draws for ``spec`` by one route; setup's kernels go to ``counter``.

    ``algorithm`` is ``'indirect'``, ``'direct'`` or ``'auto'``
    (:func:`recommend_algorithm`) for inverse-Wishart draws, or
    ``'wishart'`` for Wishart draws, which need a covariance-side scale.
    """
    scale = spec.scale
    if algorithm == AUTO:
        algorithm = recommend_algorithm(scale)
    if algorithm not in (INDIRECT, DIRECT, WISHART):
        raise InvalidParameter(f"unknown algorithm {algorithm!r}")
    if algorithm == WISHART and not scale.iscov:
        raise InvalidParameter("Wishart sampling expects a covariance-side scale (iscov)")
    # The direct route multiplies by the factor of Omega, the others by
    # that of Sigma.
    factor = cholesky_upper_param(scale, scale.iscov == (algorithm == DIRECT), counter)
    return Plan(spec, algorithm, factor)


def _invwishart_route(algorithm):
    # prepare rejects unknown names; the inverse-Wishart calls reject its
    # Wishart route too.
    if algorithm == WISHART:
        raise InvalidParameter(f"unknown algorithm {algorithm!r}")
    return algorithm


def sample_invwishart(rng, spec, algorithm, counter=None):
    """One inverse-Wishart draw by the named route: setup plus one draw.

    Raises InvalidParameter for a route other than 'indirect', 'direct' or
    'auto', and NumericalFailure for a draw that over- or underflowed.
    """
    return prepare(spec, _invwishart_route(algorithm), counter).draw(rng, counter)


def rwishart(rng, spec, counter=None):
    """One Wishart draw (full matrix or factor) from a covariance-side
    scale: setup plus one draw."""
    return prepare(spec, WISHART, counter).draw(rng, counter)


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
