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

Workspace: each thread keeps one reused m x m float64 buffer for the last
m it drew at, allocated by :func:`triwish.linalg.aligned_empty` on a 64-byte
boundary.  Every draw places its matrices by one rule: the fill is in the
workspace, and the draw is made in its own array, which starts as a copy
of the plan's factor.  The direct route inverts the fill in place (TRTRI);
TRMM multiplies the draw's array in place by the fill or its inverse; the
indirect route copies that product to the workspace and inverts it there;
and each gram product reads the workspace and overwrites the draw's array.
In setup the workspace holds the scale factor that
:func:`cholesky_upper_param` inverts.  So a draw allocates only what it
returns (and a setup its plan's factor), every TRTRI gets an aligned
operand, and repeated draws touch the same pages instead of fresh ones.
The buffer keeps 8 m^2 bytes alive per thread (0.32 MB at m = 200, 5.1 MB
at m = 800) until the thread draws at another m.  No returned matrix is,
or shares memory with, the workspace.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDegreesOfFreedom, InvalidParameter, NumericalFailure
from .linalg import (
    OpCounter,
    aligned_empty,
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
# s = 1.0.  A single fill is written into ``out``, a (1, m, m) array as
# :func:`triwish.rng.bartlett_fills` takes it, when one is given.


def draw_bartlett_wishart(rng, m, n, out=None):
    """Bartlett factor Z with Z ~ CholeskyWishart(n, identity).

    Column j gets j-1 standard normals above a chi_(n+1-j) diagonal entry,
    in the documented draw order.
    """
    m = _check_fill_args(m, n)
    return bartlett_fills(rng, m, 1, n + 1, -1.0, out)[0]


def draw_bartlett_invwishart(rng, m, n, out=None):
    """Factor Z whose inverse is ~ CholeskyInverseWishart(n, identity).

    Identical draw order to :func:`draw_bartlett_wishart`; the diagonal of
    column j uses chi_(n-m+j) instead.
    """
    m = _check_fill_args(m, n)
    return bartlett_fills(rng, m, 1, n - m, 1.0, out)[0]


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


class _Workspace:
    """One thread's reused buffer (see the module docstring): ``fills``,
    (1, m, m) in C order as the fill functions take it, and ``matrix``, the
    same memory as the (m, m) Fortran-ordered matrix the kernels take."""

    __slots__ = ("m", "fills", "matrix")

    def __init__(self, m):
        self.m = m
        self.fills = aligned_empty((1, m, m))
        self.matrix = self.fills[0].T


_local = threading.local()


def _workspace(m):
    """This thread's workspace, made anew when the thread last drew at
    another m."""
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.m != m:
        ws = _local.workspace = _Workspace(m)
    return ws


def cholesky_upper_param(scale, invert, counter=None):
    """Upper Cholesky factor of the scale matrix or of its inverse.

    With ``invert`` the factor U of S is inverted (TRTRI), squared into
    S^-1 = (U^-1)(U^-1)^T (TRMM), and re-factorized (POTRF); without it the
    factor is computed directly, or passed through untouched when the scale
    is already a factor.  :class:`ScaleParam` checked the scale; the kernels
    factor and invert a copy of it in place, in this thread's workspace
    when they invert.  The result is a new array in Fortran order, or
    ``scale.matrix`` itself when it is passed through.
    """
    if scale.ischolu and not invert:
        return scale.matrix
    if not invert:
        return chol_upper(scale.matrix.copy(order="F"), counter, owned=True)
    # The factor and its inverse are scratch, so they are made in the
    # workspace; the gram product is the new array.
    u = _workspace(scale.dim).matrix
    u[...] = scale.matrix
    if not scale.ischolu:
        u = chol_upper(u, counter, owned=True)
    u = tri_inverse(u, counter, owned=True)
    return chol_upper(gram_vt(u, counter, owned=True, mirror=False), counter, owned=True)


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
    plan can be drawn from any number of times, from any thread.  Make
    plans with :func:`prepare`.
    """

    spec: SamplerSpec
    algorithm: str
    factor: np.ndarray

    def draw(self, rng, counter=None):
        """One draw: the fill, the route's kernels, then :func:`check_draw`.

        Raises NumericalFailure for a draw that over- or underflowed.
        """
        m, n = self.spec.m, self.spec.n
        ws = _workspace(m)
        fill = draw_bartlett_invwishart if self.algorithm == DIRECT else draw_bartlett_wishart
        fill(rng, m, n, out=ws.fills)
        return self._kernels(ws.matrix, self.factor.copy(order="F"), counter)

    def draw_many(self, rng, k):
        """k draws as a (k, m, m) array, from one batch of k fills: the
        bytes, and the stream position after them, of k calls of :meth:`draw`.

        The workspace rule of :meth:`draw`, with the batch's array as the
        draws' own: fill i is copied to the workspace, its place takes the
        copy of the plan's factor, and the draw made there is written back
        over it in C order, through the spent workspace.  So the batch is
        the one array allocated, and the one returned.  It stays C-ordered,
        each draw's rows contiguous: a log kernel of :mod:`triwish.densities`
        takes a C-ordered factor draw through the lower-stored ``dtrtrs``
        call of ``_right_div_upper``, the call behind the density rows that
        ``golden_cli_v1.json``'s validate digest pins, and an F-ordered one
        through the other call.
        """
        many = draw_bartlett_invwishart_many if self.algorithm == DIRECT else draw_bartlett_wishart_many
        fills = many(rng, self.spec.m, self.spec.n, k)
        draws = fills.transpose(0, 2, 1)
        w = _workspace(self.spec.m).matrix
        for z, draw in zip(fills, draws):
            w[...] = z
            z[...] = self.factor
            w.T[...] = self._kernels(w, z, None)
            draw[...] = w.T
        return draws

    def _kernels(self, w, x, counter):
        # w is the workspace's matrix holding the fill, and x the draw's own
        # array holding a copy of the plan's factor, both in Fortran order;
        # the kernels run in them by the module docstring's Workspace rule.
        # The indirect route inverts the product and squares up, and a full
        # draw of the others squares the product.
        if self.algorithm == DIRECT:
            w = tri_inverse(w, counter, owned=True)
        x = tri_mul(w, x, counter, owned=True)
        retcholu = self.spec.retcholu
        if self.algorithm == INDIRECT:
            w[...] = x
            w = tri_inverse(w, counter, owned=True)
            x[...] = w
            x = gram_vt(w, counter, owned=True, mirror=not retcholu, b=x)
            if retcholu:
                x = chol_upper(x, counter, owned=True)
        elif not retcholu:
            w[...] = x
            x = gram_ut(w, counter, owned=True, b=x)
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
