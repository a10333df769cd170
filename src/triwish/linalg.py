"""Counted O(m^3) matrix kernels and the checks at their entry.

The module holds :class:`OpCounter`, the entry checks (:func:`as_square`,
:func:`check_cholesky_factor`, :func:`check_symmetric`) and five kernels,
thin wrappers over LAPACK's POTRF/TRTRI and BLAS's TRMM: :func:`chol_upper`,
:func:`tri_inverse`, :func:`tri_mul`, and the gram products :func:`gram_ut`
and :func:`gram_vt`, which share one mirror.  Every kernel call increments
exactly one field of the supplied :class:`OpCounter`.  Matrices are float64
(m, m) arrays; upper-triangular ones store explicit zeros below the
diagonal.  The kernels accept any memory layout and return arrays in
Fortran (column-major) order, the layout LAPACK and BLAS work in; a
C-ordered operand costs a transposing copy before the call.

Ownership: ``owned=False``, the default, is for matrices from outside the
library: the wrappers check them (shape, finite entries, symmetry for the
Cholesky input) and leave them untouched.  Setup and draws pass the
library's own matrices, checked once where they entered and in Fortran
order, with ``owned=True``: no checks, and LAPACK/BLAS overwrite them in
place, so a scale or a plan's factor goes in as a copy.  A draw's fill is
in the per-thread workspace of :mod:`triwish.samplers`, which
:func:`aligned_empty` allocates on a 64-byte boundary and which holds every
TRTRI operand: OpenBLAS's TRTRI is about 30% slower on an operand that
starts elsewhere (m = 200, SkylakeX kernels), with the same bits.  The draw
is made in its own array, a copy of the plan's factor that TRMM and the
gram products overwrite.  What a setup or a draw returns is always a new
array, never the workspace.

Counting convention: forming the symmetric products U^T U and V V^T each
counts as one TRMM call (an actual LAPACK build might use LAUUM or SYRK
instead, but the cost model here books them under TRMM).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import blas, lapack

from .errors import DimensionMismatch, InvalidParameter, NotPositiveDefinite, SingularMatrix

# Symmetry tolerance for Cholesky input: the upper triangle is authoritative,
# the lower triangle may deviate by round-off up to this relative amount.
SYMMETRY_RTOL = 1e-8

# Byte boundary on which aligned_empty starts its arrays: a cache line, and
# the width of an AVX-512 register.
ALIGNMENT = 64


@dataclass
class OpCounter:
    """Tally of O(m^3) kernel invocations during a sampling call."""

    potrf: int = 0
    trtri: int = 0
    trmm: int = 0

    def as_dict(self):
        return {"potrf": self.potrf, "trtri": self.trtri, "trmm": self.trmm}

    def total(self):
        return self.potrf + self.trtri + self.trmm


def aligned_empty(shape):
    """Uninitialized C-ordered float64 array of ``shape`` whose data starts
    on an ALIGNMENT-byte boundary."""
    size = math.prod(shape) * 8
    raw = np.empty(size + ALIGNMENT, dtype=np.uint8)
    start = -raw.ctypes.data % ALIGNMENT
    return raw[start:start + size].view(np.float64).reshape(shape)


def as_square(x):
    """Coerce to a float64 (m, m) array; raise DimensionMismatch otherwise."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


@lru_cache(maxsize=32)
def _strictly_lower(m):
    # True strictly below the diagonal: the entries np.triu(x) zeroes.
    mask = np.tri(m, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def check_cholesky_factor(u, name="factor"):
    """An upper-triangular matrix with finite entries and a strictly positive diagonal."""
    u = as_square(u)
    if not np.isfinite(u).all():
        raise InvalidParameter(f"{name} has non-finite entries")
    if u[_strictly_lower(u.shape[0])].any():
        raise InvalidParameter(f"{name} has nonzero entries below the diagonal")
    bad = u.diagonal() <= 0.0
    if bad.any():
        raise InvalidParameter(f"{name} diagonal entry {int(bad.argmax()) + 1} is not positive")
    return u


def check_symmetric(x, name="matrix"):
    """A square matrix with finite entries, symmetric to within SYMMETRY_RTOL."""
    x = as_square(x)
    if not np.isfinite(x).all():
        raise InvalidParameter(f"{name} has non-finite entries")
    # An exactly symmetric matrix passes without the tolerance test's
    # temporaries.
    if not np.array_equal(x, x.T):
        asym = np.abs(x - x.T).max()
        if asym > SYMMETRY_RTOL * max(np.abs(x).max(), 1e-300):
            raise InvalidParameter(
                f"matrix is not symmetric: max |x_ij - x_ji| = {asym:g} "
                f"exceeds {SYMMETRY_RTOL:g} * max|x_ij|"
            )
    return x


def chol_upper(x, counter=None, *, owned=False):
    """Upper Cholesky factor U of a positive definite X, with X = U^T U.

    X must be finite and symmetric to within SYMMETRY_RTOL (the upper
    triangle is the authority; only it is read by the factorization), or
    InvalidParameter is raised.  Counts one POTRF.  With ``owned`` (see the
    module docstring) U overwrites X.

    Raises NotPositiveDefinite if a pivot is non-positive or non-finite;
    the 1-based index of the failing pivot is attached to the exception.
    """
    if not owned:
        x = check_symmetric(x)
    if counter is not None:
        counter.potrf += 1
    u, info = lapack.dpotrf(x, lower=0, overwrite_a=owned)
    if info > 0:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (pivot {info} failed)", pivot=info
        )
    if info < 0:  # pragma: no cover - argument errors cannot occur here
        raise InvalidParameter(f"dpotrf: illegal argument {-info}")
    return u


def tri_inverse(u, counter=None, *, owned=False):
    """Inverse of an upper-triangular matrix.  Counts one TRTRI.

    With ``owned`` (see the module docstring) the inverse overwrites u.  A
    zero diagonal entry raises SingularMatrix, and so does an inverse that
    overflows, with or without ``owned``.
    """
    if not owned:
        u = as_square(u)
        # Array methods: np.diag and np.any cost more than the m=1 kernel.
        zero = u.diagonal() == 0.0
        if zero.any():
            raise SingularMatrix(
                f"triangular matrix has zero diagonal entry {int(zero.argmax()) + 1}")
    if counter is not None:
        counter.trtri += 1
    r, info = lapack.dtrtri(u, lower=0, overwrite_c=owned)
    if info > 0:
        raise SingularMatrix(f"triangular matrix is singular at diagonal entry {info}")
    if not np.isfinite(r).all():
        raise SingularMatrix("triangular inverse overflowed to non-finite values")
    return r


def tri_mul(c, x, counter=None, *, owned=False):
    """Product C @ X of two upper-triangular matrices.  Counts one TRMM.

    With ``owned`` (see the module docstring) the product overwrites x;
    c is only read.
    """
    if not owned:
        c = as_square(c)
        x = as_square(x)
        if c.shape != x.shape:
            raise DimensionMismatch(f"cannot multiply shapes {c.shape} and {x.shape}")
    if counter is not None:
        counter.trmm += 1
    return blas.dtrmm(1.0, c, x, side=0, lower=0, trans_a=0, overwrite_b=owned)


_PANEL = 64


def _mirror_upper(raw, mirror=True):
    """Overwrite raw with ``np.triu(raw) + np.triu(raw, 1).T``, bit for bit.

    Each entry of that sum adds 0.0 to the kept entry, which turns -0.0
    into +0.0; adding 0.0 in place here does the same.  The lower triangle
    is written one panel of _PANEL columns at a time, so no temporary
    exceeds a panel: a whole-matrix temporary (320 KB at m = 200) kept
    landing on freshly mapped pages.  The masks are cached: building them
    dominated the symmetrizing step at small m.  Without ``mirror`` only
    the 0.0 is added and the lower triangle is left as it is.
    """
    m = raw.shape[0]
    if mirror:
        for j in range(0, m, _PANEL):
            e = min(j + _PANEL, m)
            if e < m:
                raw[e:, j:e] = raw[j:e, e:].T
            block = raw[j:e, j:e]
            np.copyto(block, block.T, where=_strictly_lower(e - j))
    raw += 0.0
    return raw


def gram_ut(u, counter=None, *, owned=False, b=None):
    """Symmetric product U^T U, exactly symmetric by construction.

    The upper triangle of the BLAS result is mirrored onto the lower so the
    output is bitwise symmetric.  Counts one TRMM (see module docstring).
    U is both operands of the TRMM, which overwrites its second one, so
    that one is a new copy; with ``owned``, ``b`` may instead be a
    Fortran-ordered float64 copy of U in other memory, which the product
    then overwrites.  Without ``owned``, a ``b`` raises InvalidParameter.
    """
    if not owned:
        if b is not None:
            raise InvalidParameter("b is for owned operands only")
        u = as_square(u)
    if counter is not None:
        counter.trmm += 1
    product = blas.dtrmm(1.0, u, u if b is None else b, side=0, lower=0, trans_a=1,
                         overwrite_b=b is not None)
    return _mirror_upper(product)


def gram_vt(v, counter=None, *, owned=False, mirror=True, b=None):
    """Symmetric product V V^T, exactly symmetric by construction.

    Counts one TRMM, matching the cost model of :func:`gram_ut`; ``owned``
    and ``b`` as there.  ``mirror=False``, likewise with ``owned`` only, is
    for a product that goes straight into :func:`chol_upper`, which reads
    only the upper triangle: the lower one is then left as the TRMM wrote it.
    """
    if not owned:
        if b is not None or not mirror:
            raise InvalidParameter("b and mirror=False are for owned operands only")
        v = as_square(v)
    if counter is not None:
        counter.trmm += 1
    product = blas.dtrmm(1.0, v, v if b is None else b, side=1, lower=0, trans_a=1,
                         overwrite_b=b is not None)
    return _mirror_upper(product, mirror)
