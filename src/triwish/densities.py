"""Unnormalized log-density kernels and change-of-variables Jacobians.

All kernels are defined up to an additive constant that is independent of
the random argument (normalization constants are out of scope); tests and
callers should compare differences of kernel values, never absolute
values.  Traces of the form tr(S^-1 X) are evaluated through one LAPACK
triangular solve (``dtrtrs``) against the scale's Cholesky factor, never
through an explicit dense inverse, and log-determinants are read from the
diagonal of the Cholesky factor the kernel already holds.

Notation: for dimension m and degrees of freedom n, a Wishart matrix A has
kernel exp(-tr(Sigma^-1 A)/2) det(A)^((n-m-1)/2) and an inverse-Wishart
matrix B has kernel exp(-tr(Omega B^-1)/2) det(B)^(-(n+m+1)/2), with Omega
the precision-side scale.  The factor-level kernels below are their
pushforwards through the upper-Cholesky map, whose Jacobian is
:func:`logjac_chol`.
"""

import math

import numpy as np
from scipy.linalg import lapack

from .errors import DimensionMismatch, SingularMatrix
from .linalg import as_square, check_cholesky_factor, chol_upper
from .samplers import _check_df


def _check_point(x, u, n):
    # m of the point x, after checking it against the scale factor u and n.
    if len(x) != len(u):
        raise DimensionMismatch(f"point is {len(x)}x{len(x)}, scale factor {len(u)}x{len(u)}")
    _check_df(len(x), n)
    return len(x)


def _right_div_upper(a, u):
    # a @ inv(u), u upper-triangular: solve_triangular's dtrtrs call without its re-checks,
    # on u when it is Fortran-ordered and otherwise on u.T, the same factor stored lower.
    fortran = u.flags.f_contiguous
    x, info = lapack.dtrtrs(u if fortran else u.T, a.T, lower=not fortran, trans=fortran)
    if info != 0:
        raise SingularMatrix(f"dtrtrs: triangular solve failed (info {info})")
    return x.T


def logkernel_wishart(a, n, u_sigma):
    """Wishart log kernel of the matrix A given the covariance factor.

    Computes -tr(Sigma^-1 A)/2 + ((n-m-1)/2) log det A, factoring A to get
    both the trace (as the squared Frobenius norm of U_A U_Sigma^-1) and
    the log determinant.  Raises NotPositiveDefinite off support and
    InvalidParameter for a non-finite A.
    """
    a = as_square(a)
    u_sigma = check_cholesky_factor(u_sigma, "covariance factor")
    m = _check_point(a, u_sigma, n)
    u_a = chol_upper(a)
    ratio = _right_div_upper(u_a, u_sigma)
    logdet_a = 2.0 * float(np.sum(np.log(u_a.diagonal())))
    return -0.5 * float(np.sum(ratio * ratio)) + 0.5 * (n - m - 1) * logdet_a


def logkernel_invwishart(b, n, u_omega):
    """Inverse-Wishart log kernel of the matrix B given the precision factor.

    Computes -tr(Omega B^-1)/2 - ((n+m+1)/2) log det B via the Cholesky
    factor of B and a triangular solve.
    """
    b = as_square(b)
    u_omega = check_cholesky_factor(u_omega, "precision factor")
    m = _check_point(b, u_omega, n)
    u_b = chol_upper(b)
    ratio = _right_div_upper(u_omega, u_b)
    logdet_b = 2.0 * float(np.sum(np.log(u_b.diagonal())))
    return -0.5 * float(np.sum(ratio * ratio)) - 0.5 * (n + m + 1) * logdet_b


def logkernel_cholwishart(u_a, n, u_sigma):
    """Log kernel of the upper Cholesky factor of a Wishart matrix.

    -||U_A U_Sigma^-1||^2 / 2 + sum_j (n - j) log (u_A)_jj with j = 1..m.
    """
    u_a = check_cholesky_factor(u_a, "factor")
    u_sigma = check_cholesky_factor(u_sigma, "covariance factor")
    m = _check_point(u_a, u_sigma, n)
    ratio = _right_div_upper(u_a, u_sigma)
    j = np.arange(1, m + 1)
    return -0.5 * float(np.sum(ratio * ratio)) + float(np.sum((n - j) * np.log(u_a.diagonal())))


def logkernel_cholinvwishart(u_b, n, u_omega):
    """Log kernel of the upper Cholesky factor of an inverse-Wishart matrix.

    -||U_Omega U_B^-1||^2 / 2 - sum_j (n + j) log (u_B)_jj with j = 1..m.
    """
    u_b = check_cholesky_factor(u_b, "factor")
    u_omega = check_cholesky_factor(u_omega, "precision factor")
    m = _check_point(u_b, u_omega, n)
    ratio = _right_div_upper(u_omega, u_b)
    j = np.arange(1, m + 1)
    return -0.5 * float(np.sum(ratio * ratio)) - float(np.sum((n + j) * np.log(u_b.diagonal())))


def logjac_chol(t):
    """Log Jacobian determinant of the map T -> T^T T on triangular coordinates.

    Equals m log 2 + sum_j (m + 1 - j) log t_jj; this is the density
    correction between a matrix-level kernel and its factor-level kernel.
    """
    t = check_cholesky_factor(t, "factor")
    m = t.shape[0]
    j = np.arange(1, m + 1)
    return m * math.log(2.0) + float(np.sum((m + 1 - j) * np.log(t.diagonal())))


def logjac_tri_inverse(r):
    """Log |Jacobian determinant| of triangular inversion R -> R^-1.

    Equals -(m + 1) sum_j log |r_jj|, independent of the off-diagonal
    entries.  Raises SingularMatrix on a zero diagonal.
    """
    d = as_square(r).diagonal()
    zero = d == 0.0
    if zero.any():
        raise SingularMatrix(f"zero diagonal entry {int(zero.argmax()) + 1}: determinant is zero")
    return -(len(d) + 1) * float(np.sum(np.log(np.abs(d))))
