"""The four log kernels and the two log Jacobians pinned to stored bits.

``tests/data/golden_density_v1.json`` was generated once, by running this
module as a script (it refuses to overwrite the file without ``--force``):

    PYTHONPATH=src python tests/test_golden_density.py

It maps one key per evaluation to the ``float.hex`` of the value: each
kernel at every m in ``GOLDEN_M`` with the point and the scale factor each
in C and in Fortran order, each Jacobian on a factor in both orders, and
``logjac_tri_inverse`` on a factor with a negative diagonal entry.  The
inputs are dyadic rationals and the matrix points are their exact products
U^T U, so the inputs are the same on every platform; the values pass
through LAPACK (``dpotrf``, ``dtrtrs``), so their bits are exact only on
the platform where the file was made.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from triwish.densities import (
    logjac_chol,
    logjac_tri_inverse,
    logkernel_cholinvwishart,
    logkernel_cholwishart,
    logkernel_invwishart,
    logkernel_wishart,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_density_v1.json"
GOLDEN_M = (1, 2, 4, 13, 50)
ORDERS = {"C": np.ascontiguousarray, "F": np.asfortranarray}
# Kernel -> whether its point is a full matrix (True) or a factor (False).
KERNELS = {
    logkernel_wishart: True,
    logkernel_invwishart: True,
    logkernel_cholwishart: False,
    logkernel_cholinvwishart: False,
}
JACOBIANS = (logjac_chol, logjac_tri_inverse)


def dyadic_factor(m, c):
    """Upper-triangular factor with entries k/64 and a diagonal in [1, 1.75].

    Every product and sum in U^T U is a multiple of 2^-12 well below 2^40,
    so any BLAS forms it exactly.
    """
    i, j = np.indices((m, m))
    u = np.triu(((3 * i + 7 * j + c) % 11 - 5) / 64.0, 1)
    u[np.diag_indices(m)] = 1.0 + ((5 * np.arange(m) + c) % 7) / 8.0
    return u


def _n(m):
    return m + 1.5


def golden_density_record():
    """Recompute every value ``golden_density_v1.json`` pins, by key."""
    record = {}
    for m in GOLDEN_M:
        u_point, u_scale = dyadic_factor(m, 1), dyadic_factor(m, 4)
        for kernel, full in KERNELS.items():
            point = u_point.T @ u_point if full else u_point
            for p_order, p_layout in ORDERS.items():
                for s_order, s_layout in ORDERS.items():
                    key = f"{kernel.__name__} m={m} point={p_order} factor={s_order}"
                    value = kernel(p_layout(point), _n(m), s_layout(u_scale))
                    record[key] = value.hex()
        for jacobian in JACOBIANS:
            for order, layout in ORDERS.items():
                record[f"{jacobian.__name__} m={m} order={order}"] = jacobian(layout(u_point)).hex()
    r = dyadic_factor(4, 2)
    r[2, 2] = -r[2, 2]
    for order, layout in ORDERS.items():
        record[f"logjac_tri_inverse m=4 negative-diagonal order={order}"] = (
            logjac_tri_inverse(layout(r)).hex()
        )
    return record


def test_dyadic_points_are_exact():
    for m in GOLDEN_M:
        u = dyadic_factor(m, 1)
        exact = [[sum(float(u[k, a]) * float(u[k, b]) for k in range(m)) for b in range(m)]
                 for a in range(m)]
        assert (u.T @ u).tolist() == exact


@pytest.mark.parametrize("name", [k.__name__ for k in KERNELS] + [j.__name__ for j in JACOBIANS])
def test_log_kernels_match_golden_bits(name):
    stored = json.loads(GOLDEN.read_text())
    got = golden_density_record()
    keys = [key for key in stored if key.split()[0] == name]
    assert keys
    assert {key: got[key] for key in keys} == {key: stored[key] for key in keys}
    assert got.keys() == stored.keys()


if __name__ == "__main__":
    if GOLDEN.exists() and "--force" not in sys.argv[1:]:
        sys.exit(f"{GOLDEN.name} exists; pass --force to overwrite it")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_density_record(), indent=1, sort_keys=True) + "\n")
