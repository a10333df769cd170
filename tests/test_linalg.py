"""Instrumented triangular kernels against hand-worked and naive-loop oracles."""

import os
import subprocess
import sys

import numpy as np
import pytest

import triwish

from triwish import linalg
from triwish.errors import (
    DimensionMismatch,
    InvalidParameter,
    NotPositiveDefinite,
    SingularMatrix,
)
from triwish.linalg import (
    OpCounter,
    chol_upper,
    gram_ut,
    gram_vt,
    tri_inverse,
    tri_mul,
)


def test_kernels_are_scipy_linalgs_own_functions():
    # linalg loads scipy's _flapack and _fblas from their files; CPython
    # reuses a single-phase extension's first load, so the kernels are the
    # very objects scipy.linalg exposes, whichever is imported first.
    import scipy.linalg

    for name in ("dpotrf", "dtrtri", "dtrtrs"):
        assert getattr(linalg.lapack, name) is getattr(scipy.linalg.lapack, name)
    assert linalg.blas.dtrmm is scipy.linalg.blas.dtrmm


def test_a_missing_scipy_extension_raises_import_error_naming_it():
    with pytest.raises(ImportError, match="^scipy has no compiled module scipy.linalg._nosuch$"):
        linalg._scipy_linalg_extension("_nosuch")


def test_importing_and_using_triwish_leaves_scipy_linalg_unloaded():
    # A fresh interpreter, since this process may already hold scipy.linalg.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import triwish as t\n"
        "spec = t.SamplerSpec(4, 6.5, t.ScaleParam(np.eye(4), iscov=False))\n"
        "b = t.sample_invwishart(t.RngStream(1), spec, 'direct')\n"
        "assert np.isfinite(t.logkernel_invwishart(b, 6.5, np.eye(4)))\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy._lib._array_api') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(triwish.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_check_cholesky_factor_reads_only_below_the_diagonal():
    u = np.array([[1.0, 2.0, 3.0], [-0.0, 4.0, 5.0], [-0.0, -0.0, 6.0]])
    assert linalg.check_cholesky_factor(u) is u
    assert linalg.check_cholesky_factor(np.array([[2.0]])).shape == (1, 1)
    for i, j in ((1, 0), (2, 0), (2, 1)):
        bad = np.triu(u)
        bad[i, j] = 5e-324
        with pytest.raises(InvalidParameter, match="^U has nonzero entries below the diagonal$"):
            linalg.check_cholesky_factor(bad, "U")
    bad = np.triu(u)
    bad[2, 0] = np.nan
    with pytest.raises(InvalidParameter, match="^U has non-finite entries$"):
        linalg.check_cholesky_factor(bad, "U")
    bad = np.triu(u)
    bad[1, 1] = -0.0
    with pytest.raises(InvalidParameter, match="^U diagonal entry 2 is not positive$"):
        linalg.check_cholesky_factor(bad, "U")


def test_chol_upper_identity():
    np.testing.assert_array_equal(chol_upper(np.eye(3)), np.eye(3))


def test_chol_upper_hand_example():
    u = chol_upper(np.array([[4.0, 2.0], [2.0, 5.0]]))
    np.testing.assert_allclose(u, [[2.0, 1.0], [0.0, 2.0]], atol=1e-14)
    np.testing.assert_allclose(u.T @ u, [[4.0, 2.0], [2.0, 5.0]], atol=1e-14)


def test_chol_upper_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite) as exc:
        chol_upper(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert exc.value.pivot == 2


def test_chol_upper_rejects_asymmetric():
    x = np.array([[4.0, 2.0], [1.0, 5.0]])
    with pytest.raises(InvalidParameter):
        chol_upper(x)


def test_chol_upper_rejects_nonfinite():
    with pytest.raises(InvalidParameter, match="^matrix has non-finite entries$"):
        chol_upper(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_tri_inverse_identity():
    np.testing.assert_array_equal(tri_inverse(np.eye(4)), np.eye(4))


def test_tri_inverse_hand_example():
    r = tri_inverse(np.array([[2.0, 1.0], [0.0, 4.0]]))
    np.testing.assert_allclose(r, [[0.5, -0.125], [0.0, 0.25]], atol=1e-15)
    np.testing.assert_allclose(r @ np.array([[2.0, 1.0], [0.0, 4.0]]), np.eye(2), atol=1e-14)


def test_tri_inverse_zero_diagonal():
    with pytest.raises(SingularMatrix):
        tri_inverse(np.array([[1.0, 5.0], [0.0, 0.0]]))


def test_tri_mul_identity():
    u = np.array([[2.0, 1.0], [0.0, 4.0]])
    np.testing.assert_array_equal(tri_mul(np.eye(2), u), u)


def test_tri_mul_hand_example():
    c = np.array([[1.0, 1.0], [0.0, 1.0]])
    x = np.array([[2.0, 0.0], [0.0, 3.0]])
    np.testing.assert_allclose(tri_mul(c, x), [[2.0, 3.0], [0.0, 3.0]], atol=1e-15)


def test_tri_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        tri_mul(np.eye(2), np.eye(3))


def test_gram_ut_examples():
    np.testing.assert_array_equal(gram_ut(np.eye(2)), np.eye(2))
    np.testing.assert_allclose(
        gram_ut(np.array([[2.0, 1.0], [0.0, 2.0]])), [[4.0, 2.0], [2.0, 5.0]], atol=1e-15
    )
    np.testing.assert_allclose(
        gram_ut(np.array([[1.0, 0.0], [0.0, 3.0]])), [[1.0, 0.0], [0.0, 9.0]], atol=1e-15
    )


def test_gram_vt_examples():
    np.testing.assert_array_equal(gram_vt(np.eye(2)), np.eye(2))
    np.testing.assert_allclose(
        gram_vt(np.array([[2.0, 1.0], [0.0, 2.0]])), [[5.0, 2.0], [2.0, 4.0]], atol=1e-15
    )
    np.testing.assert_allclose(gram_vt(np.array([[3.0]])), [[9.0]], atol=1e-15)


def test_gram_outputs_exactly_symmetric():
    rng = np.random.default_rng(5)
    for m in (1, 2, 5, 9):
        u = np.triu(rng.standard_normal((m, m)))
        a = gram_ut(u)
        b = gram_vt(u)
        assert np.array_equal(a, a.T)
        assert np.array_equal(b, b.T)


def test_gram_symmetrization_matches_triu_reference_bits():
    # The mirrored output must equal np.triu(raw) + np.triu(raw, 1).T bit
    # for bit, signed zeros included.
    from scipy.linalg import blas

    rng = np.random.default_rng(17)
    for m in (1, 2, 4, 7, 33, 64, 65, 130):
        u = np.triu(rng.standard_normal((m, m)))
        u[0, 0] = -0.0
        for got, raw in (
            (gram_ut(u), blas.dtrmm(1.0, u, u, side=0, lower=0, trans_a=1)),
            (gram_vt(u), blas.dtrmm(1.0, u, u, side=1, lower=0, trans_a=1)),
        ):
            assert got.tobytes() == (np.triu(raw) + np.triu(raw, 1).T).tobytes()


def test_mirror_matches_the_two_pass_expression_bits():
    # The one-pass mirror against np.triu(raw) + np.triu(raw, 1).T and the
    # two masked copies it replaced, on signed zeros, a signed NaN and
    # infinities in both triangles.
    raw = np.arange(1.0, 26.0).reshape(5, 5)
    raw[0, 0] = raw[1, 3] = raw[3, 1] = -0.0
    raw[0, 2], raw[2, 0] = np.nan, -np.nan
    raw[1, 1], raw[1, 4], raw[4, 1] = -np.inf, np.inf, -np.inf
    raw[2, 4] = -np.nan
    got = linalg._mirror_upper(raw.copy()).tobytes()
    assert got == (np.triu(raw) + np.triu(raw, 1).T).tobytes()
    two_pass = (np.where(np.tri(5, k=-1, dtype=bool), 0.0, raw)
                + np.where(np.tri(5, k=0, dtype=bool), 0.0, raw).T)
    assert got == two_pass.tobytes()
    assert np.signbit(linalg._mirror_upper(raw)[[0, 1, 3], [0, 3, 1]]).tolist() == [False] * 3
    assert raw.tobytes() == got  # in place


def test_mirror_matches_the_two_pass_expression_bits_across_panels():
    # Three panels of columns, each order, with special values in every
    # panel pair.
    rng = np.random.default_rng(3)
    m = 2 * linalg._PANEL + 7
    raw = rng.standard_normal((m, m))
    at = rng.integers(0, m, size=(60, 2))
    raw[at[:20, 0], at[:20, 1]] = -0.0
    raw[at[20:40, 0], at[20:40, 1]] = -np.nan
    raw[at[40:, 0], at[40:, 1]] = -np.inf
    want = (np.triu(raw) + np.triu(raw, 1).T).tobytes()
    for order in "CF":
        assert linalg._mirror_upper(np.array(raw, order=order)).tobytes() == want


def test_gram_ut_matches_naive_triple_loop():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3, 6, 8):
        u = np.triu(rng.standard_normal((m, m)))
        naive = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    naive[i, j] += u[k, i] * u[k, j]
        got = gram_ut(u)
        scale = max(np.abs(naive).max(), 1.0)
        assert np.max(np.abs(got - naive)) <= 1e-14 * scale


def test_chol_reconstructs_random_spd():
    rng = np.random.default_rng(17)
    for m in range(1, 31):
        g = rng.standard_normal((m, m))
        x = g.T @ g + m * np.eye(m)
        u = chol_upper(x)
        err = np.linalg.norm(u.T @ u - x) / np.linalg.norm(x)
        assert err < 1e-10
        assert np.all(np.diag(u) > 0)
        assert np.array_equal(u, np.triu(u))


def test_tri_inverse_involution():
    rng = np.random.default_rng(23)
    for m in (1, 3, 7, 15):
        g = rng.standard_normal((m, m))
        u = chol_upper(g.T @ g + m * np.eye(m))
        back = tri_inverse(tri_inverse(u))
        assert np.linalg.norm(back - u) / np.linalg.norm(u) < 1e-10


def test_tri_mul_associative():
    rng = np.random.default_rng(29)
    for m in (2, 4, 8):
        a, b, c = (np.triu(rng.standard_normal((m, m))) for _ in range(3))
        left = tri_mul(tri_mul(a, b), c)
        right = tri_mul(a, tri_mul(b, c))
        scale = max(np.linalg.norm(left), 1.0)
        assert np.linalg.norm(left - right) / scale < 1e-12


def test_counter_discipline():
    # Every kernel bumps exactly one field by exactly one.
    u = chol_upper(np.array([[4.0, 2.0], [2.0, 5.0]]))
    cases = [
        (lambda c: chol_upper(np.array([[4.0, 2.0], [2.0, 5.0]]), counter=c), "potrf"),
        (lambda c: tri_inverse(u, counter=c), "trtri"),
        (lambda c: tri_mul(u, u, counter=c), "trmm"),
        (lambda c: gram_ut(u, counter=c), "trmm"),
        (lambda c: gram_vt(u, counter=c), "trmm"),
    ]
    for call, fieldname in cases:
        counter = OpCounter()
        call(counter)
        assert counter.total() == 1
        assert getattr(counter, fieldname) == 1


def test_counter_optional():
    # Passing no counter is allowed everywhere.
    u = chol_upper(np.array([[4.0, 2.0], [2.0, 5.0]]))
    tri_inverse(u)
    tri_mul(u, u)
    gram_ut(u)
    gram_vt(u)


def _operands(order):
    spd = np.array([[4.0, 2.0, 0.4], [2.0, 5.0, 1.0], [0.4, 1.0, 3.0]], order=order)
    tri = np.array(np.triu(spd), order=order)
    return spd, tri


PUBLIC_CALLS = {
    "chol_upper": lambda spd, tri: chol_upper(spd),
    "tri_inverse": lambda spd, tri: tri_inverse(tri),
    "tri_mul": lambda spd, tri: tri_mul(tri, tri),
    "gram_ut": lambda spd, tri: gram_ut(tri),
    "gram_vt": lambda spd, tri: gram_vt(tri),
}


@pytest.mark.parametrize("order", "CF")
@pytest.mark.parametrize("name", sorted(PUBLIC_CALLS))
def test_public_calls_leave_inputs_untouched(name, order):
    spd, tri = _operands(order)
    before = spd.tobytes(), tri.tobytes()
    out = PUBLIC_CALLS[name](spd, tri)
    assert (spd.tobytes(), tri.tobytes()) == before
    assert not np.shares_memory(out, spd) and not np.shares_memory(out, tri)
    # Each order gives the same bits.
    assert out.tobytes() == PUBLIC_CALLS[name](*_operands("C" if order == "F" else "F")).tobytes()


@pytest.mark.parametrize("order", "CF")
def test_public_calls_keep_their_input_checks(order):
    spd, tri = _operands(order)
    with pytest.raises(DimensionMismatch):
        chol_upper(np.ones((2, 3), order=order))
    with pytest.raises(DimensionMismatch):
        tri_inverse(np.ones((2, 3), order=order))
    with pytest.raises(DimensionMismatch):
        tri_mul(tri, np.eye(2, order=order))
    for gram in (gram_ut, gram_vt):
        with pytest.raises(DimensionMismatch):
            gram(np.ones(3))
    bad = spd.copy(order="K")
    bad[1, 1] = np.inf
    with pytest.raises(InvalidParameter, match="non-finite"):
        chol_upper(bad)
    asym = spd.copy(order="K")
    asym[0, 2] += 1e-3
    with pytest.raises(InvalidParameter, match="not symmetric"):
        chol_upper(asym)
    singular = tri.copy(order="K")
    singular[1, 1] = 0.0
    with pytest.raises(SingularMatrix, match="zero diagonal entry 2"):
        tri_inverse(singular)


def test_owned_calls_work_in_place_and_match_public_bits():
    spd, tri = _operands("F")
    for name, owned_call, operand in (
        ("chol_upper", lambda x: chol_upper(x, owned=True), spd),
        ("tri_inverse", lambda x: tri_inverse(x, owned=True), tri),
        ("tri_mul", lambda x: tri_mul(tri, x, owned=True), tri),
    ):
        want = PUBLIC_CALLS[name](spd, tri).tobytes()
        x = operand.copy(order="F")
        out = owned_call(x)
        assert np.shares_memory(out, x), name
        assert out.tobytes() == want, name
    for gram in (gram_ut, gram_vt):
        x = tri.copy(order="F")
        assert gram(x, owned=True).tobytes() == gram(tri).tobytes()
        assert x.tobytes() == tri.tobytes()  # TRMM reads u twice; it stays
        b = tri.copy(order="F")
        out = gram(x, owned=True, b=b)
        assert np.shares_memory(out, b) and out.tobytes() == gram(tri).tobytes()
        assert x.tobytes() == tri.tobytes()


def test_opcounter_helpers():
    c = OpCounter(potrf=2, trtri=1, trmm=3)
    assert c.as_dict() == {"potrf": 2, "trtri": 1, "trmm": 3}
    assert c.total() == 6
    assert OpCounter() == OpCounter(0, 0, 0)


def test_aligned_empty_starts_on_the_boundary():
    for shape in ((1, 1), (3, 5), (1, 7, 7), (4, 6, 6), (200, 200)):
        a = linalg.aligned_empty(shape)
        assert a.ctypes.data % linalg.ALIGNMENT == 0
        assert a.shape == shape and a.dtype == np.float64 and a.flags.carray


def test_unmirrored_gram_gives_the_mirrored_gram_s_factor():
    # chol_upper reads only the upper triangle, which mirror=False still
    # passes through the += 0.0 that turns -0.0 into +0.0.
    raw = np.array([[-0.0, 1.5, -0.0], [-0.0, 2.0, np.nan], [7.0, -0.0, -np.inf]])
    got = linalg._mirror_upper(raw.copy(order="F"), mirror=False)
    assert np.triu(got).tobytes() == np.triu(linalg._mirror_upper(raw.copy())).tobytes()
    assert np.tril(got, -1).tobytes() == (np.tril(raw, -1) + 0.0).tobytes()
    rng = np.random.default_rng(23)
    for m in (1, 2, 5, 2 * linalg._PANEL + 3):
        v = np.triu(rng.standard_normal((m, m))) + m * np.eye(m)
        half = gram_vt(v.copy(order="F"), owned=True, mirror=False)
        full = gram_vt(v)
        assert np.triu(half).tobytes() == np.triu(full).tobytes()
        counter = OpCounter()
        got = chol_upper(gram_vt(v, counter, owned=True, mirror=False), counter, owned=True)
        assert got.tobytes() == chol_upper(full).tobytes()
        assert counter.as_dict() == {"potrf": 1, "trtri": 0, "trmm": 1}


def test_gram_output_options_are_for_owned_operands_only():
    # A b that is u itself would have TRMM overwrite the operand it reads,
    # and mirror=False leaves the lower triangle unsymmetrized, so neither
    # reaches the kernel from a caller's matrix.
    u = np.asfortranarray(np.triu(np.arange(1.0, 10.0).reshape(3, 3)))
    kept = u.tobytes()
    for call in (lambda: gram_ut(u, b=u), lambda: gram_vt(u, b=u),
                 lambda: gram_ut(u, b=u.copy(order="F")), lambda: gram_vt(u, mirror=False)):
        with pytest.raises(InvalidParameter, match="owned"):
            call()
    assert u.tobytes() == kept
