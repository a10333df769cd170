"""The samplers: draw order, setup and per-draw plans, op counts, and distributions."""

import sys
import threading

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from triwish.errors import (
    DimensionMismatch,
    InvalidDegreesOfFreedom,
    InvalidParameter,
    NumericalFailure,
    TriwishError,
)
from triwish import rng as rng_module
from triwish import linalg, samplers
from triwish.linalg import OpCounter
from triwish.rng import RngStream
from triwish.samplers import (
    AUTO,
    DIRECT,
    EXPECTED_OP_COUNTS,
    INDIRECT,
    WISHART,
    SamplerSpec,
    ScaleParam,
    cholesky_upper_param,
    draw_bartlett_invwishart,
    draw_bartlett_invwishart_many,
    draw_bartlett_wishart,
    draw_bartlett_wishart_many,
    prepare,
    recommend_algorithm,
    rwishart,
    sample_invwishart,
)


class StubRng:
    """Scripted draw source that records the call sequence.

    It has no seed or position, so only the Python loop can draw from it:
    tests that fill from it run with ``no_compiled_loop``."""

    def __init__(self, normals=(), chis=()):
        self.normals = list(normals)
        self.chis = list(chis)
        self.kinds = []
        self.chi_dfs = []

    def standard_normal(self):
        self.kinds.append("normal")
        return self.normals.pop(0)

    def chi(self, k):
        self.kinds.append("chi")
        self.chi_dfs.append(k)
        return self.chis.pop(0)


@pytest.mark.usefixtures("no_compiled_loop")
def test_bartlett_wishart_m1_stub():
    stub = StubRng(chis=[2.0])
    np.testing.assert_array_equal(draw_bartlett_wishart(stub, 1, 5), [[2.0]])
    assert stub.chi_dfs == [5]


@pytest.mark.usefixtures("no_compiled_loop")
def test_bartlett_wishart_m2_stub_trace():
    # Column 1: chi(n).  Column 2: one normal, then chi(n-1).
    stub = StubRng(normals=[0.3], chis=[1.5, 0.8])
    z = draw_bartlett_wishart(stub, 2, 3)
    np.testing.assert_array_equal(z, [[1.5, 0.3], [0.0, 0.8]])
    assert stub.kinds == ["chi", "normal", "chi"]
    assert stub.chi_dfs == [3, 2]


def test_bartlett_wishart_df_guard():
    with pytest.raises(InvalidDegreesOfFreedom):
        draw_bartlett_wishart(StubRng(), 3, 2)
    with pytest.raises(InvalidDegreesOfFreedom):
        draw_bartlett_invwishart(StubRng(), 3, 2)
    for n in (np.inf, np.nan):
        with pytest.raises(InvalidDegreesOfFreedom):
            draw_bartlett_wishart(StubRng(), 3, n)
        with pytest.raises(InvalidDegreesOfFreedom):
            draw_bartlett_invwishart(StubRng(), 3, n)


@pytest.mark.parametrize("bad", [0, -1, 2.5, True, "3", None, np.nan, np.inf])
def test_fill_arguments_checked_in_one_place(bad):
    # The single fills, the batched fills and SamplerSpec share one check
    # of m and n, which runs before any draw; the batched fills also check k.
    rng = RngStream(1)
    for call in (
        lambda: draw_bartlett_wishart(rng, bad, 5),
        lambda: draw_bartlett_invwishart(rng, bad, 5),
        lambda: draw_bartlett_wishart_many(rng, bad, 5, 3),
        lambda: draw_bartlett_wishart_many(rng, 2, 5, bad),
        lambda: draw_bartlett_invwishart_many(rng, 2, 5, bad),
        lambda: SamplerSpec(bad, 5, ScaleParam(np.eye(2))),
    ):
        with pytest.raises(InvalidParameter):
            call()
    for call in (
        lambda: draw_bartlett_wishart_many(rng, 3, 2, 4),
        lambda: draw_bartlett_invwishart_many(rng, 3, np.nan, 4),
    ):
        with pytest.raises(InvalidDegreesOfFreedom):
            call()
    assert rng.position == 0


@pytest.mark.usefixtures("no_compiled_loop")
def test_bartlett_invwishart_m1_matches_wishart():
    # At m=1 the diagonal dfs coincide (n-m+1 = n+1-j = n).
    a = draw_bartlett_wishart(StubRng(chis=[2.0]), 1, 5)
    b = draw_bartlett_invwishart(StubRng(chis=[2.0]), 1, 5)
    np.testing.assert_array_equal(a, b)


@pytest.mark.usefixtures("no_compiled_loop")
def test_bartlett_invwishart_m2_stub_trace():
    # df sequence is (n-m+1, n-m+2) = (2, 3).
    stub = StubRng(normals=[-0.4], chis=[0.9, 1.1])
    z = draw_bartlett_invwishart(stub, 2, 3)
    np.testing.assert_array_equal(z, [[0.9, -0.4], [0.0, 1.1]])
    assert stub.chi_dfs == [2, 3]


@pytest.mark.usefixtures("no_compiled_loop")
def test_loop_order_contract_m3():
    # Column-by-column, off-diagonals before the diagonal.
    expected = ["chi", "normal", "chi", "normal", "normal", "chi"]
    stub_w = StubRng(normals=[0.1, 0.2, 0.3], chis=[1.0, 2.0, 3.0])
    draw_bartlett_wishart(stub_w, 3, 6)
    assert stub_w.kinds == expected
    assert stub_w.chi_dfs == [6, 5, 4]

    stub_i = StubRng(normals=[0.1, 0.2, 0.3], chis=[1.0, 2.0, 3.0])
    draw_bartlett_invwishart(stub_i, 3, 6)
    assert stub_i.kinds == expected
    assert stub_i.chi_dfs == [4, 5, 6]


@pytest.mark.usefixtures("no_compiled_loop")
def test_prng_parity():
    # Same number and type of scalar draws for both fills at equal (m, n).
    for m, n in ((1, 4), (3, 6), (5, 10.5)):
        stub_w = StubRng(normals=[0.0] * 10, chis=[1.0] * 5)
        stub_i = StubRng(normals=[0.0] * 10, chis=[1.0] * 5)
        draw_bartlett_wishart(stub_w, m, n)
        draw_bartlett_invwishart(stub_i, m, n)
        assert stub_w.kinds == stub_i.kinds
        assert stub_w.kinds.count("normal") == m * (m - 1) // 2
        assert stub_w.kinds.count("chi") == m


def test_cholesky_upper_param_invert_identity():
    counter = OpCounter()
    u = cholesky_upper_param(ScaleParam(np.eye(3)), invert=True, counter=counter)
    np.testing.assert_allclose(u, np.eye(3), atol=1e-14)
    assert counter.as_dict() == {"potrf": 2, "trtri": 1, "trmm": 1}


def test_cholesky_upper_param_plain_factor():
    counter = OpCounter()
    u = cholesky_upper_param(ScaleParam(np.array([[4.0]])), invert=False, counter=counter)
    np.testing.assert_allclose(u, [[2.0]], atol=1e-15)
    assert counter.as_dict() == {"potrf": 1, "trtri": 0, "trmm": 0}


def test_cholesky_upper_param_factor_input_invert():
    u = cholesky_upper_param(
        ScaleParam(np.array([[2.0]]), ischolu=True), invert=True
    )
    np.testing.assert_allclose(u, [[0.5]], atol=1e-15)


def test_cholesky_upper_param_passthrough_counts_nothing():
    counter = OpCounter()
    factor = np.array([[2.0, 0.5], [0.0, 1.0]])
    u = cholesky_upper_param(ScaleParam(factor, ischolu=True), invert=False, counter=counter)
    np.testing.assert_array_equal(u, factor)
    assert counter.total() == 0


def _factor_plan(factor, m, n, algorithm):
    # A factor-output plan on the very factor its route multiplies by: the
    # Cholesky-Wishart draw (WISHART: one TRMM) or the Cholesky-inverse-
    # Wishart draw (DIRECT: one TRTRI and one TRMM), with no setup kernel.
    scale = ScaleParam(factor, iscov=algorithm == WISHART, ischolu=True)
    return prepare(SamplerSpec(m, n, scale, retcholu=True), algorithm)


@pytest.mark.usefixtures("no_compiled_loop")
def test_rwishart_chol_identity_scale_returns_fill():
    stub = StubRng(normals=[0.3], chis=[1.5, 0.8])
    u_a = _factor_plan(np.eye(2), 2, 3, WISHART).draw(stub)
    np.testing.assert_allclose(u_a, [[1.5, 0.3], [0.0, 0.8]], atol=1e-15)


@pytest.mark.usefixtures("no_compiled_loop")
def test_rwishart_chol_stub_product():
    stub = StubRng(normals=[0.3], chis=[1.5, 0.8])
    u_sigma = np.array([[1.0, 1.0], [0.0, 1.0]])
    u_a = _factor_plan(u_sigma, 2, 3, WISHART).draw(stub)
    # Z @ U_Sigma by hand for Z = [[1.5, 0.3], [0, 0.8]].
    np.testing.assert_allclose(u_a, [[1.5, 1.8], [0.0, 0.8]], atol=1e-15)


def test_rwishart_chol_mean():
    sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
    u_sigma = cholesky_upper_param(ScaleParam(sigma), invert=False)
    n, nsamples = 5, 200_000
    u_a = _factor_plan(u_sigma, 2, n, WISHART).draw_many(RngStream(314), nsamples)
    mean = np.einsum("kij,kil->jl", u_a, u_a) / nsamples
    err = np.linalg.norm(mean - n * sigma) / np.linalg.norm(n * sigma)
    assert err < 0.02


@pytest.mark.usefixtures("no_compiled_loop")
def test_rinvwishart_chol_identity_scale():
    stub = StubRng(chis=[2.0, 4.0], normals=[0.0])
    u_b = _factor_plan(np.eye(2), 2, 5, DIRECT).draw(stub)
    np.testing.assert_allclose(u_b, [[0.5, 0.0], [0.0, 0.25]], atol=1e-15)


def test_rinvwishart_chol_mean_m1():
    # E[U_B^2] = omega / (n - m - 1) = 3/4.
    omega = np.array([[3.0]])
    u_omega = cholesky_upper_param(ScaleParam(omega, iscov=False), invert=False)
    nsamples = 200_000
    u_b = _factor_plan(u_omega, 1, 6, DIRECT).draw_many(RngStream(2718), nsamples)
    assert abs(np.sum(u_b[:, 0, 0] ** 2) / nsamples - 0.75) / 0.75 < 0.02


def test_rinvwishart_chol_factor_valid_many_seeds():
    u_omega = cholesky_upper_param(ScaleParam(np.eye(3), iscov=False), invert=False)
    plan = _factor_plan(u_omega, 3, 5.5, DIRECT)
    for seed in range(200):
        u_b = plan.draw(RngStream(seed))
        assert np.all(np.diag(u_b) > 0)
        assert np.array_equal(u_b, np.triu(u_b))


def test_counter_examples_from_table():
    sigma = ScaleParam(np.array([[2.0, 0.6], [0.6, 1.0]]), iscov=True)
    u_omega = ScaleParam(
        cholesky_upper_param(ScaleParam(np.eye(2), iscov=False), invert=False),
        iscov=False,
        ischolu=True,
    )
    cases = [
        (INDIRECT, SamplerSpec(2, 5, sigma), {"trtri": 1, "trmm": 2, "potrf": 1}),
        (INDIRECT, SamplerSpec(2, 5, u_omega, retcholu=True), {"trtri": 2, "trmm": 3, "potrf": 2}),
        (DIRECT, SamplerSpec(2, 5, u_omega, retcholu=True), {"trtri": 1, "trmm": 1, "potrf": 0}),
        (DIRECT, SamplerSpec(2, 5, sigma), {"trtri": 2, "trmm": 3, "potrf": 2}),
    ]
    for algorithm, spec, expected in cases:
        counter = OpCounter()
        sample_invwishart(RngStream(1), spec, algorithm, counter)
        assert counter.as_dict() == expected


def test_counter_all_sixteen_combinations():
    diag = np.array([1.0, 2.0, 0.5, 1.5])
    bases = {
        "cov": ScaleParam(np.diag(diag), iscov=True),
        "cov_chol": ScaleParam(np.diag(np.sqrt(diag)), iscov=True, ischolu=True),
        "prec": ScaleParam(np.diag(diag), iscov=False),
        "prec_chol": ScaleParam(np.diag(np.sqrt(diag)), iscov=False, ischolu=True),
    }
    rng = RngStream(9)
    for (kind, algorithm, retcholu), expected in EXPECTED_OP_COUNTS.items():
        spec = SamplerSpec(4, 6, bases[kind], retcholu=retcholu)
        counter = OpCounter()
        sample_invwishart(rng, spec, algorithm, counter=counter)
        assert counter == expected, (kind, algorithm, retcholu)


def _spd(m, seed):
    g = np.random.default_rng(seed).standard_normal((m, m))
    a = g @ g.T / m + np.eye(m)
    return (a + a.T) / 2.0


@pytest.mark.parametrize("m", [4, 9])
def test_draws_leave_the_callers_scale_untouched(m):
    # The routes overwrite the matrices each draw builds, never the scale:
    # C- and F-ordered scales (F-ordered upper factors for the _chol
    # parameterizations) keep their bytes, and give the same draws.
    # ScaleParam holds a Fortran-ordered copy of each.
    a = _spd(m, m)
    factor = np.triu(np.linalg.cholesky(a).T)
    draws = {}
    for order in "CF":
        matrices = {"cov": np.array(a, order=order), "prec": np.array(a, order=order),
                    "cov_chol": np.array(factor, order=order),
                    "prec_chol": np.array(factor, order=order)}
        before = {kind: x.copy(order="K") for kind, x in matrices.items()}
        scales = {kind: ScaleParam(x, iscov=kind.startswith("cov"), ischolu=kind.endswith("_chol"))
                  for kind, x in matrices.items()}
        rng = RngStream(4)
        out = []
        for kind, algorithm, retcholu in EXPECTED_OP_COUNTS:
            spec = SamplerSpec(m, m + 1.5, scales[kind], retcholu=retcholu)
            out.append(sample_invwishart(rng, spec, algorithm))
            if kind.startswith("cov"):
                out.append(rwishart(rng, spec))
        for kind, x in matrices.items():
            assert x.tobytes(order="A") == before[kind].tobytes(order="A")
            assert x.flags.f_contiguous == (order == "F")
            held = scales[kind].matrix
            assert held is not x and held.flags.f_contiguous and np.array_equal(held, x)
        draws[order] = [x.tobytes() for x in out]
    assert draws["C"] == draws["F"]


ROUTES = [
    *EXPECTED_OP_COUNTS,
    *((kind, WISHART, retcholu) for kind in ("cov", "cov_chol") for retcholu in (False, True)),
]


def _one_shot(rng, spec, algorithm, counter):
    if algorithm == WISHART:
        return rwishart(rng, spec, counter)
    return sample_invwishart(rng, spec, algorithm, counter)


@pytest.mark.parametrize("m", [1, 4, 9])
@pytest.mark.parametrize("key", ROUTES, ids=lambda k: f"{k[0]}-{k[1]}-{int(k[2])}")
def test_plan_draws_match_one_shot_calls(key, m):
    # n = m - 0.5 puts a chi shape below 1.  The caller's scales are
    # C-ordered.
    kind, algorithm, retcholu = key
    a = _spd(m, m)
    matrix = np.triu(np.linalg.cholesky(a).T) if kind.endswith("_chol") else a
    scale = ScaleParam(matrix, iscov=kind.startswith("cov"), ischolu=kind.endswith("_chol"))
    before = matrix.tobytes()
    for n in (m + 1.5, m - 0.5):
        spec = SamplerSpec(m, n, scale, retcholu=retcholu)
        setup = OpCounter()
        plan = prepare(spec, algorithm, setup)
        assert plan.factor.flags.f_contiguous
        factor = plan.factor.tobytes()
        rng, ref = RngStream(7), RngStream(7)
        draws = []
        for i in range(3):
            per_draw, one_shot = OpCounter(), OpCounter()
            draws.append(plan.draw(rng, per_draw))
            expect = _one_shot(ref, spec, algorithm, one_shot)
            assert draws[-1].tobytes() == expect.tobytes()
            assert rng.position == ref.position
            total = {op: setup.as_dict()[op] + c for op, c in per_draw.as_dict().items()}
            assert total == one_shot.as_dict()
            if algorithm != WISHART:
                assert one_shot == EXPECTED_OP_COUNTS[key]
        batch = RngStream(7)
        many = plan.draw_many(batch, 3)
        assert many.shape == (3, m, m)
        assert [x.tobytes() for x in many] == [x.tobytes() for x in draws]
        assert batch.position == rng.position
        assert plan.factor.tobytes() == factor
        assert matrix.tobytes() == before
        assert scale.matrix is not matrix and scale.matrix.flags.f_contiguous
        assert scale.matrix.tobytes() == before


@pytest.mark.parametrize("key", ROUTES, ids=lambda k: f"{k[0]}-{k[1]}-{int(k[2])}")
def test_setup_and_draws_make_no_input_scans(monkeypatch, key):
    # ScaleParam checks the caller's scale once; from there on every kernel
    # of the setup and the draws gets the library's own matrices with
    # owned=True, so none of them scans its input again.
    kind, algorithm, retcholu = key
    a = _spd(4, 1)
    matrix = np.triu(np.linalg.cholesky(a).T) if kind.endswith("_chol") else a
    scale = ScaleParam(matrix, iscov=kind.startswith("cov"), ischolu=kind.endswith("_chol"))
    spec = SamplerSpec(4, 6.5, scale, retcholu=retcholu)
    scans = []
    as_square = linalg.as_square
    # Every entry check, samplers' included, reaches as_square through linalg.
    monkeypatch.setattr(linalg, "as_square", lambda x: scans.append(x) or as_square(x))
    plan = prepare(spec, algorithm)
    plan.draw(RngStream(2))
    plan.draw_many(RngStream(3), 2)
    assert scans == []


def test_one_plan_serves_many_draws():
    # A plan built once gives the same draws as a stream of one-shot calls,
    # and draw_many continues the stream where the draws left it.
    spec = SamplerSpec(5, 9.0, ScaleParam(_spd(5, 3), iscov=False))
    plan = prepare(spec, INDIRECT)
    rng, ref = RngStream(11), RngStream(11)
    got = [plan.draw(rng) for _ in range(4)] + list(plan.draw_many(rng, 5))
    want = [sample_invwishart(ref, spec, INDIRECT) for _ in range(9)]
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    assert rng.position == ref.position


@pytest.mark.parametrize("loop", ["as built", "none"])
@pytest.mark.parametrize("algorithm", [INDIRECT, DIRECT, WISHART])
def test_draw_many_hands_the_kernels_fortran_ordered_fills(monkeypatch, loop, algorithm):
    # Each draw's first kernel takes the fill itself, which in C order would
    # cost a transposing copy; the kernels return Fortran order after that.
    if loop == "none":
        monkeypatch.setattr(rng_module, "_loop", None)
    plan = prepare(SamplerSpec(4, 7.5, ScaleParam(_spd(4, 5))), algorithm)
    first_operands = []
    for name in ("tri_inverse", "tri_mul"):
        kernel = getattr(samplers, name)
        monkeypatch.setattr(samplers, name, lambda a, *args, _kernel=kernel, **kw:
                            first_operands.append(a.flags.f_contiguous) or _kernel(a, *args, **kw))
    many = plan.draw_many(RngStream(3), 3)
    assert len(first_operands) >= 3 and all(first_operands)
    assert many.flags.c_contiguous

def test_recommend_algorithm():
    assert recommend_algorithm(ScaleParam(np.eye(2), iscov=True)) == INDIRECT
    assert recommend_algorithm(ScaleParam(np.eye(2), iscov=True, ischolu=True)) == INDIRECT
    assert recommend_algorithm(ScaleParam(np.eye(2), iscov=False, ischolu=True)) == DIRECT
    assert recommend_algorithm(ScaleParam(np.eye(2), iscov=False)) == DIRECT


def test_sample_invwishart_dispatch():
    scale = ScaleParam(np.eye(2), iscov=False)
    spec = SamplerSpec(2, 5, scale)
    a = sample_invwishart(RngStream(3), spec, AUTO)
    b = prepare(spec, DIRECT).draw(RngStream(3))
    np.testing.assert_array_equal(a, b)
    assert prepare(spec, AUTO).algorithm == DIRECT
    # prepare also takes the Wishart route; sample_invwishart does not.
    for name in ("fastest", WISHART):
        with pytest.raises(InvalidParameter):
            sample_invwishart(RngStream(3), spec, name)
    with pytest.raises(InvalidParameter):
        prepare(spec, "fastest")


def test_rwishart_retcholu_passthrough():
    scale = ScaleParam(np.array([[2.0, 0.6], [0.6, 1.0]]), iscov=True)
    spec = SamplerSpec(2, 5, scale, retcholu=True)
    u_sigma = cholesky_upper_param(scale, invert=False)
    got = rwishart(RngStream(77), spec)
    expect = _factor_plan(u_sigma, 2, 5, WISHART).draw(RngStream(77))
    np.testing.assert_array_equal(got, expect)


def test_rwishart_counter_factor_param():
    scale = ScaleParam(np.array([[1.0, 0.5], [0.0, 1.0]]), iscov=True, ischolu=True)
    counter = OpCounter()
    rwishart(RngStream(5), SamplerSpec(2, 5, scale, retcholu=True), counter=counter)
    assert counter.as_dict() == {"potrf": 0, "trtri": 0, "trmm": 1}


def test_rwishart_requires_covariance_side():
    spec = SamplerSpec(2, 5, ScaleParam(np.eye(2), iscov=False))
    for call in (lambda: rwishart(RngStream(1), spec), lambda: prepare(spec, WISHART)):
        with pytest.raises(InvalidParameter):
            call()


def test_rwishart_m1_chi_square_law():
    spec = SamplerSpec(1, 4, ScaleParam(np.array([[1.0]])))
    rng = RngStream(11)
    draws = np.array([rwishart(rng, spec)[0, 0] for _ in range(50_000)])
    stat, pvalue = scipy.stats.kstest(draws, scipy.stats.chi2(4).cdf)
    assert pvalue > 0.001


def test_rinvwishart_indirect_m1_inverse_gamma_law():
    # m=1, n=6, Sigma=[[2]]: B is inverse-gamma with shape 3, scale 1/4.
    spec = SamplerSpec(1, 6, ScaleParam(np.array([[2.0]])))
    draws = prepare(spec, INDIRECT).draw_many(RngStream(13), 50_000)[:, 0, 0]
    stat, pvalue = scipy.stats.kstest(draws, scipy.stats.invgamma(a=3.0, scale=0.25).cdf)
    assert pvalue > 0.001


def test_direct_equals_indirect_in_law():
    # Medium-size smoke version of the acceptance check.
    sigma = np.array([[2.0, 0.5], [0.5, 1.5]])
    spec = SamplerSpec(2, 6, ScaleParam(sigma, iscov=True))
    n = 20_000
    a = prepare(spec, INDIRECT).draw_many(RngStream(21, 0), n)
    b = prepare(spec, DIRECT).draw_many(RngStream(21, 1), n)
    for i, j in ((0, 0), (0, 1), (1, 1)):
        stat, pvalue = scipy.stats.ks_2samp(a[:, i, j], b[:, i, j])
        assert pvalue > 0.001 / 3, (i, j)
    # Sample means agree within combined Monte Carlo error.
    assert np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)) < 0.05


def test_scale_param_validation():
    with pytest.raises(DimensionMismatch):
        ScaleParam(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    with pytest.raises(InvalidParameter):
        ScaleParam(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidParameter):
        ScaleParam(np.array([[1.0, 0.0], [0.5, 1.0]]), ischolu=True)  # not triangular
    with pytest.raises(InvalidParameter):
        ScaleParam(np.array([[-1.0, 0.0], [0.0, 1.0]]), ischolu=True)  # bad diagonal
    # A full scale is checked for symmetry where it enters, to chol_upper's
    # tolerance; a factor scale is not symmetric and needs no such check.
    with pytest.raises(InvalidParameter, match="not symmetric"):
        ScaleParam(np.array([[2.0, 0.5], [0.4, 2.0]]), iscov=False)
    ScaleParam(np.array([[2.0, 0.5], [0.5 + 1e-12, 2.0]]))
    ScaleParam(np.array([[2.0, 0.5], [0.0, 2.0]]), ischolu=True)
    assert ScaleParam(np.eye(2)).kind() == "cov"
    assert ScaleParam(np.eye(2), iscov=False, ischolu=True).kind() == "prec_chol"


def test_sampler_spec_validation():
    scale3 = ScaleParam(np.eye(3))
    with pytest.raises(InvalidDegreesOfFreedom):
        SamplerSpec(3, 2.0, scale3)
    SamplerSpec(3, 2.0001, scale3)  # strict inequality: just above m-1 is fine
    with pytest.raises(InvalidDegreesOfFreedom):
        SamplerSpec(3, float("inf"), scale3)
    with pytest.raises(DimensionMismatch):
        SamplerSpec(2, 5, scale3)
    with pytest.raises(InvalidParameter):
        SamplerSpec(0, 5, scale3)


def test_draws_past_the_double_range_raise():
    # The Wishart factor 1e200 * chi squares past the double limit.
    huge = ScaleParam(np.array([[1e200]]), ischolu=True)
    with pytest.raises(NumericalFailure, match="not finite"):
        rwishart(RngStream(1), SamplerSpec(1, 3.0, huge))
    # The direct factor is the smallest subnormal over a chi near 10, which
    # rounds to zero.
    tiny = ScaleParam(np.array([[5e-324]]), iscov=False, ischolu=True)
    with pytest.raises(NumericalFailure, match="not positive"):
        sample_invwishart(RngStream(1), SamplerSpec(1, 100.0, tiny, retcholu=True), DIRECT)
    # The Wishart factor 1e308 * chi overflows, and its inverse rounds to a
    # zero draw, which no inverse-Wishart matrix is.
    big = ScaleParam(np.array([[1e308]]), ischolu=True)
    with pytest.raises(NumericalFailure, match="not positive"):
        sample_invwishart(RngStream(1), SamplerSpec(1, 30.0, big), INDIRECT)


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.floats(allow_nan=False, allow_infinity=False),
    entries=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=36, max_size=36),
    gram=st.booleans(),
    kind=st.sampled_from(["cov", "cov_chol", "prec", "prec_chol"]),
    algorithm=st.sampled_from([INDIRECT, DIRECT]),
    retcholu=st.booleans(),
    seed=st.integers(0, 2 ** 64 - 1),
)
def test_any_draw_raises_or_is_well_formed(m, n, entries, gram, kind, algorithm, retcholu, seed):
    a = np.array(entries[:m * m]).reshape(m, m)
    ischolu = kind.endswith("_chol")
    with np.errstate(over="ignore"):
        matrix = np.triu(a) if ischolu else (a @ a.T if gram else a)
    try:
        scale = ScaleParam(matrix, iscov=kind.startswith("cov"), ischolu=ischolu)
        x = sample_invwishart(RngStream(seed), SamplerSpec(m, n, scale, retcholu), algorithm)
    except TriwishError:
        return
    assert np.isfinite(x).all()
    assert (np.diag(x) > 0).all()
    if retcholu:
        assert np.array_equal(x, np.triu(x))
    else:
        # Bitwise, so a mirrored 0.0 and -0.0 fail it: matio writes each
        # mirrored pair of such a matrix from one string.
        assert x.tobytes() == x.T.tobytes()


class _TrtriOperands:
    """Stand-in for the lapack module of :mod:`triwish.linalg` that records,
    mod linalg.ALIGNMENT, the address of every dtrtri operand."""

    def __init__(self, lapack):
        self._lapack = lapack
        self.offsets = []

    def __getattr__(self, name):
        return getattr(self._lapack, name)

    def dtrtri(self, c, *args, **kwargs):
        self.offsets.append(c.ctypes.data % linalg.ALIGNMENT)
        return self._lapack.dtrtri(c, *args, **kwargs)


def _scale(kind, m):
    a = _spd(m, m)
    matrix = np.triu(np.linalg.cholesky(a).T) if kind.endswith("_chol") else a
    return ScaleParam(matrix, iscov=kind.startswith("cov"), ischolu=kind.endswith("_chol"))


@pytest.mark.parametrize("m", [200, 50])
@pytest.mark.parametrize("key", list(EXPECTED_OP_COUNTS), ids=lambda k: f"{k[0]}-{k[1]}-{int(k[2])}")
def test_every_trtri_operand_is_aligned(monkeypatch, key, m):
    # OpenBLAS's dtrtri is about a quarter slower at m = 200 on an operand
    # that does not start on a 64-byte boundary.  Every operand is a
    # workspace buffer: in a one-shot draw, a plan's setup, its draws and a
    # batch of its draws.  At m = 50, m^2 doubles are not a multiple of 64
    # bytes, so every other fill of a batch starts off the boundary.
    kind, algorithm, retcholu = key
    spec = SamplerSpec(m, m + 2.0, _scale(kind, m), retcholu=retcholu)
    lapack = _TrtriOperands(linalg.lapack)
    monkeypatch.setattr(linalg, "lapack", lapack)
    one_shot, setup, draw = OpCounter(), OpCounter(), OpCounter()
    sample_invwishart(RngStream(1), spec, algorithm, one_shot)
    plan = prepare(spec, algorithm, setup)
    plan.draw(RngStream(2), draw)
    plan.draw_many(RngStream(3), 2)
    assert len(lapack.offsets) == one_shot.trtri + setup.trtri + 3 * draw.trtri > 0
    assert lapack.offsets == [0] * len(lapack.offsets)


@pytest.mark.parametrize("key", ROUTES, ids=lambda k: f"{k[0]}-{k[1]}-{int(k[2])}")
def test_draws_never_share_memory_with_the_workspace(key):
    # The workspace is overwritten by the next draw in the thread, so no
    # draw, batch or plan factor may be, or be a view of, it or another
    # draw.
    m = 6
    kind, algorithm, retcholu = key
    spec = SamplerSpec(m, m + 2.0, _scale(kind, m), retcholu=retcholu)
    plan = prepare(spec, algorithm)
    rng = RngStream(4)
    draws = [plan.draw(rng), plan.draw(rng), _one_shot(rng, spec, algorithm, None),
             plan.draw_many(rng, 2), plan.factor]
    kept = [x.tobytes() for x in draws]
    _one_shot(rng, spec, algorithm, None)
    workspace = samplers._workspace(m).fills
    for i, x in enumerate(draws):
        assert not np.shares_memory(x, workspace)
        assert not any(np.shares_memory(x, y) for y in draws[i + 1:])
    assert [x.tobytes() for x in draws] == kept


def test_threads_draw_the_bytes_of_draws_made_one_after_another():
    # Each thread has a workspace of its own.  The compiled walk releases
    # the GIL, and a short switch interval interleaves the rest, so a
    # shared workspace would be overwritten mid-draw.  Four threads on two
    # routes, more threads than this machine's CPUs.
    m = 200
    jobs = [(SamplerSpec(m, m + 2.0, _scale("cov", m)), INDIRECT),
            (SamplerSpec(m, m + 2.0, _scale("prec_chol", m), retcholu=True), DIRECT)] * 2

    def draws(i):
        spec, algorithm = jobs[i]
        rng = RngStream(9, i)
        singles = [sample_invwishart(rng, spec, algorithm) for _ in range(6)]
        return [x.tobytes() for x in singles + list(prepare(spec, algorithm).draw_many(rng, 2))]

    want = [draws(i) for i in range(len(jobs))]
    got = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def worker(i):
        start.wait()
        got[i] = draws(i)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
