"""Registry of self-contained validation checks.

Each check draws what it needs from its own deterministic stream, compares a
statistic against a fixed threshold, and reports one record per assertion:
``{check, params, statistic, threshold, pass, seed}``.  The registry drives
the ``validate`` subcommand and the acceptance tests; ``run_checks`` filters
by substring and returns the records in registry order.
"""

import io
import math
import statistics
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cli, matio
from .densities import (
    logjac_chol,
    logjac_tri_inverse,
    logkernel_cholinvwishart,
    logkernel_cholwishart,
    logkernel_invwishart,
    logkernel_wishart,
)
from .errors import InvalidDegreesOfFreedom, MeanUndefined
from .linalg import OpCounter, gram_ut, tri_inverse, tri_mul
from .rng import RngStream
from .samplers import (
    DIRECT,
    EXPECTED_OP_COUNTS,
    INDIRECT,
    WISHART,
    SamplerSpec,
    ScaleParam,
    cholesky_upper_param,
    draw_bartlett_invwishart_many,
    draw_bartlett_wishart_many,
    prepare,
    sample_invwishart,
)
from .validation import (
    BATCH_ENTRIES,
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

DEFAULT_SEED = 424242
ALPHA = 0.001
# Random factors per dimension in each Jacobian check.
JACOBIAN_POINTS = 10
# Untimed draws before each timed block of bench_pair; `triwish bench` prints it.
BENCH_WARMUP = 5

# Fixed scale matrices used across checks (all strictly diagonally dominant,
# hence symmetric positive definite).
SIGMA_2 = np.array([[2.0, 0.6], [0.6, 1.0]])
SIGMA_3 = np.array([[2.0, 0.5, 0.2], [0.5, 1.5, 0.3], [0.2, 0.3, 1.0]])
SPD_4 = np.array(
    [
        [1.0, 0.1, 0.1, 0.1],
        [0.1, 2.0, 0.1, 0.1],
        [0.1, 0.1, 0.5, 0.1],
        [0.1, 0.1, 0.1, 1.5],
    ]
)


@dataclass
class CheckRecord:
    check: str
    params: dict
    statistic: float
    threshold: float
    passed: bool
    seed: int

    def to_dict(self):
        return {
            "check": self.check,
            "params": self.params,
            "statistic": float(self.statistic),
            "threshold": float(self.threshold),
            "pass": bool(self.passed),
            "seed": int(self.seed),
        }


def _ks_record(check, params, seed, result, threshold):
    return CheckRecord(check, params, result.pvalue, threshold, result.pvalue >= threshold, seed)


# ---------------------------------------------------------------------------
# operation counts


def measure_opcounts(seed):
    """Count the kernels of one m=4 draw for every ``EXPECTED_OP_COUNTS`` key.

    Returns the measured OpCounter per (parameterization, algorithm,
    retcholU) and how many of them match the table.
    """
    rng = RngStream(seed, 1)
    diag = np.array([1.0, 2.0, 0.5, 1.5])
    bases = {
        "cov": ScaleParam(np.diag(diag), iscov=True),
        "cov_chol": ScaleParam(np.diag(np.sqrt(diag)), iscov=True, ischolu=True),
        "prec": ScaleParam(np.diag(diag), iscov=False),
        "prec_chol": ScaleParam(np.diag(np.sqrt(diag)), iscov=False, ischolu=True),
    }
    measured = {}
    for key in EXPECTED_OP_COUNTS:
        kind, algorithm, retcholu = key
        spec = SamplerSpec(4, 7.5, bases[kind], retcholu=retcholu)
        measured[key] = OpCounter()
        sample_invwishart(rng, spec, algorithm, counter=measured[key])
    matches = sum(measured[key] == expected for key, expected in EXPECTED_OP_COUNTS.items())
    return measured, matches


def check_opcount(seed):
    """Every (parameterization, algorithm, retcholU) op count matches the table."""
    _, matches = measure_opcounts(seed)
    total = len(EXPECTED_OP_COUNTS)
    return [
        CheckRecord(
            "opcount.table",
            {"m": 4, "n": 7.5, "combinations": total},
            float(matches),
            float(total),
            matches == total,
            seed,
        )
    ]


# ---------------------------------------------------------------------------
# triangular-fill marginals and the outer-product oracle


def _fill_marginals(check_prefix, seed, stream, draw_many, diag_df, m, n, nsamples):
    rng = RngStream(seed, stream)
    diags = np.empty((nsamples, m))
    offdiags = np.empty((nsamples, m * (m - 1) // 2))
    iu = np.triu_indices(m, k=1)
    # Batches of about BATCH_ENTRIES uniforms: all nsamples fills as one
    # (k, m, m) array would add about 10 MB to the peak RSS at m=5, k=50,000.
    block = max(1, BATCH_ENTRIES // (m * (m + 2)))
    for start in range(0, nsamples, block):
        z = draw_many(rng, m, n, min(block, nsamples - start))
        diags[start:start + len(z)] = np.diagonal(z, axis1=1, axis2=2)
        offdiags[start:start + len(z)] = z[:, iu[0], iu[1]]
    records = []
    for j in range(1, m + 1):
        df = diag_df(j)
        res = ks_one_sample(diags[:, j - 1] ** 2, lambda x, d=df: chi_square_cdf(x, d))
        records.append(
            _ks_record(
                f"{check_prefix}.diag",
                {"j": j, "df": df, "m": m, "n": n, "nsamples": nsamples},
                seed,
                res,
                ALPHA / m,
            )
        )
    res = ks_one_sample(offdiags.ravel(), normal_cdf)
    records.append(
        _ks_record(
            f"{check_prefix}.offdiag",
            {"m": m, "n": n, "nsamples": nsamples},
            seed,
            res,
            ALPHA,
        )
    )
    return records


def check_bartlett_wishart(seed):
    """Wishart fill: z_jj^2 is chi-square(n+1-j), off-diagonals are N(0,1)."""
    m, n, nsamples = 5, 10, 50_000
    return _fill_marginals(
        "bartlett.wishart", seed, 2, draw_bartlett_wishart_many, lambda j: n + 1 - j,
        m, n, nsamples,
    )


def check_bartlett_invwishart(seed):
    """Inverse-Wishart fill: z_jj^2 is chi-square(n-m+j), off-diagonals N(0,1)."""
    m, n, nsamples = 5, 10, 50_000
    return _fill_marginals(
        "bartlett.invwishart", seed, 5, draw_bartlett_invwishart_many, lambda j: n - m + j,
        m, n, nsamples,
    )


def _entrywise_ks(check, seed, spec, a, b):
    # Two-sample KS per distinct entry of two samples of (m, m) draws.
    entries = triangular_coords(spec.m)
    return [
        _ks_record(
            check,
            {"entry": [i + 1, j + 1], "m": spec.m, "n": spec.n, "nsamples": len(a)},
            seed,
            ks_two_sample(a[:, i, j], b[:, i, j]),
            ALPHA / len(entries),
        )
        for i, j in entries
    ]


def check_wishart_outer(seed):
    """Triangular-fill Wishart draws match the n-column outer-product construction."""
    m, n, nsamples = 2, 5, 50_000
    spec = SamplerSpec(m, n, ScaleParam(SIGMA_2, iscov=True))
    plan = prepare(spec, WISHART)
    oracle = RngStream(seed, 4)
    return _entrywise_ks(
        "bartlett.wishart.outer", seed, spec,
        plan.draw_many(RngStream(seed, 3), nsamples),
        np.array([rwishart_outer_oracle(oracle, m, n, plan.factor) for _ in range(nsamples)]),
    )


def check_agreement(seed):
    """Both inverse-Wishart algorithms draw from the same law (two-sample KS)."""
    nsamples = 50_000
    spec = SamplerSpec(3, 8, ScaleParam(SIGMA_3, iscov=True))
    return _entrywise_ks(
        "agreement.invwishart", seed, spec,
        prepare(spec, INDIRECT).draw_many(RngStream(seed, 6), nsamples),
        prepare(spec, DIRECT).draw_many(RngStream(seed, 7), nsamples),
    )


# ---------------------------------------------------------------------------
# Monte Carlo moments


def check_moments_wishart(seed):
    m, n, nsamples = 4, 10, 200_000
    spec = SamplerSpec(m, n, ScaleParam(SPD_4, iscov=True))
    report = mc_mean_wishart(RngStream(seed, 8), spec, nsamples)
    threshold = 0.02
    return [
        CheckRecord(
            "moments.wishart",
            {"m": m, "n": n, "nsamples": nsamples},
            report.relative_error,
            threshold,
            report.relative_error < threshold,
            seed,
        )
    ]


def _moment_invwishart(seed, stream, algorithm):
    m, n, nsamples = 4, 10, 200_000
    spec = SamplerSpec(m, n, ScaleParam(SPD_4, iscov=False))
    report = mc_mean_invwishart(RngStream(seed, stream), spec, algorithm, nsamples)
    threshold = 0.05
    return CheckRecord(
        f"moments.invwishart.{algorithm}",
        {"m": m, "n": n, "nsamples": nsamples, "algorithm": algorithm},
        report.relative_error,
        threshold,
        report.relative_error < threshold,
        seed,
    )


def check_moments_invwishart_indirect(seed):
    return [_moment_invwishart(seed, 9, INDIRECT)]


def check_moments_invwishart_direct(seed):
    return [_moment_invwishart(seed, 10, DIRECT)]


# ---------------------------------------------------------------------------
# finite-difference Jacobian oracles


def _random_factor(rng, m):
    t = np.zeros((m, m))
    for j in range(m):
        for i in range(j):
            t[i, j] = 0.5 * rng.standard_normal()
        t[j, j] = 0.5 + rng.uniform()
    return t


def _jacobian_records(check, seed, stream, map_fn, analytic_fn):
    rng = RngStream(seed, stream)
    records = []
    for m in (1, 2, 3):
        worst = 0.0
        for _ in range(JACOBIAN_POINTS):
            t = _random_factor(rng, m)
            fd = fd_logdet_jacobian(map_fn, t)
            analytic = analytic_fn(t)
            err = abs(fd - analytic) / max(1.0, abs(analytic))
            worst = max(worst, err)
        threshold = 1e-5
        records.append(CheckRecord(
            check, {"m": m, "points": JACOBIAN_POINTS}, worst, threshold, worst < threshold, seed
        ))
    return records


def check_jacobian_chol(seed):
    """FD log|det J| of T -> T^T T against the closed form."""
    return _jacobian_records("jacobian.chol", seed, 11, gram_ut, logjac_chol)


def check_jacobian_triinv(seed):
    """FD log|det J| of R -> R^{-1} against the closed form."""
    return _jacobian_records("jacobian.triinv", seed, 12, tri_inverse, logjac_tri_inverse)


# ---------------------------------------------------------------------------
# density-kernel consistency


def _offset_record(check, seed, params, offsets):
    spread = float(np.std(offsets))
    threshold = 1e-8
    return CheckRecord(check, params, spread, threshold, spread < threshold, seed)


def _factor_offsets(check, seed, stream, n, algorithm, factor_kernel, matrix_kernel):
    # Factor draws of the Wishart route on Sigma = SIGMA_3, or of the direct
    # route on Omega = SIGMA_3.
    m, ndraws = 3, 100
    scale = ScaleParam(SIGMA_3, iscov=algorithm == WISHART)
    plan = prepare(SamplerSpec(m, n, scale, retcholu=True), algorithm)
    offsets = np.empty(ndraws)
    for i, u in enumerate(plan.draw_many(RngStream(seed, stream), ndraws)):
        offsets[i] = (
            factor_kernel(u, n, plan.factor) - matrix_kernel(gram_ut(u), n, plan.factor)
            - logjac_chol(u)
        )
    return [_offset_record(check, seed, {"m": m, "n": n, "draws": ndraws}, offsets)]


def check_density_wishart(seed):
    """Factor kernel = squared-matrix kernel + Cholesky Jacobian, up to a constant."""
    return _factor_offsets(
        "density.wishart", seed, 13, 7.5, WISHART, logkernel_cholwishart, logkernel_wishart,
    )


def check_density_invwishart(seed):
    return _factor_offsets(
        "density.invwishart", seed, 14, 6.5, DIRECT,
        logkernel_cholinvwishart, logkernel_invwishart,
    )


def check_density_chain(seed):
    """Triangular fill + inversion: the factor kernel follows from the scalar laws.

    For Z from the inverse-Wishart fill and U_B = Z^{-1} U_Omega, the factor
    log kernel minus (m+1)*log det Z must differ from the summed chi and
    normal log kernels of Z's entries by a draw-independent constant.
    """
    m, n, ndraws = 3, 8, 100
    u_omega = cholesky_upper_param(ScaleParam(SIGMA_3, iscov=False), invert=False)
    fills = draw_bartlett_invwishart_many(RngStream(seed, 15), m, n, ndraws)
    offsets = np.empty(ndraws)
    for i, z in enumerate(fills):
        u_b = tri_mul(tri_inverse(z), u_omega)
        # Summed in C order: the sum's rounding follows the memory order.
        log_pz = -0.5 * float(np.sum(np.square(np.ascontiguousarray(z))))
        for j in range(1, m + 1):
            df = n - m + j
            log_pz += (df - 1.0) * math.log(z[j - 1, j - 1])
        offsets[i] = (
            logkernel_cholinvwishart(u_b, n, u_omega) + logjac_tri_inverse(z) - log_pz
        )
    return [_offset_record("density.chain", seed, {"m": m, "n": n, "draws": ndraws}, offsets)]


# ---------------------------------------------------------------------------
# univariate reductions


def _scalar_record(check, params, seed, stream, plan, cdf):
    # One-sample KS of params["nsamples"] m=1 draws against a closed-form CDF.
    draws = plan.draw_many(RngStream(seed, stream), params["nsamples"])[:, 0, 0]
    return _ks_record(check, params, seed, ks_one_sample(draws, cdf), ALPHA)


def check_scalar_wishart(seed):
    """m=1 draws follow the scaled chi-square law."""
    n, sigma_sq = 4.5, 2.0
    spec = SamplerSpec(1, n, ScaleParam(np.array([[sigma_sq]]), iscov=True))
    return [
        _scalar_record(
            "scalar.wishart", {"n": n, "sigma_sq": sigma_sq, "nsamples": 50_000}, seed, 16,
            prepare(spec, WISHART),
            lambda x: chi_square_cdf(x / sigma_sq, n),
        )
    ]


def _scalar_invwishart(seed, stream, algorithm):
    """m=1 draws follow the inverse-gamma law (via 2*omega/B ~ chi-square(n))."""
    n, omega = 6, 3.0
    spec = SamplerSpec(1, n, ScaleParam(np.array([[omega]]), iscov=False))
    return _scalar_record(
        f"scalar.invwishart.{algorithm}",
        {"n": n, "omega": omega, "nsamples": 50_000, "algorithm": algorithm},
        seed,
        stream,
        prepare(spec, algorithm),
        lambda x: 1.0 - chi_square_cdf(omega / x, n),
    )


def check_scalar_invwishart_indirect(seed):
    return [_scalar_invwishart(seed, 17, INDIRECT)]


def check_scalar_invwishart_direct(seed):
    return [_scalar_invwishart(seed, 18, DIRECT)]


# ---------------------------------------------------------------------------
# timing


def time_algorithm(seed, stream, spec, algorithm, reps=25):
    """Median wall-clock seconds per draw, after BENCH_WARMUP untimed draws."""
    rng = RngStream(seed, stream)
    for _ in range(BENCH_WARMUP):
        sample_invwishart(rng, spec, algorithm)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        sample_invwishart(rng, spec, algorithm)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def bench_pair(m, iscov, ischolu, retcholu, seed, reps=25, streams=(19, 20)):
    """The benchmark's spec, both algorithms' median per-draw times and op counts.

    The scale is diag(linspace(0.5, 2, m)), taken as given (a factor with
    ``ischolu``), and n = m + 2.  Returns (spec, median indirect, median
    direct, {algorithm: the EXPECTED_OP_COUNTS of one draw}).
    """
    scale = ScaleParam(np.diag(np.linspace(0.5, 2.0, m)), iscov=iscov, ischolu=ischolu)
    spec = SamplerSpec(m, m + 2, scale, retcholu=retcholu)
    med_indirect = time_algorithm(seed, streams[0], spec, INDIRECT, reps)
    med_direct = time_algorithm(seed, streams[1], spec, DIRECT, reps)
    counts = {alg: EXPECTED_OP_COUNTS[(scale.kind(), alg, retcholu)] for alg in (INDIRECT, DIRECT)}
    return spec, med_indirect, med_direct, counts


def _bench_record(check, seed, iscov, ischolu, retcholu, faster, streams):
    # Statistic: median time per draw of the ``faster`` route over the other's.
    m, reps = 200, 25
    spec, med_indirect, med_direct, _ = bench_pair(
        m, iscov, ischolu, retcholu, seed, reps=reps, streams=streams
    )
    ratio = med_direct / med_indirect if faster == DIRECT else med_indirect / med_direct
    return [
        CheckRecord(
            check,
            {"m": m, "n": spec.n, "reps": reps, "retcholu": retcholu, "scale": spec.scale.kind()},
            ratio,
            1.0,
            ratio < 1.0,
            seed,
        )
    ]


def check_bench_precchol(seed):
    """Direct beats indirect for a precision-factor scale with factor output."""
    return _bench_record("bench.precchol", seed, False, True, True, DIRECT, (19, 20))


def check_bench_cov(seed):
    """Indirect beats direct for a covariance scale with full-matrix output."""
    return _bench_record("bench.cov", seed, True, False, False, INDIRECT, (21, 22))


# ---------------------------------------------------------------------------
# command-line contracts


def _run_sample(tmp, scale, argv):
    """Run ``triwish sample`` in-process on a scale file written under ``tmp``.

    Returns the exit code and what the command wrote to stderr.
    """
    scale_path = str(tmp / "scale.csv")
    matio.write_matrices(scale_path, [scale])
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = cli.main(["sample", "--scale", scale_path, *argv])
    return rc, err.getvalue()


def check_cli_determinism(seed):
    """Same seed, same flags: byte-identical output files."""
    args = ["--m", "2", "--n", "5", "--iscov", "--seed", str(seed), "--nsamples", "3"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        outs = []
        for name in ("a.csv", "b.csv"):
            rc, _ = _run_sample(tmp, np.eye(2), args + ["--out", str(tmp / name)])
            outs.append((rc, (tmp / name).read_bytes()))
        same = outs[0] == outs[1] and outs[0][0] == 0
    return [
        CheckRecord(
            "cli.determinism",
            {"m": 2, "n": 5, "nsamples": 3},
            0.0 if same else 1.0,
            0.0,
            same,
            seed,
        )
    ]


def check_cli_square(seed):
    """--retcholu --square reproduces the retcholu=false matrices bit-exactly."""
    base = [
        "--m", "3", "--n", "6.5", "--iscov", "--algorithm", "direct",
        "--seed", str(seed), "--nsamples", "4",
    ]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        squared = str(tmp / "squared.csv")
        plain = str(tmp / "plain.csv")
        rc1, _ = _run_sample(tmp, SIGMA_3, base + ["--retcholu", "--square", "--out", squared])
        rc2, _ = _run_sample(tmp, SIGMA_3, base + ["--out", plain])
        _, blocks_sq = matio.read_matrices(squared)
        _, blocks_pl = matio.read_matrices(plain)
        same = (
            rc1 == 0
            and rc2 == 0
            and len(blocks_sq) == len(blocks_pl)
            and all(
                ka == kb == "square" and a.tobytes() == b.tobytes()
                for (ka, a), (kb, b) in zip(blocks_sq, blocks_pl)
            )
        )
    return [
        CheckRecord(
            "cli.square",
            {"m": 3, "n": 6.5, "nsamples": 4, "algorithm": DIRECT},
            0.0 if same else 1.0,
            0.0,
            same,
            seed,
        )
    ]


# ---------------------------------------------------------------------------
# error contracts


def check_errors_df(seed):
    """Too-small degrees of freedom are rejected before any sampling."""
    try:
        SamplerSpec(3, 1.5, ScaleParam(np.eye(3)))
        ok = False
    except InvalidDegreesOfFreedom:
        ok = True
    return [
        CheckRecord("errors.df", {"m": 3, "n": 1.5}, 1.0 if ok else 0.0, 1.0, ok, seed)
    ]


def check_errors_notspd(seed):
    """A non-positive-definite scale file exits with the numerical-failure code."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rc, err = _run_sample(
            tmp,
            np.array([[1.0, 2.0], [2.0, 1.0]]),
            ["--m", "2", "--n", "5", "--iscov", "--seed", str(seed), "--out", str(tmp / "out.csv")],
        )
        ok = rc == 4 and "pivot" in err
    return [
        CheckRecord("errors.notspd", {"m": 2, "exit": rc}, float(rc), 4.0, ok, seed)
    ]


def check_errors_mean(seed):
    """The inverse-Wishart moment check refuses n <= m+1 (mean does not exist)."""
    spec = SamplerSpec(2, 3, ScaleParam(np.eye(2), iscov=False))
    try:
        mc_mean_invwishart(RngStream(seed, 23), spec, DIRECT, 2000)
        ok = False
    except MeanUndefined:
        ok = True
    return [
        CheckRecord("errors.mean", {"m": 2, "n": 3}, 1.0 if ok else 0.0, 1.0, ok, seed)
    ]


# ---------------------------------------------------------------------------
# registry

REGISTRY = [
    ("opcount.table", check_opcount),
    ("bartlett.wishart", check_bartlett_wishart),
    ("bartlett.wishart.outer", check_wishart_outer),
    ("bartlett.invwishart", check_bartlett_invwishart),
    ("agreement.invwishart", check_agreement),
    ("moments.wishart", check_moments_wishart),
    ("moments.invwishart.indirect", check_moments_invwishart_indirect),
    ("moments.invwishart.direct", check_moments_invwishart_direct),
    ("jacobian.chol", check_jacobian_chol),
    ("jacobian.triinv", check_jacobian_triinv),
    ("density.wishart", check_density_wishart),
    ("density.invwishart", check_density_invwishart),
    ("density.chain", check_density_chain),
    ("scalar.wishart", check_scalar_wishart),
    ("scalar.invwishart.indirect", check_scalar_invwishart_indirect),
    ("scalar.invwishart.direct", check_scalar_invwishart_direct),
    ("bench.precchol", check_bench_precchol),
    ("bench.cov", check_bench_cov),
    ("cli.determinism", check_cli_determinism),
    ("cli.square", check_cli_square),
    ("errors.df", check_errors_df),
    ("errors.notspd", check_errors_notspd),
    ("errors.mean", check_errors_mean),
]


def _selected(name, only):
    if only is None:
        return True
    for token in str(only).split(","):
        token = token.strip()
        if not token:
            continue
        # A plural matches its singular ("jacobians"); a token of only s's
        # strips to "", which would match every name.
        stem = token.rstrip("s")
        if token in name or stem and stem in name:
            return True
    return False


def select_checks(only=None):
    """Registry entries whose name matches the comma-separated filter."""
    return [entry for entry in REGISTRY if _selected(entry[0], only)]


def run_checks(seed=DEFAULT_SEED, only=None):
    """Run the selected checks; records come back in registry order."""
    return [record for _, fn in select_checks(only) for record in fn(seed)]
