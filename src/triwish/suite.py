"""Registry of self-contained validation checks.

Each check draws what it needs from its own deterministic stream, through the
library's plans and fills, compares a statistic against a fixed threshold,
and reports one record per assertion:
``{check, params, statistic, threshold, pass, seed}``.

A ``REGISTRY`` row is ``(name, fn, kwargs)``, and ``run_checks`` calls
``fn(name, seed, **kwargs)``: a record's ``check`` is its row's name, with
``.diag``/``.offdiag`` appended by the fill-marginal rows.  The registry
drives the ``validate`` subcommand and the acceptance tests; ``run_checks``
filters rows by substring of their names and returns the records in
registry order.
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

from . import matio
from .densities import (
    logjac_chol,
    logjac_tri_inverse,
    logkernel_cholinvwishart,
    logkernel_cholwishart,
    logkernel_invwishart,
    logkernel_wishart,
)
from .errors import InvalidDegreesOfFreedom, MeanUndefined
from .linalg import OpCounter, gram_ut, tri_inverse
from .rng import RngStream
from .samplers import (
    DIRECT,
    EXPECTED_OP_COUNTS,
    INDIRECT,
    WISHART,
    SamplerSpec,
    ScaleParam,
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


def check_opcount(name, seed):
    """Every (parameterization, algorithm, retcholU) op count matches the table."""
    _, matches = measure_opcounts(seed)
    total = len(EXPECTED_OP_COUNTS)
    return [
        CheckRecord(
            name,
            {"m": 4, "n": 7.5, "combinations": total},
            float(matches),
            float(total),
            matches == total,
            seed,
        )
    ]


# ---------------------------------------------------------------------------
# triangular-fill marginals and the outer-product oracle


def check_fill_marginals(name, seed, stream, draw_many, diag_df):
    """KS of each z_jj^2 against chi-square(diag_df(m, n, j)), off-diagonals against N(0,1)."""
    m, n, nsamples = 5, 10, 50_000
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
        df = diag_df(m, n, j)
        res = ks_one_sample(diags[:, j - 1] ** 2, lambda x, d=df: chi_square_cdf(x, d))
        records.append(
            _ks_record(
                f"{name}.diag",
                {"j": j, "df": df, "m": m, "n": n, "nsamples": nsamples},
                seed,
                res,
                ALPHA / m,
            )
        )
    res = ks_one_sample(offdiags.ravel(), normal_cdf)
    records.append(
        _ks_record(
            f"{name}.offdiag",
            {"m": m, "n": n, "nsamples": nsamples},
            seed,
            res,
            ALPHA,
        )
    )
    return records


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


def check_wishart_outer(name, seed):
    """Triangular-fill Wishart draws match the n-column outer-product construction."""
    m, n, nsamples = 2, 5, 50_000
    spec = SamplerSpec(m, n, ScaleParam(SIGMA_2, iscov=True))
    plan = prepare(spec, WISHART)
    oracle = RngStream(seed, 4)
    return _entrywise_ks(
        name, seed, spec,
        plan.draw_many(RngStream(seed, 3), nsamples),
        np.array([rwishart_outer_oracle(oracle, m, n, plan.factor) for _ in range(nsamples)]),
    )


def check_agreement(name, seed):
    """Both inverse-Wishart algorithms draw from the same law (two-sample KS)."""
    nsamples = 50_000
    spec = SamplerSpec(3, 8, ScaleParam(SIGMA_3, iscov=True))
    return _entrywise_ks(
        name, seed, spec,
        prepare(spec, INDIRECT).draw_many(RngStream(seed, 6), nsamples),
        prepare(spec, DIRECT).draw_many(RngStream(seed, 7), nsamples),
    )


# ---------------------------------------------------------------------------
# Monte Carlo moments


def check_moments_wishart(name, seed):
    m, n, nsamples = 4, 10, 200_000
    spec = SamplerSpec(m, n, ScaleParam(SPD_4, iscov=True))
    report = mc_mean_wishart(RngStream(seed, 8), spec, nsamples)
    threshold = 0.02
    return [
        CheckRecord(
            name,
            {"m": m, "n": n, "nsamples": nsamples},
            report.relative_error,
            threshold,
            report.relative_error < threshold,
            seed,
        )
    ]


def check_moments_invwishart(name, seed, stream, algorithm):
    m, n, nsamples = 4, 10, 200_000
    spec = SamplerSpec(m, n, ScaleParam(SPD_4, iscov=False))
    report = mc_mean_invwishart(RngStream(seed, stream), spec, algorithm, nsamples)
    threshold = 0.05
    return [
        CheckRecord(
            name,
            {"m": m, "n": n, "nsamples": nsamples, "algorithm": algorithm},
            report.relative_error,
            threshold,
            report.relative_error < threshold,
            seed,
        )
    ]


# ---------------------------------------------------------------------------
# finite-difference Jacobian oracles


def _random_factor(rng, m):
    t = np.zeros((m, m))
    for j in range(m):
        for i in range(j):
            t[i, j] = 0.5 * rng.standard_normal()
        t[j, j] = 0.5 + rng.uniform()
    return t


def check_jacobian(name, seed, stream, map_fn, analytic_fn):
    """FD log|det J| of ``map_fn`` at random factors against ``analytic_fn``."""
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
            name, {"m": m, "points": JACOBIAN_POINTS}, worst, threshold, worst < threshold, seed
        ))
    return records


# ---------------------------------------------------------------------------
# density-kernel consistency


def _offset_record(check, seed, params, offsets):
    spread = float(np.std(offsets))
    threshold = 1e-8
    return CheckRecord(check, params, spread, threshold, spread < threshold, seed)


def check_factor_density(name, seed, stream, n, algorithm, factor_kernel, matrix_kernel):
    """Factor kernel = squared-matrix kernel + Cholesky Jacobian, up to a constant."""
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
    return [_offset_record(name, seed, {"m": m, "n": n, "draws": ndraws}, offsets)]


def check_density_chain(name, seed):
    """The direct route's factor kernel follows from the scalar laws of its fill.

    For the direct plan's factor draws U_B = Z^{-1} U_Omega, with Z the
    inverse-Wishart fill each was made from, the factor log kernel minus
    (m+1)*log det Z must differ from the summed chi and normal log kernels
    of Z's entries by a draw-independent constant.
    """
    m, n, ndraws = 3, 8, 100
    plan = prepare(SamplerSpec(m, n, ScaleParam(SIGMA_3, iscov=False), retcholu=True), DIRECT)
    draws = plan.draw_many(RngStream(seed, 15), ndraws)
    # The same fills again: the plan's draws consume a stream of the same seed.
    fills = draw_bartlett_invwishart_many(RngStream(seed, 15), m, n, ndraws)
    offsets = np.empty(ndraws)
    for i, (u_b, z) in enumerate(zip(draws, fills)):
        # Summed in C order: the sum's rounding follows the memory order.
        log_pz = -0.5 * float(np.sum(np.square(np.ascontiguousarray(z))))
        for j in range(1, m + 1):
            df = n - m + j
            log_pz += (df - 1.0) * math.log(z[j - 1, j - 1])
        offsets[i] = (
            logkernel_cholinvwishart(u_b, n, plan.factor) + logjac_tri_inverse(z) - log_pz
        )
    return [_offset_record(name, seed, {"m": m, "n": n, "draws": ndraws}, offsets)]


# ---------------------------------------------------------------------------
# univariate reductions


def _scalar_record(check, params, seed, stream, plan, cdf):
    # One-sample KS of params["nsamples"] m=1 draws against a closed-form CDF,
    # as a one-record list.
    draws = plan.draw_many(RngStream(seed, stream), params["nsamples"])[:, 0, 0]
    return [_ks_record(check, params, seed, ks_one_sample(draws, cdf), ALPHA)]


def check_scalar_wishart(name, seed):
    """m=1 draws follow the scaled chi-square law."""
    n, sigma_sq = 4.5, 2.0
    spec = SamplerSpec(1, n, ScaleParam(np.array([[sigma_sq]]), iscov=True))
    return _scalar_record(
        name, {"n": n, "sigma_sq": sigma_sq, "nsamples": 50_000}, seed, 16,
        prepare(spec, WISHART),
        lambda x: chi_square_cdf(x / sigma_sq, n),
    )


def check_scalar_invwishart(name, seed, stream, algorithm):
    """m=1 draws follow the inverse-gamma law (via 2*omega/B ~ chi-square(n))."""
    n, omega = 6, 3.0
    spec = SamplerSpec(1, n, ScaleParam(np.array([[omega]]), iscov=False))
    return _scalar_record(
        name,
        {"n": n, "omega": omega, "nsamples": 50_000, "algorithm": algorithm},
        seed,
        stream,
        prepare(spec, algorithm),
        lambda x: 1.0 - chi_square_cdf(omega / x, n),
    )


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


def check_bench(name, seed, iscov, ischolu, retcholu, faster, streams):
    # Statistic: median time per draw of the ``faster`` route over the other's.
    m, reps = 200, 25
    spec, med_indirect, med_direct, _ = bench_pair(
        m, iscov, ischolu, retcholu, seed, reps=reps, streams=streams
    )
    ratio = med_direct / med_indirect if faster == DIRECT else med_indirect / med_direct
    return [
        CheckRecord(
            name,
            {"m": m, "n": spec.n, "reps": reps, "retcholu": retcholu, "scale": spec.scale.kind()},
            ratio,
            1.0,
            ratio < 1.0,
            seed,
        )
    ]


# ---------------------------------------------------------------------------
# command-line contracts


def _run_sample(tmp, scale, argv):
    """Run ``triwish sample`` in-process on a scale file written under ``tmp``.

    Returns the exit code and what the command wrote to stderr.
    """
    # Imported here: cli imports this module, and importing the suite
    # should not load the command line.
    from . import cli

    scale_path = str(tmp / "scale.csv")
    matio.write_matrices(scale_path, [scale])
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = cli.main(["sample", "--scale", scale_path, *argv])
    return rc, err.getvalue()


def check_cli_determinism(name, seed):
    """Same seed, same flags: byte-identical output files."""
    args = ["--m", "2", "--n", "5", "--iscov", "--seed", str(seed), "--nsamples", "3"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        outs = []
        for out in ("a.csv", "b.csv"):
            rc, _ = _run_sample(tmp, np.eye(2), args + ["--out", str(tmp / out)])
            outs.append((rc, (tmp / out).read_bytes()))
        same = outs[0] == outs[1] and outs[0][0] == 0
    return [
        CheckRecord(
            name,
            {"m": 2, "n": 5, "nsamples": 3},
            0.0 if same else 1.0,
            0.0,
            same,
            seed,
        )
    ]


def check_cli_square(name, seed):
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
            name,
            {"m": 3, "n": 6.5, "nsamples": 4, "algorithm": DIRECT},
            0.0 if same else 1.0,
            0.0,
            same,
            seed,
        )
    ]


# ---------------------------------------------------------------------------
# error contracts


def check_errors_df(name, seed):
    """Too-small degrees of freedom are rejected before any sampling."""
    try:
        SamplerSpec(3, 1.5, ScaleParam(np.eye(3)))
        ok = False
    except InvalidDegreesOfFreedom:
        ok = True
    return [
        CheckRecord(name, {"m": 3, "n": 1.5}, 1.0 if ok else 0.0, 1.0, ok, seed)
    ]


def check_errors_notspd(name, seed):
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
        CheckRecord(name, {"m": 2, "exit": rc}, float(rc), 4.0, ok, seed)
    ]


def check_errors_mean(name, seed):
    """The inverse-Wishart moment check refuses n <= m+1 (mean does not exist)."""
    spec = SamplerSpec(2, 3, ScaleParam(np.eye(2), iscov=False))
    try:
        mc_mean_invwishart(RngStream(seed, 23), spec, DIRECT, 2000)
        ok = False
    except MeanUndefined:
        ok = True
    return [
        CheckRecord(name, {"m": 2, "n": 3}, 1.0 if ok else 0.0, 1.0, ok, seed)
    ]


# ---------------------------------------------------------------------------
# registry

REGISTRY = [
    ("opcount.table", check_opcount, {}),
    # Wishart fill: z_jj^2 is chi-square(n+1-j), off-diagonals are N(0,1).
    ("bartlett.wishart", check_fill_marginals, dict(
        stream=2, draw_many=draw_bartlett_wishart_many, diag_df=lambda m, n, j: n + 1 - j)),
    ("bartlett.wishart.outer", check_wishart_outer, {}),
    # Inverse-Wishart fill: z_jj^2 is chi-square(n-m+j), off-diagonals N(0,1).
    ("bartlett.invwishart", check_fill_marginals, dict(
        stream=5, draw_many=draw_bartlett_invwishart_many, diag_df=lambda m, n, j: n - m + j)),
    ("agreement.invwishart", check_agreement, {}),
    ("moments.wishart", check_moments_wishart, {}),
    ("moments.invwishart.indirect", check_moments_invwishart, dict(stream=9, algorithm=INDIRECT)),
    ("moments.invwishart.direct", check_moments_invwishart, dict(stream=10, algorithm=DIRECT)),
    # FD log|det J| of T -> T^T T against the closed form.
    ("jacobian.chol", check_jacobian, dict(stream=11, map_fn=gram_ut, analytic_fn=logjac_chol)),
    # FD log|det J| of R -> R^{-1} against the closed form.
    ("jacobian.triinv", check_jacobian, dict(
        stream=12, map_fn=tri_inverse, analytic_fn=logjac_tri_inverse)),
    ("density.wishart", check_factor_density, dict(
        stream=13, n=7.5, algorithm=WISHART,
        factor_kernel=logkernel_cholwishart, matrix_kernel=logkernel_wishart)),
    ("density.invwishart", check_factor_density, dict(
        stream=14, n=6.5, algorithm=DIRECT,
        factor_kernel=logkernel_cholinvwishart, matrix_kernel=logkernel_invwishart)),
    ("density.chain", check_density_chain, {}),
    ("scalar.wishart", check_scalar_wishart, {}),
    ("scalar.invwishart.indirect", check_scalar_invwishart, dict(stream=17, algorithm=INDIRECT)),
    ("scalar.invwishart.direct", check_scalar_invwishart, dict(stream=18, algorithm=DIRECT)),
    # Direct beats indirect for a precision-factor scale with factor output.
    ("bench.precchol", check_bench, dict(
        iscov=False, ischolu=True, retcholu=True, faster=DIRECT, streams=(19, 20))),
    # Indirect beats direct for a covariance scale with full-matrix output.
    ("bench.cov", check_bench, dict(
        iscov=True, ischolu=False, retcholu=False, faster=INDIRECT, streams=(21, 22))),
    ("cli.determinism", check_cli_determinism, {}),
    ("cli.square", check_cli_square, {}),
    ("errors.df", check_errors_df, {}),
    ("errors.notspd", check_errors_notspd, {}),
    ("errors.mean", check_errors_mean, {}),
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


def run_checks(seed=DEFAULT_SEED, only=None):
    """Run the rows whose name matches the comma-separated filter ``only``;
    records come back in registry order."""
    return [
        record
        for name, fn, kwargs in REGISTRY
        if _selected(name, only)
        for record in fn(name, seed, **kwargs)
    ]
