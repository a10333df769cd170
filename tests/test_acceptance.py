"""Acceptance gate: one test per release criterion, each with a runtime budget.

Every test runs its criterion's registry rows through ``suite.run_checks``,
the path ``triwish validate --only`` takes, records a single PASS/FAIL line
through the ``criterion`` fixture, and fails if the filter selects other
records than the criterion's, if any of them fails, or if the budget is
exceeded.
"""

import contextlib
import io
import time

from triwish import suite
from triwish.cli import main as cli_main

SEED = suite.DEFAULT_SEED


ROWS = [name for name, _, _ in suite.REGISTRY]


def _row(check):
    # A record's row: its own name, or a fill row's name plus .diag/.offdiag.
    return ROWS.index(check if check in ROWS else check.rpartition(".")[0])


def _run(only, names):
    # The records of the rows ``only`` selects.  ``names`` is exactly the set
    # of their record names, so a filter that selects nothing cannot pass,
    # and the records come in registry order.
    start = time.perf_counter()
    records = suite.run_checks(SEED, only)
    elapsed = time.perf_counter() - start
    assert {r.check for r in records} == set(names)
    rows = [_row(r.check) for r in records]
    assert rows == sorted(rows)
    return records, elapsed


def _finish(criterion, num, description, budget, records, elapsed):
    ok = all(r.passed for r in records) and elapsed < budget
    criterion(num, ok, elapsed, description)
    failed = [(r.check, r.statistic, r.threshold) for r in records if not r.passed]
    assert not failed, f"failed checks: {failed}"
    assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"


def test_criterion_01_opcount_table(criterion):
    start = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(["opcount"])
    records, _ = _run("opcount", ["opcount.table"])
    elapsed = time.perf_counter() - start
    ok = rc == 0 and "verdict: MATCH 16/16" in buf.getvalue() and all(
        r.passed for r in records
    )
    criterion(1, ok and elapsed < 1.0, elapsed, "op-count table matches on all 16 combinations")
    assert rc == 0
    assert "verdict: MATCH 16/16" in buf.getvalue()
    assert all(r.passed for r in records)
    assert elapsed < 1.0


def test_criterion_02_wishart_fill_marginals(criterion):
    records, elapsed = _run(
        "bartlett.wishart",
        ["bartlett.wishart.diag", "bartlett.wishart.offdiag", "bartlett.wishart.outer"],
    )
    _finish(
        criterion, 2,
        "Wishart fill marginals and outer-product cross-check",
        30.0, records, elapsed,
    )


def test_criterion_03_invwishart_fill_and_agreement(criterion):
    records, elapsed = _run(
        "bartlett.invwishart,agreement",
        ["bartlett.invwishart.diag", "bartlett.invwishart.offdiag", "agreement.invwishart"],
    )
    _finish(
        criterion, 3,
        "inverse-Wishart fill marginals and two-algorithm agreement",
        60.0, records, elapsed,
    )


def test_criterion_04_monte_carlo_means(criterion):
    records, elapsed = _run(
        "moments",
        ["moments.wishart", "moments.invwishart.indirect", "moments.invwishart.direct"],
    )
    _finish(
        criterion, 4,
        "Monte Carlo means match n*Sigma and Omega/(n-m-1)",
        60.0, records, elapsed,
    )


def test_criterion_05_jacobians(criterion):
    records, elapsed = _run("jacobian", ["jacobian.chol", "jacobian.triinv"])
    _finish(
        criterion, 5,
        "finite-difference Jacobians match the closed forms",
        5.0, records, elapsed,
    )


def test_criterion_06_density_consistency(criterion):
    records, elapsed = _run("density", ["density.wishart", "density.invwishart", "density.chain"])
    _finish(
        criterion, 6,
        "factor and matrix log-kernels agree up to constants",
        5.0, records, elapsed,
    )


def test_criterion_07_scalar_reductions(criterion):
    records, elapsed = _run(
        "scalar",
        ["scalar.wishart", "scalar.invwishart.indirect", "scalar.invwishart.direct"],
    )
    _finish(
        criterion, 7,
        "m=1 draws follow the gamma and inverse-gamma laws",
        10.0, records, elapsed,
    )


def test_criterion_08_bench_orderings(criterion):
    records, elapsed = _run("bench", ["bench.precchol", "bench.cov"])
    _finish(
        criterion, 8,
        "algorithm runtimes order as the op counts predict at m=200",
        60.0, records, elapsed,
    )


def test_criterion_09_reproducibility(criterion):
    records, elapsed = _run("cli", ["cli.determinism", "cli.square"])
    _finish(
        criterion, 9,
        "sample files are byte-stable and --square round-trips",
        5.0, records, elapsed,
    )


def test_criterion_10_parameter_guards(criterion):
    records, elapsed = _run("errors", ["errors.df", "errors.notspd", "errors.mean"])
    _finish(
        criterion, 10,
        "bad degrees of freedom, non-SPD scales, undefined means rejected",
        1.0, records, elapsed,
    )
