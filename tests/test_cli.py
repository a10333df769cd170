"""End-to-end tests of the triwish command line interface.

``tests/data/golden_cli_v1.json`` pins the bytes the CLI writes: the sha256
of ``triwish sample`` CSV and NDJSON files for every (param, route,
retcholu) combination, the ``triwish opcount`` table, and the sha256 of a
``triwish validate`` report over its deterministic checks.  It was generated
by running this module as a script (it refuses to overwrite the file without
``--force``):

    PYTHONPATH=src python tests/test_cli.py

Matrix outputs pass through OpenBLAS kernels, so the digests are exact only
on the platform (CPU, numpy, scipy, OpenBLAS) where the file was made.
"""

import hashlib
import io
import json
import pathlib
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwish import cli, matio, suite
from triwish.cli import main
from triwish.densities import logkernel_wishart
from triwish.linalg import chol_upper
from triwish.samplers import ScaleParam, cholesky_upper_param

SIGMA_2 = np.array([[2.0, 0.6], [0.6, 1.0]])

GOLDEN_CLI = pathlib.Path(__file__).parent / "data" / "golden_cli_v1.json"
GOLDEN_SQUARE_5 = np.array(
    [
        [2.0, 0.3, -0.2, 0.1, 0.4],
        [0.3, 1.5, 0.25, -0.1, 0.2],
        [-0.2, 0.25, 1.0, 0.3, -0.15],
        [0.1, -0.1, 0.3, 2.5, 0.5],
        [0.4, 0.2, -0.15, 0.5, 1.75],
    ]
)
GOLDEN_FACTOR_5 = np.array(
    [
        [1.5, 0.2, -0.3, 0.1, 0.25],
        [0.0, 1.2, 0.4, -0.2, 0.1],
        [0.0, 0.0, 0.8, 0.3, -0.1],
        [0.0, 0.0, 0.0, 1.1, 0.2],
        [0.0, 0.0, 0.0, 0.0, 0.9],
    ]
)
GOLDEN_VALIDATE_ONLY = "opcount,jacobian,density,cli,errors"


def write_scale(tmp_path, matrix, name="scale.csv", kind=matio.KIND_SQUARE):
    path = tmp_path / name
    matio.write_matrices(str(path), [np.asarray(matrix, dtype=float)], kinds=kind)
    return str(path)


def run_cli(argv):
    return main(argv)


def _sha256_file(path):
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def golden_cli_record(tmp_path):
    """Recompute everything ``golden_cli_v1.json`` pins, with the CLI in-process."""
    scales = {
        "square": write_scale(tmp_path, GOLDEN_SQUARE_5, "square5.csv"),
        "factor": write_scale(tmp_path, GOLDEN_FACTOR_5, "factor5.csv", kind=matio.KIND_CHOLU),
    }
    sample = {}
    for param in ("cov", "cov_chol", "prec", "prec_chol"):
        scale = scales["factor" if param.endswith("_chol") else "square"]
        iscov = ["--iscov"] if param.startswith("cov") else []
        for route in ("indirect", "direct"):
            for retcholu in (False, True):
                for fmt in ("csv", "ndjson"):
                    out = tmp_path / f"sample.{fmt}"
                    argv = [
                        "sample", "--m", "5", "--n", "7.5", "--scale", scale, *iscov,
                        "--algorithm", route, *(["--retcholu"] if retcholu else []),
                        "--seed", "7", "--nsamples", "3", "--format", fmt, "--out", str(out),
                    ]
                    with redirect_stdout(io.StringIO()):
                        assert main(argv) == 0
                    sample[f"{param}/{route}/retcholu={int(retcholu)}/{fmt}"] = _sha256_file(out)
    opcount = io.StringIO()
    with redirect_stdout(opcount):
        assert main(["opcount"]) == 0
    report = tmp_path / "validate.ndjson"
    with redirect_stderr(io.StringIO()):
        rc = main([
            "validate", "--seed", "424242", "--only", GOLDEN_VALIDATE_ONLY, "--out", str(report),
        ])
    assert rc == 0
    return {
        "sample": sample,
        "opcount": opcount.getvalue().splitlines(),
        "validate": {"only": GOLDEN_VALIDATE_ONLY, "sha256": _sha256_file(report)},
    }


def test_cli_output_matches_golden(tmp_path):
    stored = json.loads(GOLDEN_CLI.read_text())
    assert len(stored["sample"]) == 32
    assert golden_cli_record(tmp_path) == stored


def test_cli_output_matches_golden_without_the_compiled_loop(tmp_path, no_compiled_loop):
    assert golden_cli_record(tmp_path) == json.loads(GOLDEN_CLI.read_text())


def test_sample_roundtrip_csv(tmp_path, capsys):
    scale = write_scale(tmp_path, np.eye(2))
    out = tmp_path / "draws.csv"
    rc = run_cli([
        "sample", "--n", "5", "--scale", scale, "--iscov",
        "--seed", "7", "--nsamples", "3", "--out", str(out),
    ])
    assert rc == 0
    assert "wrote 3 draw(s)" in capsys.readouterr().out
    header, blocks = matio.read_matrices(str(out))
    assert len(blocks) == 3
    assert all(kind == matio.KIND_SQUARE for kind, _ in blocks)
    assert all(mat.shape == (2, 2) for _, mat in blocks)
    assert any(line.startswith("triwish sample") for line in header)
    assert any("seed=7 nsamples=3" in line for line in header)


def test_sample_roundtrip_ndjson_matches_csv(tmp_path):
    scale = write_scale(tmp_path, SIGMA_2)
    outs = {}
    for fmt in ("csv", "ndjson"):
        out = tmp_path / f"draws.{fmt}"
        rc = run_cli([
            "sample", "--n", "6", "--scale", scale, "--iscov", "--retcholu",
            "--seed", "11", "--nsamples", "2", "--format", fmt, "--out", str(out),
        ])
        assert rc == 0
        _, blocks = matio.read_matrices(str(out))
        outs[fmt] = blocks
    for (ka, a), (kb, b) in zip(outs["csv"], outs["ndjson"]):
        assert ka == kb == matio.KIND_CHOLU
        assert a.tobytes() == b.tobytes()


def test_sample_deterministic_bytes(tmp_path):
    scale = write_scale(tmp_path, np.eye(2))
    paths = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = run_cli([
            "sample", "--m", "2", "--n", "5", "--scale", scale, "--iscov",
            "--seed", "123", "--nsamples", "4", "--out", str(out),
        ])
        assert rc == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sample_auto_resolution_recorded(tmp_path):
    prec = write_scale(tmp_path, np.eye(2), "prec.csv")
    out = tmp_path / "draws.csv"
    rc = run_cli(["sample", "--n", "5", "--scale", prec, "--out", str(out)])
    assert rc == 0
    header, _ = matio.read_matrices(str(out))
    assert any("algorithm=direct requested=auto" in line for line in header)

    out2 = tmp_path / "draws2.csv"
    rc = run_cli(["sample", "--n", "5", "--scale", prec, "--iscov", "--out", str(out2)])
    assert rc == 0
    header, _ = matio.read_matrices(str(out2))
    assert any("algorithm=indirect requested=auto" in line for line in header)


def test_sample_header_records_op_counts(tmp_path):
    prec = write_scale(tmp_path, np.eye(3), "prec.csv")
    out = tmp_path / "draws.csv"
    rc = run_cli(["sample", "--n", "6", "--scale", prec, "--out", str(out)])
    assert rc == 0
    header, _ = matio.read_matrices(str(out))
    assert any(line == "opcount potrf=1 trtri=1 trmm=2" for line in header)


def test_sample_square_matches_full_matrix_output(tmp_path):
    scale = write_scale(tmp_path, SIGMA_2)
    base = ["--n", "6.5", "--scale", scale, "--iscov", "--algorithm", "direct",
            "--seed", "31", "--nsamples", "3"]
    full_out = tmp_path / "full.csv"
    sq_out = tmp_path / "square.csv"
    assert run_cli(["sample", *base, "--out", str(full_out)]) == 0
    assert run_cli(["sample", *base, "--retcholu", "--square", "--out", str(sq_out)]) == 0
    _, full_blocks = matio.read_matrices(str(full_out))
    _, sq_blocks = matio.read_matrices(str(sq_out))
    for (ka, a), (kb, b) in zip(full_blocks, sq_blocks):
        assert ka == kb == matio.KIND_SQUARE
        assert a.tobytes() == b.tobytes()


def test_sample_square_requires_retcholu(tmp_path, capsys):
    scale = write_scale(tmp_path, np.eye(2))
    rc = run_cli(["sample", "--n", "5", "--scale", scale, "--square", "--out", "-"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_sample_square_without_retcholu_is_invalid_whatever_the_scale_file(tmp_path, capsys):
    # The flags are checked before the scale is read: a missing scale file
    # once made this an I/O error (exit 3).
    missing = str(tmp_path / "no-such-scale.csv")
    rc = run_cli(["sample", "--n", "5", "--scale", missing, "--square", "--out", "-"])
    assert rc == 2
    assert "--square" in capsys.readouterr().err


def test_sample_df_rejected_before_output(tmp_path, capsys):
    scale = write_scale(tmp_path, np.eye(3))
    out = tmp_path / "never.csv"
    rc = run_cli(["sample", "--n", "1.5", "--scale", scale, "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["inf", "-inf", "nan"])
def test_sample_non_finite_df_rejected(tmp_path, capsys, n):
    scale = write_scale(tmp_path, np.eye(2))
    out = tmp_path / "never.csv"
    rc = run_cli(["sample", "--n", n, "--scale", scale, "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["inf", "-inf", "nan"])
def test_density_non_finite_df_rejected(tmp_path, capsys, n):
    scale = write_scale(tmp_path, np.eye(2))
    out = tmp_path / "never.ndjson"
    rc = run_cli(["density", "invwishart", scale, "--n", n, "--scale", scale, "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["inf", "nan", "1.5"])
def test_density_df_checked_before_reading_points(tmp_path, capsys, n):
    # A points file with no matrices gives the kernels nothing to check.
    scale = write_scale(tmp_path, np.eye(3))
    points = tmp_path / "empty.csv"
    points.write_text("")
    out = tmp_path / "never.ndjson"
    rc = run_cli(["density", "invwishart", str(points), "--n", n, "--scale", scale,
                  "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_density_non_utf8_matrix_file_exit_code(tmp_path, capsys):
    scale = write_scale(tmp_path, np.eye(2))
    points = tmp_path / "points.csv"
    points.write_bytes(b"# m=2 kind=square\n\xff,\xfe\n")
    rc = run_cli(["density", "wishart", str(points), "--n", "5", "--scale", scale, "--iscov"])
    assert rc == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_density_block_size_too_long_to_convert_exit_code(tmp_path, capsys):
    # More digits than int() converts from a string (4300 by default).
    scale = write_scale(tmp_path, np.eye(2))
    points = tmp_path / "points.csv"
    points.write_bytes(b"# m=" + b"9" * 5000 + b" kind=square\n1.0\n")
    rc = run_cli(["density", "wishart", str(points), "--n", "5", "--scale", scale, "--iscov"])
    assert rc == 2
    assert "block size on line 1 is too large" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["wishart", "invwishart", "cholwishart", "cholinvwishart"])
def test_density_block_of_another_size_names_both_sizes(tmp_path, capsys, kind):
    # A 3x3 identity is a valid point and factor, so only the sizes clash;
    # each kernel checks the block against the scale factor.
    scale = write_scale(tmp_path, np.eye(2))
    points = tmp_path / "points.csv"
    matio.write_matrices(str(points), [np.eye(3)])
    out = tmp_path / "never.ndjson"
    rc = run_cli(["density", kind, str(points), "--n", "5", "--scale", scale, "--out", str(out)])
    assert rc == 2
    assert "point is 3x3, scale factor 2x2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["wishart", "invwishart", "cholwishart", "cholinvwishart"])
def test_density_non_finite_point_is_invalid_input(tmp_path, capsys, kind):
    scale = write_scale(tmp_path, np.eye(2))
    points = tmp_path / "points.csv"
    matio.write_matrices(str(points), [[[1.0, 0.0], [0.0, np.nan]]])
    out = tmp_path / "never.ndjson"
    rc = run_cli(["density", kind, str(points), "--n", "5", "--scale", scale, "--out", str(out)])
    assert rc == 2
    assert "has non-finite entries" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["wishart", "invwishart"])
def test_density_not_positive_definite_point_exit_code(tmp_path, capsys, kind):
    scale = write_scale(tmp_path, np.eye(2))
    points = tmp_path / "points.csv"
    matio.write_matrices(str(points), [[[1.0, 2.0], [2.0, 1.0]]])
    rc = run_cli(["density", kind, str(points), "--n", "5", "--scale", scale, "--out", "-"])
    assert rc == 4
    assert "not positive definite" in capsys.readouterr().err


@pytest.mark.parametrize("nsamples", ["0", "-3"])
def test_sample_nonpositive_nsamples_rejected(tmp_path, capsys, nsamples):
    scale = write_scale(tmp_path, np.eye(2))
    out = tmp_path / "never.csv"
    argv = ["sample", "--n", "5", "--scale", scale, "--nsamples", nsamples, "--out", str(out)]
    rc = run_cli(argv)
    assert rc == 2
    assert "--nsamples" in capsys.readouterr().err
    assert not out.exists()


def test_sample_not_spd_exit_code(tmp_path, capsys):
    scale = write_scale(tmp_path, np.array([[1.0, 2.0], [2.0, 1.0]]))
    rc = run_cli(["sample", "--n", "5", "--scale", scale, "--iscov", "--out", "-"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "numerical failure:" in err
    assert "pivot" in err


def test_sample_overflowing_draw_exit_code(tmp_path, capsys):
    # The Wishart factor 6.6e-297 * chi inverts to about 1.5e296 / chi, whose
    # square overflows: the draw is inf, which must not be written.
    scale = write_scale(tmp_path, [[6.6e-297]], "tiny.csv", kind=matio.KIND_CHOLU)
    out = tmp_path / "draws.csv"
    rc = run_cli([
        "sample", "--n", "1", "--scale", scale, "--iscov", "--ischolu",
        "--algorithm", "indirect", "--seed", "1", "--out", str(out),
    ])
    assert rc == 4
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


def test_sample_missing_scale_file(tmp_path, capsys):
    rc = run_cli(["sample", "--n", "5", "--scale", str(tmp_path / "nope.csv")])
    assert rc == 3
    assert "I/O error:" in capsys.readouterr().err


def test_sample_m_mismatch(tmp_path, capsys):
    scale = write_scale(tmp_path, np.eye(3))
    rc = run_cli(["sample", "--m", "2", "--n", "5", "--scale", scale])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exit_code(tmp_path, capsys):
    scale = write_scale(tmp_path, np.eye(2))
    rc = run_cli(["sample", "--n", "5", "--scale", scale, "--frobnicate"])
    assert rc == 2
    capsys.readouterr()


def test_sample_stdout_output(tmp_path, capsys):
    scale = write_scale(tmp_path, np.eye(1))
    rc = run_cli(["sample", "--n", "4", "--scale", scale, "--seed", "9", "--out", "-"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("#")
    assert "# m=1 kind=square" in out


def test_opcount_table_and_verdict(capsys):
    rc = run_cli(["opcount"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: MATCH 16/16" in out
    assert re.search(r"prec\s+direct\s+1\s+2\(1\)\s+1", out)
    assert re.search(r"cov_chol\s+indirect\s+1\s+2\s+0\(1\)", out)


def test_density_matches_library(tmp_path, capsys):
    scale_path = write_scale(tmp_path, SIGMA_2)
    u_sigma = chol_upper(SIGMA_2)
    rng = np.random.default_rng(5)
    mats = []
    for _ in range(3):
        g = rng.standard_normal((6, 2)) @ u_sigma
        mats.append(g.T @ g)
    mats_path = tmp_path / "points.csv"
    matio.write_matrices(str(mats_path), mats)
    rc = run_cli([
        "density", "wishart", str(mats_path), "--n", "6",
        "--scale", scale_path, "--iscov", "--out", "-",
    ])
    assert rc == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["index"] for r in records] == [0, 1, 2]
    expected = [
        float(logkernel_wishart(mat, 6.0, u_sigma)) for mat in mats
    ]
    got = [r["logkernel"] for r in records]
    np.testing.assert_allclose(got, expected, rtol=0, atol=0)


def test_density_csv_format(tmp_path, capsys):
    scale_path = write_scale(tmp_path, np.eye(2))
    mats_path = tmp_path / "points.csv"
    matio.write_matrices(str(mats_path), [np.eye(2)])
    rc = run_cli([
        "density", "invwishart", str(mats_path), "--n", "5",
        "--scale", scale_path, "--format", "csv", "--out", "-",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "index,logkernel"
    assert lines[1].startswith("0,")
    assert float(lines[1].split(",")[1]) == -1.0  # -tr(I)/2 at B=Omega=I


def test_validate_only_jacobians(tmp_path, capsys):
    out = tmp_path / "report.ndjson"
    rc = run_cli(["validate", "--only", "jacobians", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    names = sorted({r["check"] for r in records})
    assert names == ["jacobian.chol", "jacobian.triinv"]
    assert all(r["pass"] for r in records)


def test_validate_seed_changes_statistics_not_verdicts(tmp_path, capsys):
    stats = {}
    for seed in (11, 12):
        out = tmp_path / f"report{seed}.ndjson"
        rc = run_cli([
            "validate", "--only", "jacobian", "--seed", str(seed), "--out", str(out),
        ])
        capsys.readouterr()
        assert rc == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(r["pass"] for r in records)
        assert all(r["seed"] == seed for r in records)
        stats[seed] = [r["statistic"] for r in records]
    assert stats[11] != stats[12]


def test_validate_csv_format(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = run_cli(["validate", "--only", "density", "--format", "csv", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check,params,statistic,threshold,pass,seed"
    assert len(lines) >= 4


def test_validate_unmatched_filter(capsys):
    # --only matches row names: "diag" is only a suffix of the fill rows' records.
    for only in ("zzz-no-such-check", "diag"):
        rc = run_cli(["validate", "--only", only])
        assert rc == 2
        assert "matched no checks" in capsys.readouterr().err


@pytest.mark.parametrize("only", ["", "ss", "sss,", " , "])
def test_validate_filter_that_strips_to_nothing_matches_no_checks(capsys, only):
    # Stripping the plural "s" from "ss" once left an empty token, which
    # matched, and ran, all 23 checks; so did an empty filter.  Only a
    # missing --only means every check.
    rc = run_cli(["validate", "--only", only])
    assert rc == 2
    assert "matched no checks" in capsys.readouterr().err


@pytest.mark.parametrize("only", ["errors.df", "opcount"])
@pytest.mark.parametrize("seed", ["-5", str(2 ** 64)])
def test_validate_rejects_out_of_range_seed(tmp_path, capsys, only, seed):
    # errors.df makes no RngStream, so the seed is checked before any check runs.
    out = tmp_path / "report.ndjson"
    rc = run_cli(["validate", "--only", only, "--seed", seed, "--out", str(out)])
    assert rc == 2
    assert "seed must fit in an unsigned 64-bit integer" in capsys.readouterr().err
    assert not out.exists()


def test_bench_smoke(capsys):
    rc = run_cli(["bench", "--m", "24", "--reps", "2", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "m=24" in out
    assert "indirect" in out and "direct" in out
    assert "ratios direct/indirect:" in out


def _timed_specs(monkeypatch, run):
    # What each suite.time_algorithm call would time; no draw runs.
    calls = []

    def record(seed, stream, spec, algorithm, reps=25):
        scale = spec.scale
        calls.append((algorithm, spec.m, spec.n, scale.matrix.tobytes(), scale.iscov,
                      scale.ischolu, spec.retcholu))
        return 1e-3

    monkeypatch.setattr(suite, "time_algorithm", record)
    run()
    return calls


@pytest.mark.parametrize("flags, only, table", [
    (["--ischolu", "--retcholu"], "bench.precchol",
     ["m=200 n=202 scale=prec_chol retcholu=1 reps=1 warmup=5",
      "indirect   1.000        2      3      2     ",
      "direct     1.000        1      1      0     ",
      "ratios direct/indirect: ops=0.29 time=1.000"]),
    (["--iscov"], "bench.cov",
     ["m=200 n=202 scale=cov retcholu=0 reps=1 warmup=5",
      "indirect   1.000        1      2      1     ",
      "direct     1.000        2      3      2     ",
      "ratios direct/indirect: ops=1.75 time=1.000"]),
])
def test_bench_times_the_spec_criterion_8_times(monkeypatch, capsys, flags, only, table):
    timed = _timed_specs(monkeypatch, lambda: main(["bench", "--m", "200", *flags, "--reps", "1"]))
    lines = capsys.readouterr().out.splitlines()
    assert timed == _timed_specs(monkeypatch, lambda: suite.run_checks(only=only))
    assert [algorithm for algorithm, *_ in timed] == ["indirect", "direct"]
    assert lines == [table[0], "algorithm  median_ms    TRTRI  TRMM   POTRF ", *table[1:]]


def test_bench_rejects_bad_m(capsys):
    rc = run_cli(["bench", "--m", "0", "--reps", "1"])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--reps", "0"],
    ["--reps", "-1"],
    ["--m", "4", "--reps", "0"],
    ["--m", "4", "--m", "0", "--reps", "2"],
    ["--m", "-3", "--m", "4"],
])
def test_bench_rejects_bad_sizes_before_timing(capsys, argv):
    rc = run_cli(["bench", *argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "must be a positive integer" in captured.err


@pytest.mark.parametrize("fmt", ["csv", "ndjson"])
@pytest.mark.parametrize("command", ["sample", "density", "validate"])
def test_output_has_the_same_bytes_on_stdout_as_in_a_file(tmp_path, command, fmt):
    scale = write_scale(tmp_path, SIGMA_2)
    points = tmp_path / "points.csv"
    matio.write_matrices(str(points), [SIGMA_2, np.eye(2)])
    argv = {
        "sample": ["sample", "--n", "6", "--scale", scale, "--iscov", "--seed", "5",
                   "--nsamples", "3"],
        "density": ["density", "invwishart", str(points), "--n", "6", "--scale", scale],
        "validate": ["validate", "--only", "errors"],
    }[command] + ["--format", fmt]
    path = tmp_path / f"out.{fmt}"
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        assert main([*argv, "--out", "-"]) == 0
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main([*argv, "--out", str(path)]) == 0
    assert stdout.getvalue()
    assert stdout.getvalue().encode("utf-8") == path.read_bytes()


def test_parser_is_built_once_and_a_failed_parse_leaves_it_as_it_was(capsys):
    cli.build_parser.cache_clear()
    argv = ["bench", "--m", "4", "--m", "5", "--reps", "2", "--iscov"]
    before = vars(cli.build_parser().parse_args(argv))
    assert main(["opcount"]) == 0
    assert main(["bench", "--m", "x"]) == 2
    assert main(["sample", "--bogus"]) == 2
    assert main(["validate", "--only", "errors.df", "--out", "-"]) == 0
    assert vars(cli.build_parser().parse_args(argv)) == before
    assert cli.build_parser.cache_info().misses == 1
    capsys.readouterr()


def test_scale_file_can_hold_factor(tmp_path):
    u_sigma = cholesky_upper_param(ScaleParam(SIGMA_2), invert=False)
    chol_path = write_scale(tmp_path, u_sigma, "factor.csv", kind=matio.KIND_CHOLU)
    square_path = write_scale(tmp_path, SIGMA_2, "square.csv")
    outs = []
    for path, extra in ((chol_path, []), (square_path, [])):
        out = tmp_path / f"out{len(outs)}.csv"
        rc = run_cli([
            "sample", "--n", "6", "--scale", path, "--iscov", *extra,
            "--seed", "21", "--nsamples", "2", "--out", str(out),
        ])
        assert rc == 0
        _, blocks = matio.read_matrices(str(out))
        outs.append(blocks)
    # A factor file is detected from its kind tag; the factor route skips the
    # initial POTRF but the draws follow the same law, so shapes agree here.
    assert all(mat.shape == (2, 2) for _, mat in outs[0])
    assert all(mat.shape == (2, 2) for _, mat in outs[1])


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Fixed inputs for the argv property: good, bad and missing files."""
    d = tmp_path_factory.mktemp("cli_argv")
    (d / "not_utf8.csv").write_bytes(b"# m=2 kind=square\n\xff,\xfe\n")
    (d / "junk.csv").write_text("1,2\nthree\n")
    points = d / "points.ndjson"
    matio.write_matrices(str(points), [SIGMA_2, np.eye(2)], fmt="ndjson")
    return {
        "@spd": write_scale(d, SIGMA_2, "spd.csv"),
        "@factor": write_scale(d, np.array([[1.5, 0.2], [0.0, 0.8]]), "factor.csv",
                               kind=matio.KIND_CHOLU),
        "@not_spd": write_scale(d, np.array([[1.0, 2.0], [2.0, 1.0]]), "not_spd.csv"),
        "@three": write_scale(d, np.eye(3), "three.csv"),
        "@points": str(points),
        "@not_utf8": str(d / "not_utf8.csv"),
        "@junk": str(d / "junk.csv"),
        "@missing": str(d / "missing.csv"),
        "@out": str(d / "out.txt"),
        "@dir": str(d),
    }


_FILE = st.sampled_from(["@spd", "@factor", "@not_spd", "@three", "@points", "@not_utf8",
                         "@junk", "@missing"])
_NUMBER = st.sampled_from(["0", "1", "2", "3", "-1", "2.5", "7.5", "nan", "inf", "1e400", "x"])
_FLAG = st.one_of(
    st.sampled_from([["--iscov"], ["--ischolu"], ["--retcholu"], ["--square"], ["--bogus"]]),
    st.tuples(st.sampled_from(["--m", "--n", "--nsamples"]), _NUMBER).map(list),
    st.tuples(st.just("--scale"), _FILE).map(list),
    st.tuples(st.just("--seed"), st.sampled_from(["0", "7", "-5", str(2 ** 64), "x"])).map(list),
    st.tuples(st.just("--algorithm"), st.sampled_from(["indirect", "direct", "auto", "x"])).map(list),
    st.tuples(st.just("--format"), st.sampled_from(["csv", "ndjson", "xml"])).map(list),
    st.tuples(st.just("--out"), st.sampled_from(["@out", "@dir", "-"])).map(list),
)
_SMALL = st.sampled_from(["-1", "0", "1", "2", "3", "x"])
# validate and bench always get a small workload: an --only set of fast
# checks (or none that match), and --m and --reps of at most 3.
_HEAD = st.one_of(
    st.just(["sample"]),
    st.just(["opcount"]),
    st.tuples(st.just("density"), st.sampled_from(["wishart", "invwishart", "cholwishart",
                                                   "cholinvwishart", "x"]), _FILE).map(list),
    st.tuples(st.just("validate"), st.just("--only"),
              st.sampled_from(["errors", "jacobian.chol", "opcount", "cli", "zzz"])).map(list),
    st.tuples(st.just("bench"), st.just("--m"), _SMALL, st.just("--reps"), _SMALL).map(list),
)


@settings(max_examples=150, deadline=None)
@given(head=_HEAD, flags=st.lists(_FLAG, max_size=8))
def test_any_argv_exits_with_a_documented_code(cli_files, head, flags):
    argv = [cli_files.get(token, token) for token in head + sum(flags, [])]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 2, 3, 4), argv


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "triwish.cli", "opcount"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "verdict: MATCH 16/16" in proc.stdout


if __name__ == "__main__":
    import tempfile

    if GOLDEN_CLI.exists() and "--force" not in sys.argv[1:]:
        sys.exit(f"{GOLDEN_CLI.name} exists; pass --force to overwrite it")

    with tempfile.TemporaryDirectory() as tmp:
        record = golden_cli_record(pathlib.Path(tmp))
    GOLDEN_CLI.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
