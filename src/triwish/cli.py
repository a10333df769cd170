"""Command-line front end.

Subcommands: ``sample`` writes matrix draws to a file, ``density`` evaluates
log kernels for matrices read from a file, ``opcount`` prints the kernel-call
table for all parameterization/algorithm combinations and verifies it against
the embedded expectations, ``validate`` runs the statistical check suite and
emits an NDJSON report, and ``bench`` times the two inverse-Wishart
algorithms side by side.

Exit codes: 0 success, 2 invalid arguments or inputs, 3 I/O failure,
4 numerical failure (for example a scale matrix that is not positive
definite).
"""

import argparse
import csv
import functools
import json
import sys

from . import matio, suite
from .densities import (
    logkernel_cholinvwishart,
    logkernel_cholwishart,
    logkernel_invwishart,
    logkernel_wishart,
)
from .errors import DimensionMismatch, InvalidParameter, NumericalFailure, TriwishError
from .linalg import OpCounter, gram_ut
from .rng import RngStream
from .samplers import (
    DIRECT,
    INDIRECT,
    SamplerSpec,
    ScaleParam,
    _check_df,
    check_draw,
    cholesky_upper_param,
    prepare,
)

_FLAG = {False: "0", True: "1"}


def _add_scale_flags(p):
    p.add_argument("--scale", required=True, help="matrix file holding the scale parameter")
    p.add_argument(
        "--iscov",
        action="store_true",
        help="scale is a covariance (default: precision)",
    )
    p.add_argument(
        "--ischolu",
        action="store_true",
        help="scale file holds an upper Cholesky factor instead of the full matrix",
    )


def _add_out_flags(p, default_format="csv"):
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.add_argument(
        "--format", choices=("csv", "ndjson"), default=default_format, help="output format"
    )


def _load_scale(args, m=None):
    kind, matrix = matio.read_single_matrix(args.scale)
    ischolu = args.ischolu or kind == matio.KIND_CHOLU
    scale = ScaleParam(matrix, iscov=args.iscov, ischolu=ischolu)
    if m is not None and m != scale.dim:
        raise DimensionMismatch(f"--m {m} does not match the {scale.dim}x{scale.dim} scale matrix")
    return scale


def cmd_sample(args):
    if args.nsamples < 1:
        raise InvalidParameter(f"--nsamples must be a positive integer, got {args.nsamples}")
    if args.square and not args.retcholu:
        raise InvalidParameter("--square only applies with --retcholu")
    scale = _load_scale(args, args.m)
    spec = SamplerSpec(scale.dim, args.n, scale, retcholu=args.retcholu)
    rng = RngStream(args.seed)
    # The header's opcount books setup plus one draw.
    counter = OpCounter()
    plan = prepare(spec, args.algorithm, counter)
    mats = [plan.draw(rng, counter)]
    mats += [plan.draw(rng) for _ in range(args.nsamples - 1)]
    if args.square:
        mats = [check_draw(gram_ut(draw, owned=True)) for draw in mats]
    factor_out = args.retcholu and not args.square
    kind = matio.KIND_CHOLU if factor_out else matio.KIND_SQUARE
    header = [
        "triwish sample",
        "m={} n={} iscov={} ischolu={} retcholu={} square={}".format(
            spec.m,
            repr(float(spec.n)),
            _FLAG[scale.iscov],
            _FLAG[scale.ischolu],
            _FLAG[spec.retcholu],
            _FLAG[args.square],
        ),
        f"algorithm={plan.algorithm} requested={args.algorithm}",
        f"seed={args.seed} nsamples={args.nsamples} format={args.format}",
        "opcount potrf={} trtri={} trmm={}".format(counter.potrf, counter.trtri, counter.trmm),
    ]
    matio.write_matrices(args.out, mats, kinds=kind, header=header, fmt=args.format)
    if args.out != "-":
        print(f"wrote {args.nsamples} draw(s) to {args.out} [algorithm={plan.algorithm}]")
    return 0


_KERNELS = {
    "wishart": (logkernel_wishart, False),
    "invwishart": (logkernel_invwishart, True),
    "cholwishart": (logkernel_cholwishart, False),
    "cholinvwishart": (logkernel_cholinvwishart, True),
}


def cmd_density(args):
    kernel, wants_omega = _KERNELS[args.kind]
    scale = _load_scale(args)
    # Checked before the points are read, so an empty points file is no escape.
    _check_df(scale.dim, args.n)
    # The kernels take the factor of Sigma (Wishart) or Omega (inverse-Wishart);
    # invert when the provided scale lives on the other side.
    invert = args.iscov if wants_omega else not args.iscov
    factor = cholesky_upper_param(scale, invert=invert)
    _, blocks = matio.read_matrices(args.matrices)
    values = [float(kernel(mat, args.n, factor)) for _, mat in blocks]
    with matio.open_output(args.out) as fh:
        if args.format == "ndjson":
            for i, v in enumerate(values):
                fh.write(json.dumps({"index": i, "kind": args.kind, "n": args.n, "logkernel": v}) + "\n")
        else:
            fh.write("index,logkernel\n")
            for i, v in enumerate(values):
                fh.write(f"{i},{matio.format_float(v)}\n")
    return 0


def _opcount_cell(full, chol):
    return str(full) if full == chol else f"{full}({chol})"


def cmd_opcount(args):
    del args
    measured, matches = suite.measure_opcounts(suite.DEFAULT_SEED)
    print(f"{'param':<10} {'algorithm':<10} {'TRTRI':<7} {'TRMM':<7} {'POTRF':<7}")
    for kind in ("cov", "cov_chol", "prec", "prec_chol"):
        for algorithm in (INDIRECT, DIRECT):
            full = measured[(kind, algorithm, False)]
            chol = measured[(kind, algorithm, True)]
            print(
                f"{kind:<10} {algorithm:<10} "
                f"{_opcount_cell(full.trtri, chol.trtri):<7} "
                f"{_opcount_cell(full.trmm, chol.trmm):<7} "
                f"{_opcount_cell(full.potrf, chol.potrf):<7}"
            )
    total = len(measured)
    verdict = "MATCH" if matches == total else "MISMATCH"
    print(f"verdict: {verdict} {matches}/{total}")
    return 0 if matches == total else 1


def cmd_validate(args):
    RngStream(args.seed)  # rejects a bad seed even when no selected check draws
    records = suite.run_checks(seed=args.seed, only=args.only)
    if not records:
        raise InvalidParameter(f"--only {args.only!r} matched no checks")
    with matio.open_output(args.out) as fh:
        if args.format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["check", "params", "statistic", "threshold", "pass", "seed"])
            for rec in records:
                d = rec.to_dict()
                writer.writerow(
                    [d["check"], json.dumps(d["params"]), d["statistic"], d["threshold"],
                     d["pass"], d["seed"]]
                )
        else:
            for rec in records:
                fh.write(json.dumps(rec.to_dict()) + "\n")
    failed = [rec for rec in records if not rec.passed]
    print(
        f"{len(records)} record(s), {len(failed)} failed",
        file=sys.stderr,
    )
    for rec in failed:
        print(f"FAIL {rec.check} statistic={rec.statistic!r}", file=sys.stderr)
    return 0 if not failed else 1


def cmd_bench(args):
    reps = args.reps
    sizes = args.m or [200]
    # Checked before anything is timed, so no table is printed for a bad run.
    if reps < 1:
        raise InvalidParameter(f"--reps must be a positive integer, got {reps}")
    if min(sizes) < 1:
        raise InvalidParameter(f"--m must be a positive integer, got {min(sizes)}")
    for m in sizes:
        spec, med_ind, med_dir, counts = suite.bench_pair(
            m, args.iscov, args.ischolu, args.retcholu, args.seed, reps=reps
        )
        print(
            f"m={m} n={spec.n:g} scale={spec.scale.kind()} retcholu={_FLAG[args.retcholu]} "
            f"reps={reps} warmup={suite.BENCH_WARMUP}"
        )
        print(f"{'algorithm':<10} {'median_ms':<12} {'TRTRI':<6} {'TRMM':<6} {'POTRF':<6}")
        for name, med in ((INDIRECT, med_ind), (DIRECT, med_dir)):
            c = counts[name]
            print(
                f"{name:<10} {med * 1e3:<12.3f} {c.trtri:<6} {c.trmm:<6} {c.potrf:<6}"
            )
        ratio_ops = counts[DIRECT].total() / max(counts[INDIRECT].total(), 1)
        print(
            f"ratios direct/indirect: ops={ratio_ops:.2f} time={med_dir / med_ind:.3f}"
        )
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="triwish",
        description="Wishart and inverse-Wishart sampling on the Cholesky scale.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sample", help="draw matrices and write them to a file")
    p.add_argument("--m", type=int, default=None, help="dimension (default: from scale file)")
    p.add_argument("--n", type=float, required=True, help="degrees of freedom (real, > m-1)")
    _add_scale_flags(p)
    p.add_argument("--retcholu", action="store_true", help="emit upper Cholesky factors")
    p.add_argument(
        "--algorithm", choices=("indirect", "direct", "auto"), default="auto",
        help="inverse-Wishart sampling route (auto picks by parameterization)",
    )
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    p.add_argument("--nsamples", type=int, default=1, help="number of draws")
    p.add_argument(
        "--square",
        action="store_true",
        help="with --retcholu: write U^T U instead of the factor U",
    )
    _add_out_flags(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("density", help="evaluate log-density kernels for stored matrices")
    p.add_argument("kind", choices=sorted(_KERNELS), help="which log kernel to evaluate")
    p.add_argument("matrices", help="matrix file with the evaluation points")
    p.add_argument("--n", type=float, required=True, help="degrees of freedom")
    _add_scale_flags(p)
    _add_out_flags(p, default_format="ndjson")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("opcount", help="print the kernel-call table and verify it")
    p.set_defaults(func=cmd_opcount)

    p = sub.add_parser("validate", help="run the statistical validation suite")
    p.add_argument("--seed", type=int, default=suite.DEFAULT_SEED, help="64-bit RNG seed")
    p.add_argument("--only", default=None, help="comma-separated substring filter on check names")
    _add_out_flags(p, default_format="ndjson")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="time both inverse-Wishart algorithms")
    p.add_argument(
        "--m", type=int, action="append", help="dimension (repeatable; default 200)"
    )
    p.add_argument("--reps", type=int, default=25, help="timed repetitions (median reported)")
    p.add_argument("--iscov", action="store_true", help="benchmark a covariance scale")
    p.add_argument(
        "--ischolu", action="store_true", help="benchmark a Cholesky-factor scale"
    )
    p.add_argument("--retcholu", action="store_true", help="benchmark factor output")
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except TriwishError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
