"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload mcmc_small --seed 1 --seconds 28 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics listed in BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  Lines above it give the environment and
the workload-specific metric names.  A wrong output fails the run: the JSON
then says ``"correct": false`` with no metrics and the exit code is 1.  See
perfbench/README.md for the workloads and the metric map.
"""

import os
import sys
import time

_T0 = time.perf_counter()

# BLAS threads are pinned through this process's environment, which only
# takes effect if it happens before numpy (and so OpenBLAS) is loaded.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
_NUMPY_PRELOADED = "numpy" in sys.modules
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, WrongOutput  # noqa: E402

_perf = time.perf_counter
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_CHILDREN = 4  # extra set-up samples, each in a fresh process
TRACE_PHASE = 0.4  # share of --seconds for each of the untraced and traced passes


def load_triwish():
    """Import triwish from this checkout's src/, never from an installed copy."""
    pkg = os.path.join(SRC, "triwish")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise SystemExit(f"perfbench: no triwish sources under {SRC}")
    sys.path.insert(0, SRC)
    import triwish
    import triwish.cli
    import triwish.matio
    import triwish.suite

    if os.path.dirname(os.path.abspath(triwish.__file__)) != pkg:
        raise SystemExit(f"perfbench: imported triwish from {triwish.__file__}, not {pkg}")
    return triwish


def openblas_libraries():
    """Each OpenBLAS loaded in this process, with its runtime thread count and build config."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                found.append({
                    "library": os.path.basename(path),
                    "threads": get_threads(),
                    "config": get_config().decode(),
                })
                break
            else:
                continue
            break
    return found


def refuse_unpinned(blas):
    """Exit without timing anything unless every BLAS runs single-threaded."""
    problems = []
    if _NUMPY_PRELOADED:
        problems.append("numpy was imported before the thread variables were set")
    problems += [f"{v}={os.environ.get(v)!r}" for v in THREAD_VARS if os.environ.get(v) != "1"]
    problems += [f"{b['library']} runs {b['threads']} threads" for b in blas if b["threads"] != 1]
    if problems:
        raise SystemExit("perfbench: refusing to time, BLAS threads not pinned: " + "; ".join(problems))


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(blas):
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
    }


_FAILED = object()


def measure(workload, seconds, tracer=None, counters=None):
    """Run operations for ``seconds``, stopping at a whole input cycle.

    Returns (op seconds, output digests, failure messages).  Checks run
    outside the timed region, with tracing paused.  With ``counters`` each
    operation gets a fresh OpCounter, kept in that list.
    """
    from triwish.linalg import OpCounter

    times, digests, failures = [], [], []
    root = tracer.code_of("op") if tracer else None
    deadline = _perf() + seconds
    i = 0
    while True:
        counter = None
        if counters is not None:
            counter = OpCounter()
            counters.append(counter)
        if tracer:
            tracer.op_id = i
            span = tracer.begin(root)
        t = _perf()
        try:
            result = workload.op(i, counter)
        except Exception:  # a failed operation is counted, and the loop keeps running
            failures.append(f"op {i}: {traceback.format_exc(limit=3)}")
            result = _FAILED
        elapsed = _perf() - t
        if tracer:
            tracer.end(span)
            tracer.enabled = False
        if result is not _FAILED:
            try:
                digests.append(workload.check(i, result))
                times.append(elapsed)
            except WrongOutput as exc:
                failures.append(f"op {i}: wrong output: {exc}")
            except Exception:
                failures.append(f"op {i} check: {traceback.format_exc(limit=3)}")
        if tracer:
            tracer.enabled = True
        i += 1
        if i % workload.cycle == 0 and _perf() >= deadline:
            return times, digests, failures


def tail_percentile(n):
    """Highest percentile, at most the 95th, with at least ten of n operations beyond it.

    Below 20 operations no percentile above the median qualifies, so the
    median is used.
    """
    return max(50.0, min(95.0, 100.0 * (1.0 - 10.0 / n)))


def setup_samples(args):
    """Set-up seconds measured again in fresh processes of this script."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-2000:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_untraced(workload, args, setup_s):
    setup_s = statistics.median([setup_s] + setup_samples(args))
    attempted = workload.gates()
    times, _, failures = measure(workload, args.seconds)
    attempted += len(times) + len(failures)
    if failures:
        return attempted, failures, {}, {}
    ops_per_s = len(times) / sum(times)
    tail = tail_percentile(len(times))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_tail_ms": (float(np.percentile(times, tail)) * 1e3, "ms"),
    }
    # Printed but not gated: on a machine whose speed drifts by tens of percent
    # over minutes, their spread over ten runs exceeded the gate (README.md).
    named = {
        "ops": (len(times), "count"),
        "op_tail_pct": (tail, "%"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (float(np.median(times)) * 1e3, "ms"),
        "op_p95_ms": (float(np.percentile(times, 95)) * 1e3, "ms"),
    }
    named.update(workload.aliases(times, ops_per_s))
    return attempted, failures, metrics, named


def run_traced(workload, tw, args):
    attempted = workload.gates()
    phase = args.seconds * TRACE_PHASE
    workload.reset()
    plain_times, plain_digests, failures = measure(workload, phase)
    tracer = tracing.Tracer()
    counters = []
    tracer.install(tw)
    try:
        workload.reset()
        times, digests, traced_failures = measure(workload, phase, tracer, counters)
    finally:
        tracer.uninstall()
    failures += traced_failures
    attempted += len(plain_times) + len(times) + len(failures)

    common = min(len(digests), len(plain_digests))
    attempted += 1
    if digests[:common] != plain_digests[:common]:
        failures.append("the traced pass drew different outputs from the untraced pass")

    spans = tracer.arrays()
    draws = tracing.draw_kernel_counts(spans)
    attempted += len(draws)
    draws_per_op = {}
    for op, counts in draws:
        draws_per_op[op] = draws_per_op.get(op, 0) + 1
        expected = workload.draw_expectation(op)
        if expected is not None and counts != expected.as_dict():
            failures.append(f"op {op}: kernel spans {counts} != EXPECTED_OP_COUNTS {expected.as_dict()}")
        if workload.counts_draws and counts != counters[op].as_dict():
            failures.append(f"op {op}: kernel spans {counts} != OpCounter {counters[op].as_dict()}")
    if workload.counts_draws and any(draws_per_op.get(i, 0) != 1 for i in range(len(times))):
        failures.append("an operation did not make exactly one sampler draw")

    workload.reset()
    with tracing.UniformCounter(tw) as uniforms:
        count_times, count_digests, count_failures = measure(workload, 0.0)
    failures += count_failures
    attempted += len(count_times) + 1
    if count_digests != plain_digests[:len(count_digests)]:
        failures.append("the uniform-counting pass drew different outputs")
    if failures:
        return attempted, failures, {}, {}

    n_ops = len(times)
    raw = tracing.raw_kernel_reference(tracing.RAW_SIZES + tuple(tracing.kernel_sizes(spans)))
    tags = {i: workload.tag(i) for i in range(n_ops)}
    metrics = {
        "rng.uniforms_per_fill": (uniforms.uniforms / uniforms.fills if uniforms.fills else 0.0, "count"),
    }
    metrics.update(tracing.layer_metrics(spans, n_ops, raw, tags))
    metrics["trace.overhead_ratio"] = (
        (sum(times) / n_ops) / (sum(plain_times) / len(plain_times)), "ratio",
    )
    metrics.update(tracing.raw_metrics(raw))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"spans-{workload.name}.npz"))
    named = {"traced_ops": (n_ops, "count"), "untraced_ops": (len(plain_times), "count"),
             "spans": (len(spans["dur"]), "count")}
    return attempted, failures, metrics, named


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests; not a measurement")
    p.add_argument("--setup-only", action="store_true",
                   help="print the set-up seconds and exit (used for repeated set-up samples)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    tw = load_triwish()
    blas = openblas_libraries()
    refuse_unpinned(blas)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](tw, args.seed, workdir, args.smoke)
        try:
            workload.setup()
        except Exception:  # a wrong or failed warm-up output fails the run
            failures, attempted, metrics, named = [traceback.format_exc(limit=3)], 1, {}, {}
        else:
            setup_s = _perf() - _T0
            if args.setup_only:
                print(repr(setup_s))
                return 0
            try:
                run = run_traced(workload, tw, args) if args.trace else run_untraced(workload, args, setup_s)
                attempted, failures, metrics, named = run
            except Exception:  # a failed gate or set-up sample fails the run
                failures, attempted, metrics, named = [traceback.format_exc(limit=3)], 1, {}, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(blas)
    result = {
        "correct": not failures,
        "attempted": int(attempted),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for msg in failures[:10]:
        print(f"perfbench FAIL: {msg}", file=sys.stderr)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "result": result,
                   "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}}, fh, indent=1)
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    for key, value in env.items():
        print(f"# env {key}: {json.dumps(value)}")
    print(f"failed_ratio {len(failures) / max(attempted, 1):.6g} ratio ({len(failures)} of {attempted} outputs)")
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
