"""The benchmark's four workloads.

Each workload is a closed loop with one in-process caller.  It builds its
inputs from the workload seed in ``setup``, runs one operation per ``op``
call, and checks every output in ``check``, outside the timed region.
``check`` raises :class:`WrongOutput` on a wrong output and returns a digest
of the output, which the traced run compares against the untraced run.

Library functions are looked up through their module on every call
(``self.samplers.sample_invwishart``), so a traced run's wrappers see them.
"""

import hashlib
import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

_perf = time.perf_counter


class WrongOutput(Exception):
    """An output failed one of the benchmark's correctness gates."""


def check_draw(x, factor):
    """Finite; a factor is upper-triangular with a positive diagonal; a full draw is exactly symmetric."""
    if not np.isfinite(x).all():
        raise WrongOutput("draw has non-finite entries")
    if factor:
        if np.any(np.tril(x, -1) != 0.0):
            raise WrongOutput("factor has nonzero entries below the diagonal")
        if not np.all(np.diag(x) > 0.0):
            raise WrongOutput("factor diagonal is not positive")
    elif not np.array_equal(x, x.T):
        raise WrongOutput("full draw is not exactly symmetric")


def random_spd(gen, m):
    """Well-conditioned symmetric positive definite matrix, exactly symmetric."""
    g = gen.standard_normal((m, m))
    a = g @ g.T / m + np.eye(m)
    return (a + a.T) / 2.0


def _digest(*chunks):
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk)
    return h.digest()


class Workload:
    """Base class; ``cycle`` is the number of operations in one full input mix."""

    name = ""
    cycle = 1
    # True when op(i, counter) passes the counter to exactly one sampler draw.
    counts_draws = False

    def __init__(self, tw, seed, workdir, smoke=False):
        self.tw = tw
        self.samplers = tw.samplers
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        self.parts = {}

    def setup(self):
        """Build inputs and warm up; everything before the first timed call."""

    def reset(self):
        """Restart the random streams so operation i repeats its output."""

    def gates(self):
        """Extra correctness gates run once before timing; returns how many outputs were checked."""
        return 0

    def op(self, i, counter=None):
        raise NotImplementedError

    def check(self, i, result):
        raise NotImplementedError

    def tag(self, i):
        """(param, route, retcholu) of the single draw in operation i, or None."""
        return None

    def draw_expectation(self, i):
        """OpCounter every sampler draw inside operation i must match, or None."""
        return None

    def aliases(self, op_times, ops_per_s):
        """Workload-specific names for the end-to-end metrics, as name -> (value, unit)."""
        return {}

    def _record(self, part, seconds):
        self.parts.setdefault(part, []).append(seconds)


def timing_summary(times, scale, unit, p50_name, p95_name):
    """Median and 95th percentile of ``times`` (seconds), scaled into ``unit``."""
    times = np.asarray(times)
    return {
        p50_name: (float(np.median(times)) * scale, unit),
        p95_name: (float(np.percentile(times, 95)) * scale, unit),
    }


class _DrawMix(Workload):
    """Cycles through a fixed list of (param, route, retcholu) combinations."""

    m = 0
    n = 0.0
    counts_draws = True

    def combos_and_scales(self):
        raise NotImplementedError

    def setup(self):
        S = self.samplers
        combos, scales = self.combos_and_scales()
        self.combos = combos
        self.specs = [S.SamplerSpec(self.m, self.n, scales[p], retcholu=r) for p, _, r in combos]
        self.cycle = len(combos)
        self.reset()
        for i in range(self.warmup_cycles * self.cycle):
            self.check(i, self.op(i))
        self.reset()

    def reset(self):
        self.rng = self.tw.rng.RngStream(self.seed)

    def gates(self):
        S = self.samplers
        rng = self.tw.rng.RngStream(self.seed, 1)
        for (param, route, retcholu), spec in zip(self.combos, self.specs):
            counter = self.tw.linalg.OpCounter()
            x = S.sample_invwishart(rng, spec, route, counter)
            check_draw(x, retcholu)
            expected = S.EXPECTED_OP_COUNTS[(param, route, retcholu)]
            if counter != expected:
                raise WrongOutput(
                    f"{param}/{route}/retcholu={retcholu}: counted {counter.as_dict()}, "
                    f"expected {expected.as_dict()}"
                )
        return len(self.combos)

    def tag(self, i):
        return self.combos[i % self.cycle]

    def draw_expectation(self, i):
        return self.samplers.EXPECTED_OP_COUNTS[self.combos[i % self.cycle]]


class McmcSmall(_DrawMix):
    """m=4: one draw per step over all 16 combinations, then its log kernel."""

    name = "mcmc_small"
    m, n = 4, 7.5
    warmup_cycles = 20

    def combos_and_scales(self):
        S = self.samplers
        diag = np.array([1.0, 2.0, 0.5, 1.5])
        scales = {
            "cov": S.ScaleParam(np.diag(diag), iscov=True),
            "cov_chol": S.ScaleParam(np.diag(np.sqrt(diag)), iscov=True, ischolu=True),
            "prec": S.ScaleParam(np.diag(diag), iscov=False),
            "prec_chol": S.ScaleParam(np.diag(np.sqrt(diag)), iscov=False, ischolu=True),
        }
        # The log kernels take the precision-side factor.
        self.u_omega = {
            p: S.cholesky_upper_param(scale, invert=scale.iscov) for p, scale in scales.items()
        }
        return list(S.EXPECTED_OP_COUNTS), scales

    def op(self, i, counter=None):
        k = i % self.cycle
        param, route, retcholu = self.combos[k]
        x = self.samplers.sample_invwishart(self.rng, self.specs[k], route, counter)
        d = self.tw.densities
        if retcholu:
            lk = d.logkernel_cholinvwishart(x, self.n, self.u_omega[param])
        else:
            lk = d.logkernel_invwishart(x, self.n, self.u_omega[param])
        return x, lk

    def check(self, i, result):
        x, lk = result
        check_draw(x, self.combos[i % self.cycle][2])
        if not np.isfinite(lk):
            raise WrongOutput(f"log kernel is not finite: {lk!r}")
        return _digest(x.tobytes(), np.float64(lk).tobytes())

    def aliases(self, op_times, ops_per_s):
        out = {"steps_per_s": (ops_per_s, "1/s")}
        out.update(timing_summary(op_times, 1e6, "us", "step_p50_us", "step_p95_us"))
        return out


class LargeM(_DrawMix):
    """m=200: cov and prec_chol scales, both routes, both output forms, in equal numbers."""

    name = "large_m"
    warmup_cycles = 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.m = 12 if self.smoke else 200
        self.n = float(self.m + 2)

    def combos_and_scales(self):
        S = self.samplers
        gen = np.random.default_rng(self.seed)
        cov = random_spd(gen, self.m)
        prec_factor = np.triu(np.linalg.cholesky(random_spd(gen, self.m)).T)
        scales = {
            "cov": S.ScaleParam(cov, iscov=True),
            "prec_chol": S.ScaleParam(prec_factor, iscov=False, ischolu=True),
        }
        combos = [
            (param, route, retcholu)
            for param in ("cov", "prec_chol")
            for route in (S.INDIRECT, S.DIRECT)
            for retcholu in (False, True)
        ]
        return combos, scales

    def op(self, i, counter=None):
        k = i % self.cycle
        return self.samplers.sample_invwishart(self.rng, self.specs[k], self.combos[k][1], counter)

    def check(self, i, result):
        check_draw(result, self.combos[i % self.cycle][2])
        return _digest(result.tobytes())

    def aliases(self, op_times, ops_per_s):
        out = {"draws_per_s": (ops_per_s, "1/s")}
        out.update(timing_summary(op_times, 1e3, "ms", "draw_p50_ms", "draw_p95_ms"))
        return out


class _CliCaller(Workload):
    def _cli(self, argv):
        with redirect_stdout(self._sink), redirect_stderr(self._sink):
            rc = self.tw.cli.main(argv)
        self.last_output = self._sink.getvalue()
        self._sink.seek(0)
        self._sink.truncate()
        return rc

    def setup(self):
        self._sink = io.StringIO()


class CliRoundtrip(_CliCaller):
    """m=50 precision scale file: sample to CSV and NDJSON, then density on each file."""

    name = "cli_roundtrip"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.m = 6 if self.smoke else 50
        self.n = self.m + 5.5
        self.nsamples = 2 if self.smoke else 8

    def setup(self):
        super().setup()
        tw, S = self.tw, self.samplers
        prec = random_spd(np.random.default_rng(self.seed), self.m)
        self.scale_path = os.path.join(self.workdir, "prec.csv")
        tw.matio.write_matrices(self.scale_path, [prec])
        scale = S.ScaleParam(prec, iscov=False)
        self.spec = S.SamplerSpec(self.m, self.n, scale)
        self.u_omega = S.cholesky_upper_param(scale, invert=False)
        expected = S.EXPECTED_OP_COUNTS[("prec", S.recommend_algorithm(scale), False)]
        self.expected_ops = expected
        self.opcount_line = "opcount potrf={} trtri={} trmm={}".format(
            expected.potrf, expected.trtri, expected.trmm
        )
        self.paths = {
            fmt: os.path.join(self.workdir, f"draws.{fmt}") for fmt in ("csv", "ndjson")
        }
        self.density_paths = {
            fmt: os.path.join(self.workdir, f"density-{fmt}.ndjson") for fmt in ("csv", "ndjson")
        }
        self.check(0, self.op(0))
        self.parts.clear()

    def sample_seed(self, i):
        return (self.seed * 1_000_003 + i) % 2 ** 64

    def op(self, i, counter=None):
        seed = str(self.sample_seed(i))
        n = repr(self.n)
        rcs = []
        for fmt, path in self.paths.items():
            t = _perf()
            rcs.append(self._cli([
                "sample", "--n", n, "--scale", self.scale_path, "--nsamples",
                str(self.nsamples), "--seed", seed, "--out", path, "--format", fmt,
            ]))
            self._record("sample_s", _perf() - t)
        for fmt, path in self.paths.items():
            t = _perf()
            rcs.append(self._cli([
                "density", "invwishart", path, "--n", n, "--scale", self.scale_path,
                "--out", self.density_paths[fmt],
            ]))
            self._record("density_s", _perf() - t)
        return rcs

    def check(self, i, result):
        if result != [0, 0, 0, 0]:
            raise WrongOutput(f"cli exit codes {result}, expected all 0: {self.last_output[-500:]}")
        S, matio = self.samplers, self.tw.matio
        rng = self.tw.rng.RngStream(self.sample_seed(i))
        draws = [S.sample_invwishart(rng, self.spec, S.AUTO) for _ in range(self.nsamples)]
        kernel = self.tw.densities.logkernel_invwishart
        want = [kernel(d, self.n, self.u_omega) for d in draws]
        chunks = []
        for fmt, path in self.paths.items():
            header, blocks = matio.read_matrices(path)
            if self.opcount_line not in header:
                raise WrongOutput(f"{fmt} header lacks {self.opcount_line!r}: {header}")
            if len(blocks) != len(draws) or any(
                kind != matio.KIND_SQUARE or mat.tobytes() != d.tobytes()
                for (kind, mat), d in zip(blocks, draws)
            ):
                raise WrongOutput(f"{fmt} file does not read back bit-equal to the library draws")
            with open(self.density_paths[fmt], "rb") as fh:
                text = fh.read()
            got = [json.loads(line)["logkernel"] for line in text.splitlines()]
            if got != want:
                raise WrongOutput(f"density on the {fmt} file differs from the in-process kernels")
            with open(path, "rb") as fh:
                chunks.append(fh.read())
            chunks.append(text)
        return _digest(*chunks)

    def draw_expectation(self, i):
        return self.expected_ops

    def aliases(self, op_times, ops_per_s):
        out = {"roundtrips_per_s": (ops_per_s, "1/s")}
        out.update(timing_summary(self.parts["sample_s"], 1.0, "s", "sample_s", "sample_p95_s"))
        out.update(timing_summary(self.parts["density_s"], 1.0, "s", "density_s", "density_p95_s"))
        return out


# The KS checks reject a correct sampler with probability about alpha per
# record by design.  Each run validates at seed (--seed mod 40); seeds 0-39
# all pass at the commit that added this benchmark, so a timing run does not
# fail on a designed false rejection.  A broken sampler fails at every seed.
VALIDATE_SEED_COUNT = 40


class ValidateFill(_CliCaller):
    """``triwish validate`` on the fill, Jacobian and density checks."""

    name = "validate_fill"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.smoke:
            self.only = "jacobian,density"
            self.expected = {"jacobian.chol", "jacobian.triinv", "density.wishart",
                             "density.invwishart", "density.chain"}
        else:
            self.only = "bartlett.invwishart,jacobian,density"
            self.expected = {"bartlett.invwishart.diag", "bartlett.invwishart.offdiag",
                             "jacobian.chol", "jacobian.triinv", "density.wishart",
                             "density.invwishart", "density.chain"}
        self.validate_seed = self.seed % VALIDATE_SEED_COUNT

    def setup(self):
        super().setup()
        self.out = os.path.join(self.workdir, "validate.ndjson")
        warm = os.path.join(self.workdir, "warmup.ndjson")
        if self._cli(["validate", "--only", "jacobian.chol", "--out", warm]) != 0:
            raise WrongOutput("warm-up validate run failed")

    def op(self, i, counter=None):
        return self._cli([
            "validate", "--only", self.only, "--seed", str(self.validate_seed), "--out", self.out,
        ])

    def check(self, i, result):
        if result != 0:
            raise WrongOutput(f"validate exited {result}: {self.last_output[-500:]}")
        with open(self.out, "rb") as fh:
            text = fh.read()
        records = [json.loads(line) for line in text.splitlines()]
        failed = [r["check"] for r in records if not r["pass"]]
        if failed:
            raise WrongOutput(f"validate records failed: {failed}")
        names = {r["check"] for r in records}
        if names != self.expected:
            raise WrongOutput(f"validate produced checks {sorted(names)}")
        return _digest(text)

    def aliases(self, op_times, ops_per_s):
        return timing_summary(op_times, 1.0, "s", "validate_s", "validate_p95_s")


WORKLOADS = {w.name: w for w in (McmcSmall, LargeM, CliRoundtrip, ValidateFill)}
