"""Traced runs: timed wrappers installed around triwish's public functions.

The wrappers are installed from outside the library, by rebinding each
wrapped function in every triwish module namespace that holds it (for
example ``triwish.samplers.tri_inverse``, which ``samplers`` imported by
name).  Each call records one span: name, parent span, the benchmark
operation it belongs to, a size field and start and end times.  Spans are
kept in flat arrays in memory and written out once at the end.

The uniform count per fill comes from a separate counting pass that wraps
``RngStream.uniform``; wrapping it during the timed traced pass would add a
Python call to every uniform and inflate the fill time being measured.
"""

import os
import statistics
import time
from array import array

import numpy as np

_perf = time.perf_counter

KERNEL_SPANS = {"linalg.potrf": "potrf", "linalg.trtri": "trtri", "linalg.trmm": "trmm"}
# Nominal LAPACK/BLAS flop counts for an m x m operand; linalg.gflops is
# computed from these, not read from hardware counters.
KERNEL_FLOPS = {
    "potrf": lambda m: m ** 3 / 3.0,
    "trtri": lambda m: m ** 3 / 3.0,
    "trmm": lambda m: float(m ** 3),
}
RAW_SIZES = (4, 50, 200)


def _m_arg0(args):
    return len(args[0])


def _m_arg1(args):
    return int(args[1])


def _file_size(path):
    return os.path.getsize(path) if path != "-" else 0


# (module, function, span name, size before the call, size after the call).
# The validation.other spans report no metric of their own; they keep the
# validation helpers' time out of suite.self_s.
TARGETS = [
    ("samplers", "draw_bartlett_wishart", "rng.fill", _m_arg1, None),
    ("samplers", "draw_bartlett_invwishart", "rng.fill", _m_arg1, None),
    ("linalg", "chol_upper", "linalg.potrf", _m_arg0, None),
    ("linalg", "tri_inverse", "linalg.trtri", _m_arg0, None),
    ("linalg", "tri_mul", "linalg.trmm", _m_arg0, None),
    ("linalg", "gram_ut", "linalg.trmm", _m_arg0, None),
    ("linalg", "gram_vt", "linalg.trmm", _m_arg0, None),
    ("samplers", "cholesky_upper_param", "samplers.setup", None, None),
    ("samplers", "sample_invwishart", "samplers.draw", None, None),
    ("samplers", "rinvwishart_indirect", "samplers.draw", None, None),
    ("samplers", "rinvwishart_direct", "samplers.draw", None, None),
    ("samplers", "rwishart", "samplers.draw", None, None),
    ("samplers", "rwishart_chol", "samplers.draw", None, None),
    ("samplers", "rinvwishart_chol", "samplers.draw", None, None),
    ("densities", "logkernel_wishart", "densities.logkernel", None, None),
    ("densities", "logkernel_invwishart", "densities.logkernel", None, None),
    ("densities", "logkernel_cholwishart", "densities.logkernel", None, None),
    ("densities", "logkernel_cholinvwishart", "densities.logkernel", None, None),
    ("densities", "logjac_chol", "densities.logjac", None, None),
    ("densities", "logjac_tri_inverse", "densities.logjac", None, None),
    ("matio", "write_matrices", "matio.write", None, lambda args, res: _file_size(args[0])),
    ("matio", "read_matrices", "matio.read", lambda args: _file_size(args[0]), None),
    ("cli", "main", "cli.main", None, None),
    ("suite", "run_checks", "suite.run_checks", None, None),
    ("validation", "ks_one_sample", "validation.ks", None, None),
    ("validation", "ks_two_sample", "validation.ks", None, None),
    ("validation", "chi_square_cdf", "validation.cdf", None, lambda args, res: np.size(res)),
    ("validation", "normal_cdf", "validation.cdf", None, lambda args, res: np.size(res)),
    ("validation", "fd_logdet_jacobian", "validation.other", None, None),
    ("validation", "rwishart_outer_oracle", "validation.other", None, None),
    ("validation", "mc_mean_wishart", "validation.other", None, None),
    ("validation", "mc_mean_invwishart", "validation.other", None, None),
]

NAMESPACES = ("linalg", "rng", "samplers", "densities", "matio", "cli", "suite", "validation")


def _rebind_everywhere(tw, original, replacement, undo):
    """Rebind ``original`` to ``replacement`` in every triwish namespace holding it.

    Module-level dispatch tables whose values are tuples holding the
    function (such as ``cli._KERNELS``) are rebound too.  ``undo`` collects
    (container, key, old value) triples.
    """
    for mod in (tw, *(getattr(tw, name) for name in NAMESPACES)):
        namespace = vars(mod)
        for attr, value in list(namespace.items()):
            if value is original:
                undo.append((namespace, attr, value))
                namespace[attr] = replacement
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if isinstance(entry, tuple) and any(item is original for item in entry):
                        undo.append((value, key, entry))
                        value[key] = tuple(replacement if item is original else item for item in entry)


def _restore(undo):
    for container, key, old in reversed(undo):
        container[key] = old
    undo.clear()


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names = []
        self._codes = {}
        self.parent = array("q")
        self.code = array("H")
        self.op = array("q")
        self.size = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = []
        self.op_id = -1
        self.enabled = True
        self._undo = []

    def code_of(self, name):
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def begin(self, code, size=0):
        idx = len(self.t0)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.code.append(code)
        self.op.append(self.op_id)
        self.size.append(size)
        self.t1.append(0.0)
        stack.append(idx)
        self.t0.append(_perf())
        return idx

    def end(self, idx):
        self.t1[idx] = _perf()
        self._stack.pop()

    def wrap(self, fn, name, size_before=None, size_after=None):
        code = self.code_of(name)
        begin, end, size = self.begin, self.end, self.size

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = begin(code, size_before(args) if size_before else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if size_after is not None:
                size[idx] = size_after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, tw):
        """Wrap every target; a target the library no longer has is skipped."""
        for module, fname, name, before, after in TARGETS:
            original = getattr(getattr(tw, module), fname, None)
            if original is not None:
                _rebind_everywhere(tw, original, self.wrap(original, name, before, after), self._undo)

    def uninstall(self):
        _restore(self._undo)

    def arrays(self):
        """Span table as numpy arrays, with each span's self time."""
        parent = np.array(self.parent, dtype=np.int64)
        t0 = np.array(self.t0, dtype=np.float64)
        dur = np.array(self.t1, dtype=np.float64) - t0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": np.array(self.names + [""], dtype=object)[np.array(self.code, dtype=np.int64)],
            "parent": parent,
            "op": np.array(self.op, dtype=np.int64),
            "size": np.array(self.size, dtype=np.int64),
            "t0": t0,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path):
        """Write the spans out as an .npz table (names as a lookup list)."""
        np.savez(
            path,
            names=np.array(self.names),
            code=np.array(self.code, dtype=np.uint16),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64),
            size=np.array(self.size, dtype=np.int64),
            t0=np.array(self.t0, dtype=np.float64),
            t1=np.array(self.t1, dtype=np.float64),
        )


class UniformCounter:
    """Counts RngStream.uniform calls made inside the Bartlett fills."""

    def __init__(self, tw):
        self.tw = tw
        self.uniforms = 0
        self.fills = 0
        self._undo = []

    def __enter__(self):
        rng_cls = self.tw.rng.RngStream
        uniform = rng_cls.uniform
        counted = [0]

        def counting_uniform(stream):
            counted[0] += 1
            return uniform(stream)

        rng_cls.uniform = counting_uniform
        self._restore_uniform = lambda: setattr(rng_cls, "uniform", uniform)
        for fname in ("draw_bartlett_wishart", "draw_bartlett_invwishart"):
            original = getattr(self.tw.samplers, fname)

            def fill(*args, _fn=original, **kwargs):
                before = counted[0]
                result = _fn(*args, **kwargs)
                self.uniforms += counted[0] - before
                self.fills += 1
                return result

            _rebind_everywhere(self.tw, original, fill, self._undo)
        return self

    def __exit__(self, *exc):
        _restore(self._undo)
        self._restore_uniform()
        return False


def _median_call_s(fn, budget_s=0.02, batches=5):
    """Median seconds per call over ``batches`` timed batches of equal size."""
    t = _perf()
    fn()
    once = max(_perf() - t, 1e-7)
    reps = max(1, int(budget_s / once))
    per_call = []
    for _ in range(batches):
        t = _perf()
        for _ in range(reps):
            fn()
        per_call.append((_perf() - t) / reps)
    return statistics.median(per_call)


def raw_kernel_reference(sizes):
    """Seconds per raw dpotrf/dtrtri/dtrmm call, C and F order, plus np.triu symmetrization.

    Keys are (kernel, order, m); the symmetrization key is ("triu", "C", m).
    """
    from scipy.linalg import blas, lapack

    gen = np.random.default_rng(12345)
    out = {}
    for m in sorted(set(sizes)):
        g = gen.standard_normal((m, m))
        spd = g @ g.T / m + np.eye(m)
        spd = (spd + spd.T) / 2.0
        u = np.triu(np.linalg.cholesky(spd).T)
        for order in ("C", "F"):
            a = np.array(spd, order=order)
            f = np.array(u, order=order)
            out[("dpotrf", order, m)] = _median_call_s(lambda: lapack.dpotrf(a, lower=0))
            out[("dtrtri", order, m)] = _median_call_s(lambda: lapack.dtrtri(f, lower=0))
            out[("dtrmm", order, m)] = _median_call_s(
                lambda: blas.dtrmm(1.0, f, f, side=0, lower=0, trans_a=0)
            )
        r = blas.dtrmm(1.0, u, u, side=0, lower=0, trans_a=1)
        out[("triu", "C", m)] = _median_call_s(lambda: np.triu(r) + np.triu(r, 1).T)
    return out


RAW_KERNEL = {"potrf": "dpotrf", "trtri": "dtrtri", "trmm": "dtrmm"}


def kernel_sizes(spans):
    """Operand sizes m seen by the kernel wrappers in a traced pass."""
    mask = np.isin(spans["name"], list(KERNEL_SPANS))
    return sorted({int(m) for m in spans["size"][mask]})


def _top_draw(spans):
    """Index of the outermost samplers.draw span enclosing each span, or -1."""
    parent = spans["parent"].tolist()
    is_draw = (spans["name"] == "samplers.draw").tolist()
    top = [-1] * len(parent)
    for i, p in enumerate(parent):  # a parent always precedes its children
        if p >= 0 and top[p] >= 0:
            top[i] = top[p]
        elif is_draw[i]:
            top[i] = i
    return np.array(top, dtype=np.int64)


def layer_metrics(spans, n_ops, raw, op_tags):
    """Per-layer metrics, per benchmark operation, from one traced pass.

    ``op_tags`` maps an operation index to its (param, route, form) when the
    operation is a single tagged draw; it feeds the direct/indirect ratios.
    """
    names, dur, self_t, size = spans["name"], spans["dur"], spans["self"], spans["size"]

    def total(name, field=dur):
        return float(field[names == name].sum())

    def count(name):
        return int(np.count_nonzero(names == name))

    per_op = 1.0 / n_ops
    out = {
        "rng.fill_s": (total("rng.fill") * per_op, "s"),
        "rng.fill_calls": (count("rng.fill") * per_op, "count"),
    }
    kernel_s = 0.0
    raw_s = 0.0
    flops = 0.0
    for span, kind in KERNEL_SPANS.items():
        mask = names == span
        out[f"linalg.{kind}_calls"] = (int(mask.sum()) * per_op, "count")
        out[f"linalg.{kind}_s"] = (float(dur[mask].sum()) * per_op, "s")
        kernel_s += float(dur[mask].sum())
        for m, calls in zip(*np.unique(size[mask], return_counts=True)):
            raw_s += calls * raw[(RAW_KERNEL[kind], "C", int(m))]
            flops += calls * KERNEL_FLOPS[kind](int(m))
    out["linalg.check_overhead_ratio"] = (kernel_s / raw_s if raw_s else 0.0, "ratio")
    out["linalg.gflops"] = (flops / kernel_s / 1e9 if kernel_s else 0.0, "GFLOP/s-calc")

    top = _top_draw(spans)
    is_kernel = np.isin(names, list(KERNEL_SPANS))
    n_draws = int(np.count_nonzero(top == np.arange(len(top))))
    out["samplers.setup_s"] = (total("samplers.setup") * per_op, "s")
    out["samplers.setup_calls"] = (count("samplers.setup") * per_op, "count")
    out["samplers.self_s"] = (total("samplers.draw", self_t) * per_op, "s")
    out["samplers.ops_per_draw"] = (
        int(np.count_nonzero(is_kernel & (top >= 0))) / n_draws if n_draws else 0.0,
        "count",
    )
    out.update(_route_ratios(spans, top, is_kernel, op_tags))

    out["densities.logkernel_s"] = (total("densities.logkernel") * per_op, "s")
    out["densities.logkernel_calls"] = (count("densities.logkernel") * per_op, "count")

    write_s, read_s = total("matio.write"), total("matio.read")
    written, read = total("matio.write", size), total("matio.read", size)
    out["matio.write_s"] = (write_s * per_op, "s")
    out["matio.read_s"] = (read_s * per_op, "s")
    out["matio.bytes_written"] = (written * per_op, "B")
    out["matio.bytes_read"] = (read * per_op, "B")
    out["matio.write_MBps"] = (written / write_s / 1e6 if write_s else 0.0, "MB/s")
    out["matio.read_MBps"] = (read / read_s / 1e6 if read_s else 0.0, "MB/s")

    out["cli.self_s"] = (total("cli.main", self_t) * per_op, "s")
    out["validation.ks_s"] = (total("validation.ks") * per_op, "s")
    out["validation.cdf_evals"] = (total("validation.cdf", size) * per_op, "count")
    out["validation.cdf_s"] = (total("validation.cdf") * per_op, "s")
    out["suite.self_s"] = (total("suite.run_checks", self_t) * per_op, "s")
    return out


RATIO_PARAMS = ("cov", "prec_chol")
FORMS = {False: "full", True: "chol"}


def _route_ratios(spans, top, is_kernel, op_tags):
    """Direct over indirect draw time and kernel count, per (param, form)."""
    dur, op = spans["dur"], spans["op"]
    draw_idx = np.flatnonzero(top == np.arange(len(top)))
    draw_time = {}
    draw_ops = {}
    kernels_per_draw = np.bincount(top[is_kernel & (top >= 0)], minlength=len(top))
    for i in draw_idx:
        tag = op_tags.get(int(op[i]))
        if tag is None:
            continue
        draw_time.setdefault(tag, []).append(dur[i])
        draw_ops.setdefault(tag, []).append(kernels_per_draw[i])
    out = {}
    for param in RATIO_PARAMS:
        for retcholu, form in FORMS.items():
            ind, dirk = (param, "indirect", retcholu), (param, "direct", retcholu)
            if ind in draw_time and dirk in draw_time:
                t = statistics.median(draw_time[dirk]) / statistics.median(draw_time[ind])
                o = float(np.mean(draw_ops[dirk])) / float(np.mean(draw_ops[ind]))
            else:
                t = o = 0.0
            out[f"samplers.time_ratio.{param}.{form}"] = (t, "ratio")
            out[f"samplers.op_ratio.{param}.{form}"] = (o, "ratio")
    return out


def raw_metrics(raw):
    """The raw-kernel reference as per-layer metrics, in microseconds per call."""
    out = {}
    for m in RAW_SIZES:
        for kernel in ("dpotrf", "dtrtri", "dtrmm"):
            for order in ("C", "F"):
                out[f"raw.{kernel}.{order}.m{m}_us"] = (raw[(kernel, order, m)] * 1e6, "us")
        out[f"raw.triu_sym.m{m}_us"] = (raw[("triu", "C", m)] * 1e6, "us")
    return out


def draw_kernel_counts(spans):
    """Kernel calls under each outermost samplers.draw span, as (op, {kind: calls})."""
    names = spans["name"]
    top = _top_draw(spans)
    draws = np.flatnonzero(top == np.arange(len(top)))
    counts = {}
    for span, kind in KERNEL_SPANS.items():
        mask = (names == span) & (top >= 0)
        counts[kind] = np.bincount(top[mask], minlength=len(top))
    return [
        (int(spans["op"][i]), {kind: int(counts[kind][i]) for kind in ("potrf", "trtri", "trmm")})
        for i in draws
    ]
