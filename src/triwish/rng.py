"""Seeded deterministic random streams and the scalar draw routines.

The generator definition below is frozen; changing any part of it changes
every seeded result in the package and is a breaking change.

Raw stream
    Philox 4x64 with 10 rounds (the counter-based generator shipped with
    numpy as ``numpy.random.Philox``), keyed with the two 64-bit words
    ``(seed, stream)`` and counter starting at zero.  Successive 64-bit
    outputs are consumed in order; blocks are prefetched into a buffer,
    which does not affect the sequence.

Uniform doubles
    ``u = (raw >> 11) * 2**-53``, i.e. the top 53 bits, giving u in [0, 1).

Standard normal
    Box-Muller, cosine branch only, consuming exactly two uniforms per
    draw: with uniforms u1 then u2,
    ``z = sqrt(-2 log(1 - u1)) * cos(2 pi u2)``.
    (1 - u1 lies in (0, 1], so the log is always defined.)

Gamma(shape, scale)
    Marsaglia-Tsang rejection for shape >= 1.  Each attempt consumes one
    normal draw (redrawn while 1 + c*x <= 0), then one uniform for the
    acceptance test; the squeeze ``u < 1 - 0.0331 x^4`` is tried before
    the log test.  For shape < 1 the draw is
    ``gamma(shape + 1, scale) * (1 - u)**(1/shape)``
    with the boost uniform drawn after the gamma.

Chi(k)
    ``sqrt(gamma(k / 2, 2))``, valid for any real k > 0.

Parallel work uses independent streams ``RngStream(seed, stream=i)``; the
stream id is the second Philox key word, so distinct ids give statistically
independent sequences for the same seed.

Compiled column walk
    :func:`column_walk` draws Bartlett fill columns (:mod:`triwish.samplers`)
    from uniforms read with :meth:`RngStream.peek_uniforms`, making the libm
    calls and IEEE operations of :meth:`RngStream.standard_normal` and
    :meth:`RngStream.chi` in their order.  It runs ``_boxmuller.c``, which
    :func:`compiled_loop` builds on first use with the system C compiler
    (``cc -O2 -fPIC -shared -ffp-contract=off -lm``) into this package's
    ``__pycache__`` and loads through ctypes; where that fails, the fills
    run the scalar draws.  Both give the bits of the running process's libm.
"""

import ctypes
import hashlib
import math
import os
import pathlib
import subprocess
import tempfile

import numpy as np

from .errors import InvalidDegreesOfFreedom, InvalidParameter

_TWO_PI = 2.0 * math.pi
_U53 = 2.0 ** -53
_BLOCK = 4096


class RngStream:
    """Single-owner deterministic random stream.

    Identical ``(seed, stream)`` pairs produce bit-identical draw
    sequences.  Not safe for concurrent use; give each task its own
    stream.
    """

    def __init__(self, seed, stream=0):
        if not 0 <= int(seed) < 2 ** 64:
            raise InvalidParameter("seed must fit in an unsigned 64-bit integer")
        if not 0 <= int(stream) < 2 ** 64:
            raise InvalidParameter("stream id must fit in an unsigned 64-bit integer")
        self.seed = int(seed)
        self.stream = int(stream)
        self._key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=self._key)
        # The current block both as an array (sliced by peek_uniforms) and
        # as a reversed list (popped by uniform); only the list's length says
        # how much of the block is consumed.
        self._block = None
        self._buf = []
        self._blocks = 0

    def _refill(self):
        block = (self._bitgen.random_raw(_BLOCK) >> 11) * _U53
        block.flags.writeable = False
        buf = block.tolist()
        buf.reverse()
        self._block = block
        self._buf = buf
        self._blocks += 1
        return buf

    @property
    def position(self):
        """Number of uniforms consumed so far: the exact Philox stream position."""
        return self._blocks * _BLOCK - len(self._buf)

    def uniform(self):
        """Next uniform double in [0, 1)."""
        buf = self._buf
        if not buf:
            buf = self._refill()
        return buf.pop()

    def skip(self, k):
        """Consume the next k uniforms, leaving the stream where k calls of
        :meth:`uniform` would.  Whole blocks are skipped by advancing the
        Philox counter (four outputs per step), without generating them."""
        buf = self._buf
        if k > len(buf):
            whole, k = divmod(k - len(buf), _BLOCK)
            self._bitgen.advance(whole * _BLOCK // 4)
            self._blocks += whole
            buf = self._buf = self._refill() if k else []
        del buf[len(buf) - k:]

    def peek_uniforms(self, k):
        """The next k uniforms as a float64 array, without consuming them.

        Philox is counter-based, so reading ahead costs only the generation:
        the uniforms past the current block come from a copy of the state.
        """
        left = len(self._buf)
        start = _BLOCK - left
        head = self._block[start:start + k] if left else np.empty(0)
        if k <= left:
            return head
        ahead = np.random.Philox(key=self._key)
        ahead.state = self._bitgen.state
        return np.concatenate((head, (ahead.random_raw(k - left) >> 11) * _U53))

    def standard_normal(self):
        """One N(0, 1) draw; consumes exactly two raw outputs."""
        u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(_TWO_PI * u2)

    def gamma(self, shape, scale=1.0):
        """One gamma draw with the given shape and scale, any real shape > 0."""
        if not shape > 0.0:
            raise InvalidParameter(f"gamma shape must be positive, got {shape}")
        if not scale > 0.0:
            raise InvalidParameter(f"gamma scale must be positive, got {scale}")
        if shape < 1.0:
            g = self._gamma_mt(shape + 1.0)
            u = self.uniform()
            return g * (1.0 - u) ** (1.0 / shape) * scale
        return self._gamma_mt(shape) * scale

    def _gamma_mt(self, shape):
        # Marsaglia-Tsang, shape >= 1, unit scale.
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.standard_normal()
            v = 1.0 + c * x
            while v <= 0.0:
                x = self.standard_normal()
                v = 1.0 + c * x
            v = v * v * v
            u = self.uniform()
            x2 = x * x
            if u < 1.0 - 0.0331 * x2 * x2:
                return d * v
            if u > 0.0 and math.log(u) < 0.5 * x2 + d * (1.0 - v + math.log(v)):
                return d * v

    def chi(self, k):
        """One chi draw with k > 0 real degrees of freedom (sqrt of chi-square)."""
        if not k > 0.0:
            raise InvalidDegreesOfFreedom(f"chi degrees of freedom must be positive, got {k}")
        return math.sqrt(self.gamma(0.5 * k, 2.0))

    def spawn(self, stream):
        """Independent stream with the same seed and the given stream id."""
        return RngStream(self.seed, stream)


# The compiled column walk: its source, how it is built and where the
# library is cached.  Flags that may change the bits (-ffast-math,
# -march=native, a vector math library such as libmvec) are not used.
_C_SOURCE = pathlib.Path(__file__).with_name("_boxmuller.c")
_CC = "cc"
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_LDLIBS = ("-lm",)
_CACHE = _C_SOURCE.with_name("__pycache__")
_NOT_LOADED = object()
_loop = _NOT_LOADED


def _build_loop():
    """Build (unless cached) and load the C loop; None if that is not possible."""
    try:
        source = _C_SOURCE.read_bytes()
        tag = hashlib.sha256(source + " ".join(_CFLAGS + _LDLIBS).encode()).hexdigest()[:16]
        lib = _CACHE / f"_boxmuller-{tag}.so"
        if not lib.exists():
            _CACHE.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=_CACHE)
            os.close(fd)
            try:
                subprocess.run([_CC, *_CFLAGS, "-o", tmp, str(_C_SOURCE), *_LDLIBS],
                               check=True, capture_output=True, timeout=120)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        fn = ctypes.CDLL(str(lib)).triwish_bartlett_walk
    except (OSError, subprocess.SubprocessError):
        return None
    size, ptr = ctypes.c_size_t, ctypes.c_void_p
    fn.argtypes = (ptr, size, ptr, size, size, size, ptr, ctypes.c_double, ptr)
    fn.restype = size
    return fn


def compiled_loop():
    """The compiled column walk, built and loaded on the first call, or None
    when this process cannot build or load it."""
    global _loop
    if _loop is _NOT_LOADED:
        _loop = _build_loop()
    return _loop


def column_walk(u, z, col, ncol, df):
    """Draw columns ``col .. ncol-1`` of the stacked fills z from the uniforms u.

    z is a C-ordered (k, m, m) float64 array; column c is column ``c % m``
    of fill ``c // m``, and gets ``c % m`` standard normals above the
    diagonal, then the diagonal ``chi(df[c % m])``, each drawn as
    :meth:`RngStream.standard_normal` and :meth:`RngStream.chi` would draw
    it from the same uniforms.  The 1-d u is consumed in order.
    Returns the first column the uniforms did not finish and the number of
    uniforms the finished columns used.  Only where :func:`compiled_loop`
    loads the walk.
    """
    m = z.shape[-1]
    if not (u.dtype == z.dtype == df.dtype == np.float64
            and u.flags.c_contiguous and z.flags.c_contiguous and df.flags.c_contiguous
            and u.ndim == 1 and z.ndim == 3 and z.shape[1] == m and df.shape == (m,)
            and 0 <= col <= ncol <= z.shape[0] * m):
        raise InvalidParameter("column_walk needs C-contiguous float64 arrays of matching shapes")
    if not (df > 0.0).all():
        # As RngStream.chi; a NaN df would also never accept, so the fill
        # would read ever larger windows.
        raise InvalidDegreesOfFreedom("chi degrees of freedom must be positive")
    used = ctypes.c_size_t()
    done = compiled_loop()(u.ctypes.data, len(u), z.ctypes.data, m, col, ncol,
                           df.ctypes.data, _TWO_PI, ctypes.byref(used))
    return done, used.value
