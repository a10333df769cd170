"""Seeded deterministic random streams and the scalar draw routines.

The generator definition below is frozen; changing any part of it changes
every seeded result in the package and is a breaking change.

Raw stream
    Philox 4x64 with 10 rounds (the counter-based generator shipped with
    numpy as ``numpy.random.Philox``), keyed with the two 64-bit words
    ``(seed, stream)``.  Uniform p, counting from zero, is made from the
    64-bit output in lane ``p % 4`` of the block with the 256-bit counter
    ``p // 4 + 1``, which is where numpy's Philox started at counter zero
    puts it.  So a stream's whole state is its seed, its id and its
    position; the uniforms are built a block of 4096 at a time, which does
    not affect the sequence.  Seed and stream id are integer values in
    [0, 2**64).

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

Bartlett fills
    :func:`bartlett_fills` draws k Bartlett fills of :mod:`triwish.samplers`
    column by column, each column's normals and then its chi, as
    :meth:`RngStream.standard_normal` and :meth:`RngStream.chi` would.
    Where it loads, the compiled column walk draws them: ``_boxmuller.c``,
    which :func:`compiled_loop` builds on first use with the system C
    compiler (``cc -O2 -fPIC -shared -ffp-contract=off -lm``) into this
    package's ``__pycache__`` and loads through ctypes.  It makes the scalar
    draws' libm calls and IEEE operations in their order, and computes its
    uniforms itself from the stream's seed, id and position; the stream then
    skips what the walk used.  Elsewhere the scalar draws run in a Python
    loop.  Both give the same bytes and end position, with the running
    process's libm.  The same library holds the matrix text functions of
    :mod:`triwish.matio`.
"""

import collections
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
_COUNTER = 2 ** 256 - 1


def integer_value(value):
    """value as an int if it is an integer value other than a bool (3, 3.0,
    numpy.int64(3)); None for anything else, a string included."""
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    return None


def _uint64(name, value):
    v = integer_value(value)
    if v is None or not 0 <= v < 2 ** 64:
        raise InvalidParameter(f"{name} must fit in an unsigned 64-bit integer, got {value!r}")
    return v


def _philox_block(p):
    """Uniform p is lane p % 4 of the Philox block with counter p // 4 + 1,
    the first block numpy's ``Philox(counter=p // 4)`` makes; counters wrap
    at 2**256.  Returns p // 4 (mod 2**256) and the lane."""
    return p >> 2 & _COUNTER, p & 3


class RngStream:
    """Single-owner deterministic random stream.

    Identical ``(seed, stream)`` pairs produce bit-identical draw
    sequences.  Not safe for concurrent use; give each task its own
    stream.  The seed and the stream id are integer values in [0, 2**64).
    """

    def __init__(self, seed, stream=0):
        self.seed = _uint64("seed", seed)
        self.stream = _uint64("stream id", stream)
        self._position = 0
        # The unread uniforms of the current 4096-uniform block, from the
        # position on, as a reversed list popped by uniform; empty until
        # uniform needs them.
        self._buf = []

    def _refill(self):
        p = self._position
        counter, lane = _philox_block(p)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        raw = np.random.Philox(key=key, counter=counter).random_raw(lane + _BLOCK - p % _BLOCK)
        buf = ((raw[lane:] >> 11) * _U53).tolist()
        buf.reverse()
        self._buf = buf
        return buf

    @property
    def position(self):
        """Number of uniforms consumed so far: the exact Philox stream position."""
        return self._position

    def uniform(self):
        """Next uniform double in [0, 1)."""
        buf = self._buf
        if not buf:
            buf = self._refill()
        self._position += 1
        return buf.pop()

    def skip(self, k):
        """Consume the next k >= 0 uniforms, leaving the stream where k calls
        of :meth:`uniform` would.  Only the position moves; a block the skip
        lands in past the current one is built by the next :meth:`uniform`."""
        if (n := integer_value(k)) is None or n < 0:
            raise InvalidParameter(f"skip count must be a non-negative integer, got {k!r}")
        buf = self._buf
        del buf[max(len(buf) - n, 0):]
        self._position += n

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


# The compiled library: the column walk and the matrix text functions of
# triwish.matio, its source, how it is built and where it is cached.  Flags
# that may change the bits (-ffast-math, -march=native, a vector math
# library such as libmvec) are not used.
_C_SOURCE = pathlib.Path(__file__).with_name("_boxmuller.c")
_CC = "cc"
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_LDLIBS = ("-lm",)
_CACHE = _C_SOURCE.with_name("__pycache__")
_NOT_LOADED = object()
_loop = _NOT_LOADED

_Compiled = collections.namedtuple("_Compiled", "walk format_rows parse_rows")


def _build_loop():
    """Build (unless cached) and load the C library; None if that is not possible."""
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
        dll = ctypes.CDLL(str(lib))
        fns = _Compiled(dll.triwish_bartlett_walk, dll.triwish_format_rows,
                        dll.triwish_parse_rows)
    except (OSError, subprocess.SubprocessError):
        return None
    size, dbl, ptr = ctypes.c_size_t, ctypes.c_double, ctypes.c_void_p
    fns.walk.argtypes = (ctypes.POINTER(ctypes.c_uint64), size, ctypes.POINTER(dbl), size, size,
                         dbl, dbl)
    fns.walk.restype = size
    fns.format_rows.argtypes = (ptr, size, ctypes.c_int, ptr, ptr, ptr)
    fns.format_rows.restype = size
    fns.parse_rows.argtypes = (ctypes.c_char_p, size, size, size, ctypes.c_int, ptr, ptr,
                               ctypes.c_int64, ctypes.c_int64)
    fns.parse_rows.restype = ctypes.c_ssize_t
    return fns


def compiled_loop():
    """The compiled library, built and loaded on the first call: its column
    walk and the text functions of :mod:`triwish.matio`, or None when this
    process cannot build or load it.  Setting ``_loop = None`` turns all of
    them off."""
    global _loop
    if _loop is _NOT_LOADED:
        _loop = _build_loop()
    return _loop


_PHILOX_STATE = ctypes.c_uint64 * 6
_WORD = 2 ** 64 - 1


def bartlett_fills(rng, m, k, a, s):
    """k Bartlett fills of size m drawn from the stream rng, as a new
    (k, m, m) array with each fill in Fortran order (each column contiguous).

    Column j = 0..m-1 of each fill gets j standard normals above the
    diagonal, then the diagonal ``chi(a + s * (j + 1))``, then zeros.  s is
    1.0 or -1.0, so the degrees of freedom are monotone in j; both ends are
    checked before any uniform is drawn.  The stream ends where k * m
    column-by-column draws of :meth:`RngStream.standard_normal` and
    :meth:`RngStream.chi` leave it.  The walk writes every double of a
    C-ordered array in which ``fills[f, j]`` is column j of fill f, and the
    fills are returned as its transpose.
    """
    a = float(a)
    if not (a + s > 0.0 and a + s * m > 0.0):
        # A NaN df fails too: the walk's chi would never accept it.
        raise InvalidDegreesOfFreedom("chi degrees of freedom must be positive")
    fills = np.empty((k, m, m))
    loop = compiled_loop()
    if loop is None:
        normal, chi = rng.standard_normal, rng.chi
        for fill in fills:
            for j, column in enumerate(fill):
                column[:j] = [normal() for _ in range(j)]
                column[j] = chi(a + s * (j + 1))
                column[j + 1:] = 0.0
    else:
        c, lane = _philox_block(rng.position)
        c += 1
        state = _PHILOX_STATE(rng.seed, rng.stream, c & _WORD, c >> 64 & _WORD,
                              c >> 128 & _WORD, c >> 192 & _WORD)
        # byref of the double at the start of fills passes its address, and
        # holds their buffer for the call.
        z = ctypes.byref(ctypes.c_double.from_buffer(fills))
        rng.skip(loop.walk(state, lane, z, m, k, a, s))
    return fills.transpose(0, 2, 1)
