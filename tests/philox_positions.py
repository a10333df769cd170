"""Stream positions where chosen raw words come next, for tests that need
chosen uniforms to reach the compiled column walk.

For a fixed key, Philox4x64-10 (Salmon et al., SC'11) is a bijection of its
256-bit counter: each round multiplies two words by odd constants, which
have inverses modulo 2**64, and XORs the high halves of those products and
the round key into the other two words, which the low halves then let us
undo.  So the counter of the block holding any four chosen raw words can be
computed, and with it the ``RngStream`` position whose next four uniforms
they give: uniform p is lane ``p % 4`` of the block with counter
``p // 4 + 1``, and positions count modulo 2**258, where the counter wraps.
"""

_MASK = 2 ** 64 - 1
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_M0_INV, _M1_INV = pow(_M0, -1, 2 ** 64), pow(_M1, -1, 2 ** 64)


def _round_keys(seed, stream):
    return [((seed + r * _W0) & _MASK, (stream + r * _W1) & _MASK) for r in range(10)]


def philox_block(seed, stream, counter):
    """The four raw words of the block with the given 256-bit counter."""
    x0, x1, x2, x3 = ((counter >> (64 * i)) & _MASK for i in range(4))
    for k0, k1 in _round_keys(seed, stream):
        p0, p1 = _M0 * x0, _M1 * x2
        x0, x1, x2, x3 = (p1 >> 64) ^ x1 ^ k0, p1 & _MASK, (p0 >> 64) ^ x3 ^ k1, p0 & _MASK
    return [x0, x1, x2, x3]


def philox_counter(seed, stream, block):
    """The 256-bit counter whose block is the four raw words ``block``."""
    y0, y1, y2, y3 = block
    for k0, k1 in reversed(_round_keys(seed, stream)):
        x2 = (y1 * _M1_INV) & _MASK
        x0 = (y3 * _M0_INV) & _MASK
        y0, y1, y2, y3 = x0, y0 ^ ((_M1 * x2) >> 64) ^ k0, x2, y2 ^ ((_M0 * x0) >> 64) ^ k1
    return y0 | y1 << 64 | y2 << 128 | y3 << 192


def raw_word(u):
    """A raw word whose uniform ``(raw >> 11) * 2**-53`` is u, for u a
    multiple of 2**-53 in [0, 1)."""
    return int(u * 2.0 ** 53) << 11


def position_of(seed, stream, uniforms):
    """The position, a multiple of 4, of the stream ``(seed, stream)`` whose
    next four uniforms are ``uniforms``."""
    counter = philox_counter(seed, stream, [raw_word(u) for u in uniforms])
    return 4 * ((counter - 1) % 2 ** 256)
