r"""Matrix block files: bit-exact CSV (default) or NDJSON.

CSV layout: optional leading ``#`` comment lines (the run header), then one
block per matrix.  A block is the line ``# m=<m> kind=<square|cholU>``
followed by m rows of m comma-separated values; blocks are separated by a
blank line.  Values are printed with Python's shortest round-trip float
representation, so write-then-read reproduces every entry bit-exactly.

NDJSON layout: an optional first record ``{"header": [...]}``, then one
record ``{"m": ..., "kind": ..., "rows": [[...], ...]}`` per matrix, with
the bytes ``json.dumps`` gives it.

Where the compiled library of :mod:`triwish.rng` loads, the writers' values
come from its C formatter, with the bytes of ``repr``, one matrix at a time;
an NDJSON record with a non-finite value is still written by ``json.dumps``.
The CSV reader tries the library's parser first.  It takes ASCII cells of
the grammar ``[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?`` with at most 19
significant digits, joined by ``,`` in ``\n``-ended lines (the text-mode
read has already made every line end ``\n``), and rounds each exactly as
``float()`` does.  Any other file, and any value whose rounding
it cannot decide, is parsed by the Python parser from the start, so the
files accepted and the errors raised are the Python parser's.  The NDJSON
reader gives the same parser each line in the writer's own layout: ASCII
``{"m": <m>, "kind": "<kind>", "rows": [[<cells>], ...]}`` with m from 1 to
999999999, the kinds above, exactly m rows of m cells joined by ``", "``,
and each cell a JSON number with a fraction or an exponent and at most 19
significant digits.  Every other line, such as the header, one with other
spacing or key order, an integer token like ``-0`` (which ``json.loads``
reads as the int 0), ``NaN``, or a value whose rounding the parser cannot
decide, is read by ``json.loads``, so the records accepted and the errors
raised are again the Python code's.  Without the library the Python code
does it all.
"""

import contextlib
import functools
import itertools
import json
import re
import sys

import numpy as np

from . import rng
from .errors import InvalidParameter

_BLOCK_RE = re.compile(r"^# m=(\d+) kind=(square|cholU)$")

KIND_SQUARE = "square"
KIND_CHOLU = "cholU"


def format_float(v):
    """Shortest decimal representation that parses back to the same float."""
    return repr(float(v))


def open_output(path):
    """Context manager for the text destination of every output file.

    '-' is the ``sys.stdout`` of the moment, left open; any other path is
    opened for writing as UTF-8 with LF line ends.
    """
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


# The layouts of triwish_format_rows: CSV lines, or the items of an NDJSON
# "rows" list.
_CSV, _NDJSON = 0, 1
# The bytes one value may take, with its separator (see _boxmuller.c).
_CELL_BYTES = 24 + 2
# Ryu's table sizes for doubles: 5^-q for q < 342 and 5^i for i < 326.
_POW5_INV_COUNT, _POW5_COUNT, _POW5_BITS = 342, 326, 125
# The decimal exponents q of the parser's table of 10^q.  Past them w * 10^q
# with w < 10^19 is below half the smallest subnormal, or overflows.
_POW10_MIN, _POW10_MAX = -342, 308
_WORD = 2**64 - 1


def _uint64s(words):
    out = np.array(words, dtype=np.uint64)
    out.flags.writeable = False
    return out


@functools.cache
def _tables():
    """The C text functions' constants, from exact integer arithmetic:
    Ryu's 5^-q and 5^i (see shortest in _boxmuller.c), each as its low and
    high word, and for each q the 4 words (t's high and low word, s, exact)
    of 10^q = t * 2^s with 2^127 <= t < 2^128 rounded down."""
    inv = [(1 << (5**q).bit_length() - 1 + _POW5_BITS) // 5**q + 1
           for q in range(_POW5_INV_COUNT)]
    pow5 = [5**i << _POW5_BITS >> (5**i).bit_length() for i in range(_POW5_COUNT)]
    pow10 = []
    for q in range(_POW10_MIN, _POW10_MAX + 1):
        if q >= 0:
            s = (10**q).bit_length() - 128
            t, rem = (10**q << -s, 0) if s < 0 else divmod(10**q, 1 << s)
        else:
            s = -127 - (10**-q).bit_length()
            t, rem = divmod(1 << -s, 10**-q)
        pow10 += [t >> 64, t & _WORD, s & _WORD, int(rem == 0)]
    return (_uint64s([w for v in inv for w in (v & _WORD, v >> 64)]),
            _uint64s([w for v in pow5 for w in (v & _WORD, v >> 64)]),
            _uint64s(pow10))


def _rows_text(mat, layout):
    """The text of mat's rows: each row's values joined by "," and ended by
    "\\n" (_CSV), or each row's values joined by ", " in brackets and the
    rows joined by ", " (_NDJSON)."""
    lib = rng.compiled_loop()
    if lib is None:
        rows = mat.tolist()
        if layout == _CSV:
            return "".join(",".join(map(repr, row)) + "\n" for row in rows)
        return ", ".join("[" + ", ".join(map(repr, row)) + "]" for row in rows)
    mat = np.ascontiguousarray(mat)
    m = mat.shape[0]
    out = np.empty(m * (m * _CELL_BYTES + 2), dtype=np.uint8)
    inv, pow5, _ = _tables()
    n = lib.format_rows(mat.ctypes.data, m, layout, out.ctypes.data, inv.ctypes.data,
                        pow5.ctypes.data)
    return str(out[:n].data, "ascii")


def _write_csv(fh, mats, kinds, header):
    for line in header:
        fh.write(f"# {line}\n")
    for idx, (mat, kind) in enumerate(zip(mats, kinds)):
        if idx or header:
            fh.write("\n")
        m = mat.shape[0]
        fh.write(f"# m={m} kind={kind}\n")
        fh.write(_rows_text(mat, _CSV))


def _write_ndjson(fh, mats, kinds, header):
    if header:
        fh.write(json.dumps({"header": list(header)}) + "\n")
    for mat, kind in zip(mats, kinds):
        if not np.isfinite(mat).all():
            # json spells the non-finite values NaN, Infinity and -Infinity.
            fh.write(json.dumps({"m": mat.shape[0], "kind": kind, "rows": mat.tolist()}) + "\n")
            continue
        rows = _rows_text(mat, _NDJSON)
        fh.write(f'{{"m": {mat.shape[0]}, "kind": {json.dumps(kind)}, "rows": [{rows}]}}\n')


def write_matrices(path, mats, kinds=None, header=(), fmt="csv"):
    """Write matrices to ``path`` ('-' for stdout) in the given format."""
    # Everything the readers would reject is refused before the file opens,
    # so a bad matrix late in the list leaves no partial file.
    arrays = []
    for idx, mat in enumerate(mats):
        try:
            arrays.append(np.asarray(mat, dtype=np.float64))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidParameter(f"matrix {idx} is not an array of numbers") from exc
    mats = arrays
    header = list(header)  # checked below, then written
    if kinds is None:
        kinds = [KIND_SQUARE] * len(mats)
    elif isinstance(kinds, str):
        kinds = [kinds] * len(mats)
    if len(kinds) != len(mats):
        raise InvalidParameter("one kind per matrix required")
    writer = {"csv": _write_csv, "ndjson": _write_ndjson}.get(fmt)
    if writer is None:
        raise InvalidParameter(f"unknown format {fmt!r}")
    for idx, (mat, kind) in enumerate(zip(mats, kinds)):
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise InvalidParameter(f"matrix {idx} has shape {mat.shape}, not m x m with m >= 1")
        if kind not in (KIND_SQUARE, KIND_CHOLU):
            raise InvalidParameter(f"unknown matrix kind {kind!r} for matrix {idx}")
    for line in header:
        if not isinstance(line, str):
            raise InvalidParameter(f"header line {line!r} is not a string")
        # In CSV, one line of text that the reader takes for a header, not a
        # block, and that its strip gives back unchanged.
        text = f"# {line}"
        if fmt == "csv" and (line != line.strip() or text.splitlines() != [text]
                             or _BLOCK_RE.match(text)):
            raise InvalidParameter(f"header line {line!r} would not read back as one")
    with open_output(path) as fh:
        writer(fh, mats, kinds, header)


# What str.splitlines breaks an ASCII line at, besides "\n".
_LINE_BREAKS = re.compile("[\r\x0b\x0c\x1c-\x1e]")


def _parse_csv(text):
    lib = rng.compiled_loop()
    if lib is not None:
        parsed = _parse_csv_compiled(text, lib.parse_rows)
        if parsed is not None:
            return parsed
    return _parse_csv_python(text)


def _parse_csv_compiled(text, parse_rows):
    """What _parse_csv_python returns for the ASCII text, with the rows of
    each block read by parse_rows; None where that cannot be done, and
    _parse_csv_python then parses the text."""
    if not text.isascii():
        return None
    data = text.encode("ascii")
    _, _, pow10 = _tables()
    header = []
    blocks = []
    pos, end = 0, len(text)
    while pos < end:
        eol = text.find("\n", pos)
        if eol < 0:
            eol = end
        line = text[pos:eol]
        pos = eol + 1
        if _LINE_BREAKS.search(line):
            return None
        if not line.strip():
            continue
        match = _BLOCK_RE.match(line)
        if match:
            digits = match.group(1)
            m = int(digits) if len(digits) < 10 else 0
            # Each of m * m values takes at least one byte and a separator,
            # so a block too large for the text is never allocated.
            if not 0 < 2 * m * m - 1 <= end - pos:
                return None
            mat = np.empty((m, m))
            used = parse_rows(data, pos, end, m, _CSV, mat.ctypes.data, pow10.ctypes.data,
                              _POW10_MIN, _POW10_MAX)
            if used < 0:
                return None
            pos += used
            blocks.append((match.group(2), mat))
        elif line.startswith("#"):
            header.append(line[1:].strip())
        else:
            return None
    return header, blocks


def _parse_csv_python(text):
    header = []
    blocks = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        match = _BLOCK_RE.match(line)
        if match:
            try:
                m = int(match.group(1))
            except ValueError as exc:  # more digits than int() converts
                raise InvalidParameter(f"block size on line {i + 1} is too large") from exc
            if m < 1:
                raise InvalidParameter(f"block size must be positive on line {i + 1}")
            kind = match.group(2)
            rows = []
            for r in range(m):
                i += 1
                if i >= len(lines):
                    raise InvalidParameter(f"block of size {m} truncated at row {r + 1}")
                cells = lines[i].split(",")
                if len(cells) != m:
                    raise InvalidParameter(
                        f"expected {m} values per row, got {len(cells)} on line {i + 1}"
                    )
                try:
                    rows.append([float(c) for c in cells])
                except ValueError as exc:
                    raise InvalidParameter(f"non-numeric value on line {i + 1}") from exc
            blocks.append((kind, np.array(rows, dtype=np.float64)))
        elif line.startswith("#"):
            header.append(line[1:].strip())
        else:
            raise InvalidParameter(f"unexpected content on line {i + 1}: {line[:40]!r}")
        i += 1
    return header, blocks


# The start of a matrix record as the writer lays it out.
_RECORD_RE = re.compile(r'\{"m": ([1-9][0-9]{0,8}), "kind": "(square|cholU)", "rows": \[')


def _record_compiled(line, parse_rows):
    """(kind, matrix) of a matrix record in the writer's own layout, its rows
    read by parse_rows; None for any other line, which json.loads reads."""
    match = _RECORD_RE.match(line)
    if match is None or not line.endswith("]}") or not line.isascii():
        return None
    m = int(match.group(1))
    pos, end = match.end(), len(line) - 2
    # As in the CSV reader: a block too large for the line is never allocated.
    if 2 * m * m - 1 > end - pos:
        return None
    mat = np.empty((m, m))
    _, _, pow10 = _tables()
    used = parse_rows(line.encode("ascii"), pos, end, m, _NDJSON, mat.ctypes.data,
                      pow10.ctypes.data, _POW10_MIN, _POW10_MAX)
    if used != end - pos:
        return None
    return match.group(2), mat


def _parse_ndjson(text):
    header = []
    blocks = []
    lib = rng.compiled_loop()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        block = lib and _record_compiled(line, lib.parse_rows)
        if block:
            blocks.append(block)
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise InvalidParameter(f"malformed JSON on line {lineno}") from exc
        if not isinstance(rec, dict):
            raise InvalidParameter(f"line {lineno} is not a JSON object")
        if "header" in rec:
            lines = rec["header"]
            if not isinstance(lines, list) or not all(isinstance(v, str) for v in lines):
                raise InvalidParameter(f"header on line {lineno} is not a list of strings")
            header.extend(lines)
            continue
        try:
            m = rec["m"]
            kind = rec["kind"]
            rows = rec["rows"]
            mat = np.array(rows, dtype=np.float64)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidParameter(f"malformed matrix record on line {lineno}") from exc
        if type(m) is not int:
            raise InvalidParameter(f"matrix size on line {lineno} is not an integer: {m!r}")
        if kind not in (KIND_SQUARE, KIND_CHOLU):
            raise InvalidParameter(f"unknown matrix kind {kind!r} on line {lineno}")
        if mat.shape != (m, m):
            raise InvalidParameter(f"matrix on line {lineno} is not {m}x{m}")
        # The shape check leaves rows a list of lists; np.array also read "2.5" and
        # true as numbers.
        if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
            raise InvalidParameter(f"matrix on line {lineno} has a non-numeric entry")
        blocks.append((kind, mat))
    return header, blocks


def read_matrices(path):
    """Read a matrix file; returns (header_lines, [(kind, matrix), ...]).

    The format is auto-detected: a first non-blank character of ``{`` means
    NDJSON, anything else is parsed as CSV blocks.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidParameter(f"{path} is not UTF-8 text") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_ndjson(text)
    return _parse_csv(text)


def read_single_matrix(path):
    """Read a file that must contain exactly one matrix block."""
    _, blocks = read_matrices(path)
    if len(blocks) != 1:
        raise InvalidParameter(f"expected exactly one matrix in {path}, found {len(blocks)}")
    return blocks[0]
