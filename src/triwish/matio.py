"""Matrix block files: bit-exact CSV (default) or NDJSON.

CSV layout: optional leading ``#`` comment lines (the run header), then one
block per matrix.  A block is the line ``# m=<m> kind=<square|cholU>``
followed by m rows of m comma-separated values; blocks are separated by a
blank line.  Values are printed with Python's shortest round-trip float
representation, so write-then-read reproduces every entry bit-exactly.

NDJSON layout: an optional first record ``{"header": [...]}``, then one
record ``{"m": ..., "kind": ..., "rows": [[...], ...]}`` per matrix, with
the bytes ``json.dumps`` gives it.

A matrix that equals its transpose bit for bit, as every full draw does,
has its text made once per mirrored pair: the entries below the diagonal
reuse the strings of their mirrors above it.  The bytes are the same.
"""

import contextlib
import itertools
import json
import re
import sys

import numpy as np

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


def _row_texts(mat, sep):
    # The rows of a matrix, each its entries' reprs joined by sep.  repr is
    # most of a write's time, so for a matrix equal to its transpose bit for
    # bit (0.0 and -0.0 print apart) it runs on the upper triangle only.
    rows = mat.tolist()
    bits = mat.view(np.uint64)
    if not np.array_equal(bits, bits.T):
        return [sep.join(map(repr, row)) for row in rows]
    texts = np.empty(mat.shape, dtype=object)
    for i, row in enumerate(rows):
        texts[i, i:] = list(map(repr, row[i:]))
        texts[i:, i] = texts[i, i:]
    return [sep.join(row) for row in texts.tolist()]


def _write_csv(fh, mats, kinds, header):
    for line in header:
        fh.write(f"# {line}\n")
    for idx, (mat, kind) in enumerate(zip(mats, kinds)):
        if idx or header:
            fh.write("\n")
        m = mat.shape[0]
        fh.write(f"# m={m} kind={kind}\n")
        fh.writelines(row + "\n" for row in _row_texts(mat, ","))


def _write_ndjson(fh, mats, kinds, header):
    if header:
        fh.write(json.dumps({"header": list(header)}) + "\n")
    for mat, kind in zip(mats, kinds):
        if not np.isfinite(mat).all():
            # json spells the non-finite values NaN, Infinity and -Infinity.
            fh.write(json.dumps({"m": mat.shape[0], "kind": kind, "rows": mat.tolist()}) + "\n")
            continue
        rows = ", ".join(f"[{row}]" for row in _row_texts(mat, ", "))
        fh.write(f'{{"m": {mat.shape[0]}, "kind": {json.dumps(kind)}, "rows": [{rows}]}}\n')


def write_matrices(path, mats, kinds=None, header=(), fmt="csv"):
    """Write matrices to ``path`` ('-' for stdout) in the given format."""
    mats = [np.asarray(m, dtype=np.float64) for m in mats]
    if kinds is None:
        kinds = [KIND_SQUARE] * len(mats)
    elif isinstance(kinds, str):
        kinds = [kinds] * len(mats)
    if len(kinds) != len(mats):
        raise InvalidParameter("one kind per matrix required")
    writer = {"csv": _write_csv, "ndjson": _write_ndjson}.get(fmt)
    if writer is None:
        raise InvalidParameter(f"unknown format {fmt!r}")
    # Everything the readers would reject is refused before the file opens,
    # so a bad matrix late in the list leaves no partial file.
    for idx, (mat, kind) in enumerate(zip(mats, kinds)):
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise InvalidParameter(f"matrix {idx} has shape {mat.shape}, not m x m with m >= 1")
        if kind not in (KIND_SQUARE, KIND_CHOLU):
            raise InvalidParameter(f"unknown matrix kind {kind!r} for matrix {idx}")
    if fmt == "csv":
        for line in header:
            # One line of text that the reader takes for a header, not a block.
            text = f"# {line}"
            if text.splitlines() != [text] or _BLOCK_RE.match(text):
                raise InvalidParameter(f"header line {line!r} would not read back as one")
    with open_output(path) as fh:
        writer(fh, mats, kinds, header)


def _parse_csv(text):
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
            m = int(match.group(1))
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


def _parse_ndjson(text):
    header = []
    blocks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
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
