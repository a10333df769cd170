"""Bit-exact matrix file round-trips, the writers' bytes, and malformed-input rejection."""

import contextlib
import decimal
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from triwish import matio, rng
from triwish.errors import InvalidParameter, TriwishError
from triwish.linalg import gram_ut
from triwish.rng import RngStream
from triwish.samplers import DIRECT, INDIRECT, SamplerSpec, ScaleParam, prepare


def _ugly_matrices():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) * 1e17
    b = np.array([[0.1 + 0.2, -0.0], [1e-308, np.pi]])
    c = np.array([[123456789.123456789]])
    return [a, b, c]


def _both_paths():
    # The loop body runs with the compiled library as this process loads
    # it, then as a process that cannot load it runs: rng._loop = None.
    yield "compiled"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "_loop", None)
        yield "python"


def _outcome(result):
    if isinstance(result, Exception):
        return type(result), str(result)
    header, blocks = result
    return header, [(kind, mat.dtype.str, mat.shape, mat.tobytes()) for kind, mat in blocks]


def _read_both(path):
    """read_matrices on both paths, which must give the same header and
    blocks or raise the same exception class with the same message."""
    results = []
    for _ in _both_paths():
        try:
            results.append(matio.read_matrices(str(path)))
        except Exception as exc:  # compared below, then raised again
            results.append(exc)
    compiled, python = results
    assert _outcome(compiled) == _outcome(python)
    if isinstance(python, Exception):
        raise python
    return python


def test_csv_roundtrip_bit_exact(tmp_path):
    path = str(tmp_path / "mats.csv")
    mats = _ugly_matrices()
    kinds = ["square", "cholU", "square"]
    header = ["demo file", "k=v pairs allowed"]
    matio.write_matrices(path, mats, kinds=kinds, header=header)
    got_header, blocks = matio.read_matrices(path)
    assert got_header == header
    assert [k for k, _ in blocks] == kinds
    for mat, (_, back) in zip(mats, blocks):
        assert mat.tobytes() == back.tobytes()


def test_ndjson_roundtrip_bit_exact(tmp_path):
    path = str(tmp_path / "mats.ndjson")
    mats = _ugly_matrices()
    matio.write_matrices(path, mats, kinds="square", header=["hello"], fmt="ndjson")
    got_header, blocks = matio.read_matrices(path)
    assert got_header == ["hello"]
    for mat, (kind, back) in zip(mats, blocks):
        assert kind == "square"
        assert mat.tobytes() == back.tobytes()


def _oracle_bytes(mats, kinds, header, fmt):
    # The writers' bytes, built the plain way: every entry through repr for
    # CSV, and json.dumps of each record for NDJSON.
    mats = [np.asarray(mat, dtype=np.float64) for mat in mats]
    out = []
    if fmt == "csv":
        out += [f"# {line}\n" for line in header]
        for idx, (mat, kind) in enumerate(zip(mats, kinds)):
            if idx or header:
                out.append("\n")
            out.append(f"# m={mat.shape[0]} kind={kind}\n")
            out += [",".join(map(repr, row)) + "\n" for row in mat.tolist()]
    else:
        if header:
            out.append(json.dumps({"header": list(header)}) + "\n")
        for mat, kind in zip(mats, kinds):
            out.append(json.dumps({"m": mat.shape[0], "kind": kind, "rows": mat.tolist()}) + "\n")
    return "".join(out).encode("utf-8")


def _plan_outputs(m):
    # Full draws of both routes, and the squares of factor draws that
    # `triwish sample --retcholu --square` writes.
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, m))
    scale = ScaleParam(np.triu(a @ a.T) + np.triu(a @ a.T, 1).T + m * np.eye(m))
    outs = []
    for algorithm in (INDIRECT, DIRECT):
        for retcholu in (False, True):
            draw = prepare(SamplerSpec(m, m + 2.5, scale, retcholu), algorithm).draw(RngStream(m))
            outs.append(gram_ut(draw, owned=True) if retcholu else draw)
    return outs


def _edge_matrices():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6))
    sym = a + a.T
    one_off = sym.copy()
    one_off[4, 1] = np.nextafter(one_off[4, 1], np.inf)
    zeros = sym.copy()
    zeros[0, 2], zeros[2, 0] = 0.0, -0.0
    factor = np.triu(a)
    factor[np.tril_indices(6, -1)] = -0.0
    specials = np.array([np.nan, np.inf, -np.inf, 5e-324, 1e-5, 1e16, 1e17, -1e17])
    special_sym = np.diag(specials[:6])
    special_sym[0, 1:] = special_sym[1:, 0] = specials[2:7]
    special_gen = np.resize(specials, (4, 4))
    wide = np.zeros((8, 8))
    wide[:6, :6] = sym
    wide += wide.T
    return [
        sym, one_off, zeros, factor, special_sym, special_gen,
        np.asfortranarray(sym), np.asfortranarray(special_gen),
        wide[::2, ::2], wide[1::3, 1::3], a.T, a[:, ::2][:3],
        np.zeros((1, 1)), np.array([[-0.0]]),
    ]


@pytest.mark.parametrize("fmt", ["csv", "ndjson"])
@pytest.mark.parametrize("m", [1, 2, 5, 50, 64, 65, 200])
def test_writer_bytes_on_plan_outputs(tmp_path, fmt, m):
    mats = _plan_outputs(m)
    for mat in mats:
        assert mat.tobytes() == mat.T.tobytes()
    path = tmp_path / "out.txt"
    header = ["triwish sample", f"m={m}"]
    for _ in _both_paths():
        matio.write_matrices(str(path), mats, kinds="square", header=header, fmt=fmt)
        assert path.read_bytes() == _oracle_bytes(mats, ["square"] * len(mats), header, fmt)


@pytest.mark.parametrize("fmt", ["csv", "ndjson"])
@pytest.mark.parametrize("header", [(), ("h",)])
def test_writer_bytes_on_edge_matrices(tmp_path, fmt, header):
    mats = _edge_matrices()
    kinds = ["square", "cholU"] * (len(mats) // 2)
    path = tmp_path / "out.txt"
    for _ in _both_paths():
        matio.write_matrices(str(path), mats, kinds=kinds, header=header, fmt=fmt)
        assert path.read_bytes() == _oracle_bytes(mats, kinds, header, fmt)
        back = _read_both(path)[1]
        assert [mat.shape for _, mat in back] == [mat.shape for mat in mats]
        for mat in mats:
            matio.write_matrices(str(path), [mat], kinds="cholU", fmt=fmt)
            assert path.read_bytes() == _oracle_bytes([mat], ["cholU"], (), fmt)


@pytest.mark.parametrize("fmt", ["csv", "ndjson"])
def test_header_may_be_any_iterable(tmp_path, fmt):
    path = tmp_path / "out.txt"
    matio.write_matrices(str(path), [np.eye(2)], header=(line for line in ["a", "b"]), fmt=fmt)
    assert path.read_bytes() == _oracle_bytes([np.eye(2)], ["square"], ["a", "b"], fmt)


def test_format_float_shortest_roundtrip():
    rng = np.random.default_rng(8)
    values = list(rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, size=1000))
    values += [0.0, -0.0, 1.0, 2.0**-1074, np.nextafter(1.0, 2.0)]
    for v in values:
        assert float(matio.format_float(v)) == float(v)


def test_single_matrix_reader(tmp_path):
    path = str(tmp_path / "one.csv")
    matio.write_matrices(path, [np.eye(2)])
    kind, mat = matio.read_single_matrix(path)
    assert kind == "square"
    np.testing.assert_array_equal(mat, np.eye(2))

    matio.write_matrices(path, [np.eye(2), np.eye(2)])
    with pytest.raises(InvalidParameter):
        matio.read_single_matrix(path)


def test_truncated_block_rejected(tmp_path):
    path = str(tmp_path / "bad.csv")
    path_obj = tmp_path / "bad.csv"
    path_obj.write_text("# m=2 kind=square\n1.0,2.0\n")
    with pytest.raises(InvalidParameter):
        _read_both(path)


def test_wrong_row_width_rejected(tmp_path):
    (tmp_path / "bad.csv").write_text("# m=2 kind=square\n1.0,2.0\n1.0,2.0,3.0\n")
    with pytest.raises(InvalidParameter):
        _read_both(tmp_path / "bad.csv")


def test_non_numeric_rejected(tmp_path):
    (tmp_path / "bad.csv").write_text("# m=1 kind=square\nspam\n")
    with pytest.raises(InvalidParameter):
        _read_both(tmp_path / "bad.csv")


def test_stray_content_rejected(tmp_path):
    (tmp_path / "bad.csv").write_text("1.0,2.0\n")
    with pytest.raises(InvalidParameter):
        _read_both(tmp_path / "bad.csv")


def test_malformed_ndjson_rejected(tmp_path):
    (tmp_path / "bad.ndjson").write_text('{"m": 2, "kind": "square"\n')
    with pytest.raises(InvalidParameter):
        _read_both(tmp_path / "bad.ndjson")
    (tmp_path / "bad2.ndjson").write_text('{"m": 2, "kind": "square", "rows": [[1.0]]}\n')
    with pytest.raises(InvalidParameter):
        _read_both(tmp_path / "bad2.ndjson")
    (tmp_path / "bad3.ndjson").write_text('{"m": 1, "kind": "wat", "rows": [[1.0]]}\n')
    with pytest.raises(InvalidParameter):
        _read_both(tmp_path / "bad3.ndjson")


def test_kinds_length_checked(tmp_path):
    with pytest.raises(InvalidParameter):
        matio.write_matrices(str(tmp_path / "x.csv"), [np.eye(2)], kinds=["square", "cholU"])
    with pytest.raises(InvalidParameter):
        matio.write_matrices(str(tmp_path / "x.csv"), [np.eye(2)], fmt="xml")


_UNREADABLE_WRITES = {
    "not-square": ([np.ones((2, 3))], None, ()),
    "one-dim": ([np.ones(3)], None, ()),
    "empty": ([np.ones((0, 0))], None, ()),
    "bad-matrix-last": ([np.eye(2), np.eye(3), np.ones((3, 2))], None, ()),
    "kind-foo": ([np.eye(2)], "foo", ()),
    "kind-case": ([np.eye(2), np.eye(2)], ["cholU", "Square"], ()),
    "ragged": ([[[1.0, 2.0], [3.0]]], None, ()),
    "non-numeric": ([[["a"]]], None, ()),
    "header-not-str": ([np.eye(2)], None, [5]),
}
# NDJSON keeps any header string on one line; CSV writes each as "# <line>".
_UNREADABLE_CSV_HEADERS = {
    "header-newline": ["a\nb"],
    "header-line-separator": ["x\u2028y"],
    "header-block-line": ["ok", "m=1 kind=square"],
    "header-padded": ["  x  "],
    "header-trailing-space": ["x "],
}


@pytest.mark.parametrize(
    "fmt, case",
    [(fmt, case) for case in _UNREADABLE_WRITES for fmt in ("csv", "ndjson")]
    + [("csv", case) for case in _UNREADABLE_CSV_HEADERS],
)
def test_writer_refuses_what_the_reader_rejects(tmp_path, fmt, case):
    if case in _UNREADABLE_WRITES:
        mats, kinds, header = _UNREADABLE_WRITES[case]
    else:
        mats, kinds, header = [np.eye(2)], None, _UNREADABLE_CSV_HEADERS[case]
    path = tmp_path / "out"
    with pytest.raises(InvalidParameter):
        matio.write_matrices(str(path), mats, kinds, header, fmt)
    assert not path.exists()


@pytest.mark.parametrize(
    "data",
    [
        b"# m=1 kind=square\n\xff\xfe\n",
        b'{"m": 1, "kind": "square", "rows": [[1.0]]}\n5\n',
        b'{"header": 5}\n',
        b'{"header": "abc"}\n',
        b'{"m": 1e999, "kind": "square", "rows": [[1.0]]}\n',
        b'{"m": ' + b"9" * 5000 + b"}\n",
        b'{"header": []}\n' + b"[" * 100_000 + b"\n",
        b"# m=0 kind=square\n",
        b'{"m": 1.7, "kind": "square", "rows": [["2.5"]]}\n',
        b'{"m": 1, "kind": "square", "rows": [["2.5"]]}\n',
        b'{"m": 1, "kind": "square", "rows": [[true]]}\n',
        b'{"m": true, "kind": "square", "rows": [[1.0]]}\n',
        b'{"m": 2.0, "kind": "square", "rows": [[1.0, 0.0], [0.0, 1.0]]}\n',
        b'{"m": 2, "kind": "square", "rows": [[1.0, 0.0], [false, 1.0]]}\n',
        b'{"m": 1, "kind": "square", "rows": [2.5]}\n',
        b"# m=" + b"9" * 5000 + b" kind=square\n1.0\n",
    ],
    ids=[
        "not-utf8", "number-record", "header-number", "header-string",
        "m-overflow", "m-too-many-digits", "deep-nesting", "empty-block",
        "m-fraction", "string-entry", "bool-entry", "m-bool", "m-float",
        "bool-among-numbers", "flat-rows", "csv-m-too-many-digits",
    ],
)
def test_malformed_input_raises_invalid_parameter(tmp_path, data):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(InvalidParameter):
        _read_both(path)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    prefix=st.sampled_from([b"", b"{", b"# m=2 kind=square\n", b'{"m": 1, "kind": "square", "rows": ',
                            b'{"m": 2, "kind": "square", "rows": [[']),
    body=st.binary(max_size=200)
    | st.text(alphabet="0123456789.,eE+-_ \n#\x0c[]{}", max_size=200).map(str.encode),
)
def test_arbitrary_bytes_read_or_rejected(tmp_path, prefix, body):
    path = tmp_path / "fuzz.txt"
    path.write_bytes(prefix + body)
    try:
        _, blocks = _read_both(path)
    except TriwishError:
        return
    for kind, mat in blocks:
        assert kind in (matio.KIND_SQUARE, matio.KIND_CHOLU)
        assert mat.dtype == np.float64
        assert mat.ndim == 2 and mat.shape[0] == mat.shape[1] >= 1


@pytest.fixture
def library():
    """The compiled library; the test is skipped where it does not load."""
    lib = rng.compiled_loop()
    if lib is None:
        pytest.skip("no compiled library: the matrix text is Python's")
    return lib


def _formatter_values():
    # 10^6 random finite bit patterns, which span every binary exponent;
    # every 2^e and 10^k with both neighbours; the zeros, the smallest and
    # largest subnormals and DBL_MAX; the integers around 2^53; and both
    # neighbours of repr's layout switches at 1e16 and 1e-4.
    r = np.random.default_rng(19)
    random = r.integers(0, 2**64, size=10**6, dtype=np.uint64).view(np.float64)
    p2 = np.ldexp(1.0, np.arange(-1074, 1024))
    p10 = np.array([float(f"1e{k}") for k in range(-324, 309)])
    fixed = np.concatenate([
        [0.0, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, 1e16, 1e-4],
        np.arange(2**53 - 64, 2**53 + 64, dtype=np.int64).astype(np.float64),
    ])
    grid = np.concatenate([p2, p10, fixed])
    with np.errstate(over="ignore"):
        grid = np.concatenate([grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf)])
    values = np.concatenate([random, grid, -grid])
    values = values[np.isfinite(values)]
    return np.concatenate([values, np.zeros(-len(values) % 10_000)]).reshape(-1, 100, 100)


def test_formatter_writes_repr(library):
    for block in _formatter_values():
        rows = block.tolist()
        assert matio._rows_text(block, matio._CSV) == "".join(
            ",".join(map(repr, row)) + "\n" for row in rows
        )
        assert matio._rows_text(block, matio._NDJSON) == json.dumps(rows)[1:-1]


def _compiled_floats(library, cells, m=10):
    """Each cell as the C parser reads it, None where it leaves it to the
    Python parser; m * m cells per call, then one per call in a block that
    has such a cell."""
    _, _, pow10 = matio._tables()

    def parse(chunk, m):
        data = "\n".join(",".join(chunk[i:i + m]) for i in range(0, m * m, m)).encode("ascii")
        mat = np.empty((m, m))
        used = library.parse_rows(data, 0, len(data), m, matio._CSV, mat.ctypes.data,
                                  pow10.ctypes.data, matio._POW10_MIN, matio._POW10_MAX)
        return mat.ravel().tolist() if used == len(data) else None

    cells = list(cells) + ["0"] * (-len(cells) % (m * m))
    out = []
    for at in range(0, len(cells), m * m):
        chunk = cells[at:at + m * m]
        got = parse(chunk, m)
        out += got if got is not None else [(parse([c], 1) or [None])[0] for c in chunk]
    return out


def _decided_as_float(library, cells):
    """How many cells the C parser reads, after checking that it reads each
    bit for bit as float() does."""
    got = _compiled_floats(library, cells)
    done = [(c, v) for c, v in zip(cells, got) if v is not None]
    assert [np.float64(v).tobytes() for _, v in done] == [
        np.float64(float(c)).tobytes() for c, _ in done
    ]
    return len(done)


def test_parser_reads_reprs_as_float(library):
    # It leaves to Python the values that equal w * 10^q exactly with
    # w > 2^53 and 5^|q| above 128 bits or q < 0, such as 4503599627370495.5.
    blocks = _formatter_values()
    done = sum(_decided_as_float(library, list(map(repr, b.ravel().tolist()))) for b in blocks)
    assert done >= 0.999 * blocks.size


def test_parser_reads_random_decimals_as_float(library):
    # 1-19 significant digits with decimal exponents -345..310; those past
    # the table are left to Python.
    r = np.random.default_rng(20)
    cells = []
    for _ in range(10**5):
        nd = int(r.integers(1, 20))
        digits = str(int(r.integers(10 ** (nd - 1), 10**nd, dtype=np.uint64)))
        sign = "-" if r.random() < 0.5 else ""
        point = f"{digits[0]}.{digits[1:]}" if r.random() < 0.5 else digits
        cells.append(f"{sign}{point}e{int(r.integers(-345, 311))}")
    assert _decided_as_float(library, cells) >= 0.9 * len(cells)


def test_parser_reads_midpoints_as_float(library):
    # The exact midpoint between adjacent doubles, rounded down and up to
    # 17, 18 and 19 significant digits.
    r = np.random.default_rng(21)
    lows = r.integers(1, 0x7FEFFFFFFFFFFFFF, size=10**4, dtype=np.uint64).view(np.float64)
    exact = decimal.Context(prec=800)
    cells = []
    for low in lows.tolist():
        mid = exact.divide(exact.add(decimal.Decimal(low), decimal.Decimal(np.nextafter(low, np.inf))), 2)
        for nd in (17, 18, 19):
            for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
                cells.append(str(decimal.Context(prec=nd, rounding=rounding).plus(mid)))
    assert _decided_as_float(library, cells) >= 0.99 * len(cells)


@pytest.mark.parametrize(
    "cell",
    [" 1.0", "1.0 ", "1_0", "inf", "-inf", "nan", "١", "1.23456789012345678901",
     "12345678901234567890", "1e400", "1e-400", "0e100001", "4503599627370495.5", "1e", "e5",
     ".", "+", "--1", "1.0.0", "0x10", ""],
)
def test_csv_outside_the_grammar_goes_to_the_python_parser(tmp_path, library, cell):
    text = f"# m=2 kind=square\n1.0,{cell}\n2.0,3.0\n"
    assert matio._parse_csv_compiled(text, library.parse_rows) is None
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="utf-8")
    try:
        float(cell)
        python_reads = contextlib.nullcontext()
    except ValueError:
        python_reads = pytest.raises(InvalidParameter)
    with python_reads:
        _read_both(path)


@pytest.mark.parametrize("cell", ["1.", ".5", "+1e-3", "-0", "007", "-.0e+00", "9007199254740993",
                                  "1E5", "2.5e-324", "1.7976931348623157e308", "0.1"])
def test_csv_in_the_grammar_is_read_by_the_compiled_parser(library, cell):
    parsed = matio._parse_csv_compiled(f"# a\n\n# m=1 kind=cholU\n{cell}", library.parse_rows)
    assert parsed is not None
    assert _outcome(parsed) == _outcome(matio._parse_csv_python(f"# a\n\n# m=1 kind=cholU\n{cell}"))


def test_ndjson_reads_formatter_values_bit_exact(tmp_path, library):
    # In 10 x 10 records, so that most hold no cell the C parser leaves to
    # json.loads, which then reads the whole record.
    blocks = _formatter_values().reshape(-1, 10, 10)
    path = tmp_path / "values.ndjson"
    matio.write_matrices(str(path), blocks, header=["h"], fmt="ndjson")
    lines = path.read_text(encoding="ascii").splitlines()[1:]
    compiled = [matio._record_compiled(line, library.parse_rows) for line in lines]
    assert sum(block is not None for block in compiled) >= 0.9 * len(blocks)
    _, back = _read_both(path)
    assert np.stack([mat for _, mat in back]).tobytes() == blocks.tobytes()


def test_ndjson_writer_records_never_reach_json_loads(tmp_path, library, monkeypatch):
    mats = _plan_outputs(50) + _ugly_matrices()
    kinds = [("square", "cholU")[i % 2] for i in range(len(mats))]
    path = tmp_path / "draws.ndjson"
    matio.write_matrices(str(path), mats, kinds=kinds, header=["h"], fmt="ndjson")
    loads = json.loads

    def header_only(line):
        assert not line.startswith('{"m"'), "a matrix record reached json.loads"
        return loads(line)

    monkeypatch.setattr(matio.json, "loads", header_only)
    header, blocks = matio.read_matrices(str(path))
    assert header == ["h"]
    assert [(kind, mat.tobytes()) for kind, mat in blocks] == [
        (kind, mat.tobytes()) for kind, mat in zip(kinds, mats)
    ]


def _record(rows_text):
    return '{"m": 2, "kind": "square", "rows": [' + rows_text + "]}"


@pytest.mark.parametrize(
    "cell",
    ["-0", "0", "7", "12345678901234567890123", "+1.0", ".5", "1.", "01.5", "1.e5", "1e400",
     "1e-400", "NaN", "Infinity", "-Infinity", "1.2345678901234567890", "4503599627370495.5"],
)
def test_ndjson_outside_the_grammar_goes_to_json_loads(tmp_path, library, cell):
    line = _record(f"[1.0, {cell}], [2.0, 3.0]")
    assert matio._record_compiled(line, library.parse_rows) is None
    path = tmp_path / "m.ndjson"
    path.write_text(line + "\n", encoding="utf-8")
    try:
        json.loads(cell)
        python_reads = contextlib.nullcontext()
    except ValueError:
        python_reads = pytest.raises(InvalidParameter)
    with python_reads:
        _read_both(path)


@pytest.mark.parametrize(
    "text",
    [
        _record("[1.0,2.0], [3.0, 4.0]"),
        _record("[1.0, 2.0],[3.0, 4.0]"),
        '{"m": 1, "kind": "square", "rows": [[ 1.0 ]]}',
        _record("[1.0,\t2.0], [3.0, 4.0]"),
        '{"kind": "square", "m": 2, "rows": [[1.0, 2.0], [3.0, 4.0]]}',
        '{"m": 2, "kind": "square", "rows": [[1.0, 2.0], [3.0, 4.0]], "x": 1}',
        '{"m": 2, "kind": "square", "rows": [[1.0, 2.0], [3.0, 4.0]], "m": 3}',
        '{"m": 2, "m": 1, "kind": "square", "rows": [[1.0]]}',
        _record("[1.0, 2.0], [3.0, 4.0]") + " ",
        _record("[1.0, 2.0], [3.0, 4.0]") + "\r\n" + _record("[1.5, 2.0], [3.0, 4.0]"),
        '{"m": 3, "kind": "square", "rows": [[1.0, 2.0], [3.0, 4.0]]}',
        '{"m": 1, "kind": "square", "rows": [[1.0, 2.0], [3.0, 4.0]]}',
        _record("[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]"),
        _record("[1.0, 2.0, 3.0], [4.0, 5.0]"),
        _record("[1.0, 2.0], [3.0, 4.0]")[:-1] + "\u00e9}",
        _record("[1.0, 2.0], [3.0, 4.0]")[:-2] + "\u00e9]}",
        '{"m": 02, "kind": "square", "rows": [[1.0, 2.0], [3.0, 4.0]]}',
        '{"m": 1, "kind": "Square", "rows": [[1.0]]}',
    ],
    ids=[
        "no-space", "no-space-between-rows", "spaced-cell", "tab", "reordered-keys", "extra-key",
        "duplicate-key", "duplicate-m", "trailing-space", "crlf", "m-above-rows", "m-below-rows",
        "extra-row", "ragged", "non-ascii-after", "non-ascii-before-end", "m-leading-zero",
        "kind-case",
    ],
)
def test_ndjson_layouts_outside_the_writer_go_to_json_loads(tmp_path, library, text):
    # After the text-mode read "\r\n" ends lines as "\n" does, so each line
    # of that file is the writer's; every other line goes to json.loads.
    lines = text.splitlines()
    if "\r\n" not in text:
        assert [matio._record_compiled(line, library.parse_rows) for line in lines] == [None]
    path = tmp_path / "m.ndjson"
    path.write_bytes(text.encode("utf-8") + b"\n")
    with contextlib.suppress(InvalidParameter):
        _read_both(path)


@pytest.mark.parametrize("line", ["# a\x0cb", "# a\x1cb", "\x0b", "# m=3 kind=square"])
def test_csv_structure_the_fast_path_leaves_to_python(library, line):
    # Lines str.splitlines breaks, and a block larger than the text.
    assert matio._parse_csv_compiled(f"{line}\n# m=1 kind=square\n1.0\n", library.parse_rows) is None


def test_formatter_and_parser_constants():
    # The scalar multipliers in _boxmuller.c against exact integer
    # arithmetic over the ranges its comment gives.
    source = (rng._C_SOURCE).read_text()
    c = {k: int(v) for k, v in re.findall(r"#define (\w+) (\d+)", source)}
    for e in range(1651):
        assert (e * c["LOG10_2_MUL"]) >> c["LOG10_2_SHIFT"] == len(str(2**e)) - 1
    for e in range(2621):
        assert (e * c["LOG10_5_MUL"]) >> c["LOG10_5_SHIFT"] == len(str(5**e)) - 1
    for e in range(3529):
        assert ((e * c["LOG2_5_MUL"]) >> c["LOG2_5_SHIFT"]) + 1 == (5**e).bit_length()
    assert c["POW5_BITS"] == matio._POW5_BITS
    assert c["DOUBLE_TEXT_MAX"] + 2 == matio._CELL_BYTES


def test_parser_table_brackets_every_power_of_ten():
    _, _, pow10 = matio._tables()
    words = pow10.reshape(-1, 4).tolist()
    assert len(words) == matio._POW10_MAX - matio._POW10_MIN + 1
    for q, (hi, lo, s, exact) in zip(range(matio._POW10_MIN, matio._POW10_MAX + 1), words):
        t, s = hi << 64 | lo, s - 2**64 if s >= 2**63 else s
        assert 2**127 <= t < 2**128
        value = Fraction(10) ** q / Fraction(2) ** s
        assert t <= value < t + 1
        assert exact == (value == t)
