"""Bit-exact matrix file round-trips, the writers' bytes, and malformed-input rejection."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from triwish import matio
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
    matio.write_matrices(str(path), mats, kinds="square", header=header, fmt=fmt)
    assert path.read_bytes() == _oracle_bytes(mats, ["square"] * len(mats), header, fmt)


@pytest.mark.parametrize("fmt", ["csv", "ndjson"])
@pytest.mark.parametrize("header", [(), ("h",)])
def test_writer_bytes_on_edge_matrices(tmp_path, fmt, header):
    mats = _edge_matrices()
    kinds = ["square", "cholU"] * (len(mats) // 2)
    path = tmp_path / "out.txt"
    matio.write_matrices(str(path), mats, kinds=kinds, header=header, fmt=fmt)
    assert path.read_bytes() == _oracle_bytes(mats, kinds, header, fmt)
    for mat in mats:
        matio.write_matrices(str(path), [mat], kinds="cholU", fmt=fmt)
        assert path.read_bytes() == _oracle_bytes([mat], ["cholU"], (), fmt)


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
        matio.read_matrices(path)


def test_wrong_row_width_rejected(tmp_path):
    (tmp_path / "bad.csv").write_text("# m=2 kind=square\n1.0,2.0\n1.0,2.0,3.0\n")
    with pytest.raises(InvalidParameter):
        matio.read_matrices(str(tmp_path / "bad.csv"))


def test_non_numeric_rejected(tmp_path):
    (tmp_path / "bad.csv").write_text("# m=1 kind=square\nspam\n")
    with pytest.raises(InvalidParameter):
        matio.read_matrices(str(tmp_path / "bad.csv"))


def test_stray_content_rejected(tmp_path):
    (tmp_path / "bad.csv").write_text("1.0,2.0\n")
    with pytest.raises(InvalidParameter):
        matio.read_matrices(str(tmp_path / "bad.csv"))


def test_malformed_ndjson_rejected(tmp_path):
    (tmp_path / "bad.ndjson").write_text('{"m": 2, "kind": "square"\n')
    with pytest.raises(InvalidParameter):
        matio.read_matrices(str(tmp_path / "bad.ndjson"))
    (tmp_path / "bad2.ndjson").write_text('{"m": 2, "kind": "square", "rows": [[1.0]]}\n')
    with pytest.raises(InvalidParameter):
        matio.read_matrices(str(tmp_path / "bad2.ndjson"))
    (tmp_path / "bad3.ndjson").write_text('{"m": 1, "kind": "wat", "rows": [[1.0]]}\n')
    with pytest.raises(InvalidParameter):
        matio.read_matrices(str(tmp_path / "bad3.ndjson"))


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
}
# NDJSON keeps any header string on one line; CSV writes each as "# <line>".
_UNREADABLE_CSV_HEADERS = {
    "header-newline": ["a\nb"],
    "header-line-separator": ["x\u2028y"],
    "header-block-line": ["ok", "m=1 kind=square"],
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
    ],
    ids=[
        "not-utf8", "number-record", "header-number", "header-string",
        "m-overflow", "m-too-many-digits", "deep-nesting", "empty-block",
        "m-fraction", "string-entry", "bool-entry", "m-bool", "m-float",
        "bool-among-numbers", "flat-rows",
    ],
)
def test_malformed_input_raises_invalid_parameter(tmp_path, data):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(InvalidParameter):
        matio.read_matrices(str(path))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    prefix=st.sampled_from([b"", b"{", b"# m=2 kind=square\n", b'{"m": 1, "kind": "square", "rows": ']),
    body=st.binary(max_size=200),
)
def test_arbitrary_bytes_read_or_rejected(tmp_path, prefix, body):
    path = tmp_path / "fuzz.txt"
    path.write_bytes(prefix + body)
    try:
        _, blocks = matio.read_matrices(str(path))
    except TriwishError:
        return
    for kind, mat in blocks:
        assert kind in (matio.KIND_SQUARE, matio.KIND_CHOLU)
        assert mat.dtype == np.float64
        assert mat.ndim == 2 and mat.shape[0] == mat.shape[1] >= 1
