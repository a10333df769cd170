"""Bit-exact matrix file round-trips and malformed-input rejection."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from triwish import matio
from triwish.errors import InvalidParameter, TriwishError


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
