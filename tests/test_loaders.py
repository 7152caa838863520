import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrelax import loaders
from qrelax.errors import DimensionError, ParseError, UsageError
from qrelax.loaders import load_system

R2 = math.sqrt(2.0)


def test_csv_round_example(tmp_path):
    path = tmp_path / "sys.csv"
    path.write_text(
        f"{1 / R2},{1 / R2}\n{1 / R2},{-1 / R2}\n{2 * R2},{R2}\n"
    )
    sys_ = load_system(str(path), "csv")
    assert sys_.n == 2
    assert sys_.normalization == "raw"
    assert_allclose(sys_.matrix, [[1 / R2, 1 / R2], [1 / R2, -1 / R2]])
    assert_allclose(sys_.rhs, [2 * R2, R2])


def test_csv_identity(tmp_path):
    path = tmp_path / "id.csv"
    path.write_text("1,0\n0,1\n1,0\n")
    sys_ = load_system(str(path), "csv")
    assert_allclose(sys_.matrix, np.eye(2))
    assert_allclose(sys_.rhs, [1.0, 0.0])


def test_csv_non_square_is_dimension_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0\n0,1\n2,2\n1,0\n")  # 3 matrix rows of width 2
    with pytest.raises(DimensionError):
        load_system(str(path), "csv")


def test_csv_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0\n0,oops\n1,0\n")
    with pytest.raises(ParseError) as excinfo:
        load_system(str(path), "csv")
    assert excinfo.value.line == 2


def test_csv_ragged_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0\n0,1,3\n1,0\n")
    with pytest.raises(ParseError):
        load_system(str(path), "csv")


def test_missing_file():
    with pytest.raises(ParseError):
        load_system("/nonexistent/file.csv", "csv")


def test_a_directory_is_a_parse_error_naming_it(tmp_path):
    with pytest.raises(ParseError, match=re.escape(f"cannot read {tmp_path}: Is a directory")):
        load_system(str(tmp_path), "csv")


def test_a_file_that_is_not_utf8_is_a_parse_error_naming_it(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"1,0\n0,1\n\xff,0\n")
    with pytest.raises(ParseError, match=re.escape(f"cannot read {path}: not UTF-8 text")):
        load_system(str(path), "csv")


def test_unknown_format():
    with pytest.raises(ParseError):
        load_system("whatever", "yaml")


def test_inline_golden():
    sys_ = load_system("1,0; 0,1 | 1, 0", "inline")
    assert_allclose(sys_.matrix, np.eye(2))
    assert_allclose(sys_.rhs, [1.0, 0.0])


def test_inline_errors():
    with pytest.raises(ParseError):
        load_system("1,0;0,1", "inline")  # no rhs separator
    with pytest.raises(DimensionError):
        load_system("1,0;0,1;2,2|1,0", "inline")
    with pytest.raises(ParseError):
        load_system("1,x;0,1|1,0", "inline")


@pytest.mark.parametrize("text, where", [
    ("1,0;0,1|1,x", "rhs entry 2"),
    ("1,0;x,1|1,0", "matrix row 2, entry 1"),
    ("1,x;0,1|1,0", "matrix row 1, entry 2"),
])
def test_inline_errors_name_the_part(text, where):
    with pytest.raises(ParseError) as excinfo:
        load_system(text, "inline")
    assert str(excinfo.value) == f"{where}: not a number: 'x'"
    assert excinfo.value.line is None


def test_matrix_market_coordinate(tmp_path):
    mtx = tmp_path / "a.mtx"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% comment line\n"
        "2 2 3\n"
        "1 1 1.5\n"
        "2 2 -2.0\n"
        "1 2 0.25\n"
    )
    rhs = tmp_path / "b.txt"
    rhs.write_text("1.0\n2.0\n")
    sys_ = load_system(str(mtx), "matrixmarket", rhs=str(rhs))
    assert_allclose(sys_.matrix, [[1.5, 0.25], [0.0, -2.0]])
    assert_allclose(sys_.rhs, [1.0, 2.0])


def test_matrix_market_symmetric_mirrors(tmp_path):
    mtx = tmp_path / "a.mtx"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 2\n"
        "1 1 3.0\n"
        "2 1 0.5\n"
    )
    rhs = tmp_path / "b.txt"
    rhs.write_text("0\n0\n")
    sys_ = load_system(str(mtx), "matrixmarket", rhs=str(rhs))
    assert_allclose(sys_.matrix, [[3.0, 0.5], [0.5, 0.0]])


def test_matrix_market_array_is_column_major(tmp_path):
    mtx = tmp_path / "a.mtx"
    mtx.write_text(
        "%%MatrixMarket matrix array real general\n"
        "2 2\n"
        "1\n2\n3\n4\n"
    )
    rhs = tmp_path / "b.mtx"
    rhs.write_text("%%MatrixMarket matrix array real general\n2 1\n7\n8\n")
    sys_ = load_system(str(mtx), "matrixmarket", rhs=str(rhs))
    assert_allclose(sys_.matrix, [[1.0, 3.0], [2.0, 4.0]])
    assert_allclose(sys_.rhs, [7.0, 8.0])


def test_matrix_market_requires_rhs(tmp_path):
    mtx = tmp_path / "a.mtx"
    mtx.write_text("%%MatrixMarket matrix array real general\n1 1\n1\n")
    with pytest.raises(ParseError):
        load_system(str(mtx), "matrixmarket")


def test_matrix_market_bad_header(tmp_path):
    mtx = tmp_path / "a.mtx"
    mtx.write_text("not a header\n1 1\n1\n")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1\n")
    with pytest.raises(ParseError):
        load_system(str(mtx), "matrixmarket", rhs=str(rhs))


def test_matrix_market_wrong_entry_count(tmp_path):
    mtx = tmp_path / "a.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1\n1\n")
    with pytest.raises(ParseError):
        load_system(str(mtx), "matrixmarket", rhs=str(rhs))


@pytest.mark.parametrize("rhs_text", [
    "%%MatrixMarket matrix array real general\n",
    "%%MatrixMarket matrix array real general\n2 1\n1.0\n",
], ids=["header-only", "fewer-values-than-size"])
def test_matrix_market_rhs_must_match_its_size_line(tmp_path, rhs_text):
    mtx = tmp_path / "a.mtx"
    mtx.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n")
    rhs = tmp_path / "b.mtx"
    rhs.write_text(rhs_text)
    with pytest.raises(ParseError):
        load_system(str(mtx), "matrixmarket", rhs=str(rhs))


def test_matrix_market_non_square(tmp_path):
    mtx = tmp_path / "a.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n3 2 1\n1 1 1.0\n")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1\n1\n1\n")
    with pytest.raises(DimensionError):
        load_system(str(mtx), "matrixmarket", rhs=str(rhs))


def test_values_read_exactly_as_given(tmp_path):
    # no normalization or rounding on load
    path = tmp_path / "sys.csv"
    path.write_text("0.1234567890123456789,2\n3,4\n5,6\n")
    sys_ = load_system(str(path), "csv")
    assert sys_.matrix[0, 0] == float("0.1234567890123456789")



@pytest.mark.parametrize("matrix_text, line", [
    ("%%MatrixMarket matrix coordinate real general\n2 x 2\n1 1 1.0\n2 2 1.0\n", 2),
    ("%%MatrixMarket matrix array real general\n2 x\n1\n0\n0\n1\n", 2),
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 y 1.0\n", 4),
], ids=["coordinate-size", "array-size", "coordinate-index"])
def test_matrix_market_non_integer_token_names_line(tmp_path, matrix_text, line):
    mtx = tmp_path / "a.mtx"
    mtx.write_text(matrix_text)
    rhs = tmp_path / "b.txt"
    rhs.write_text("1\n0\n")
    with pytest.raises(ParseError) as excinfo:
        load_system(str(mtx), "matrixmarket", rhs=str(rhs))
    assert excinfo.value.line == line


@pytest.mark.parametrize("symmetry, entries", [
    ("general", "1 1 1.0\n2 2 1.0\n1 1 5.0\n"),
    ("symmetric", "1 1 1.0\n2 1 0.5\n1 2 0.5\n"),
], ids=["repeated", "mirrored"])
def test_matrix_market_duplicate_entry_is_rejected(tmp_path, symmetry, entries):
    mtx = tmp_path / "a.mtx"
    mtx.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n2 2 3\n{entries}")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1\n0\n")
    with pytest.raises(ParseError, match="already given on line") as excinfo:
        load_system(str(mtx), "matrixmarket", rhs=str(rhs))
    assert excinfo.value.line == 5


MM_IDENTITY = "%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n"


def _load_mm_rhs(tmp_path, rhs_text, matrix_text=MM_IDENTITY):
    mtx = tmp_path / "a.mtx"
    mtx.write_text(matrix_text)
    rhs = tmp_path / "b.mtx"
    rhs.write_text(rhs_text)
    return load_system(str(mtx), "matrixmarket", rhs=str(rhs))


def test_matrix_market_rhs_error_names_its_file_line(tmp_path):
    rhs_text = (
        "%%MatrixMarket matrix array real general\n"
        "% first comment\n"
        "% second comment\n"
        "3 1\n"
        "1.0\n"
        "x\n"
        "2.0\n"
    )
    three = "%%MatrixMarket matrix array real general\n3 3\n" + "1\n" * 9
    with pytest.raises(ParseError) as excinfo:
        _load_mm_rhs(tmp_path, rhs_text, three)
    assert excinfo.value.line == 6


def test_matrix_market_coordinate_rhs_equals_array_rhs(tmp_path):
    array = _load_mm_rhs(
        tmp_path, "%%MatrixMarket matrix array real general\n2 1\n7.5\n0\n"
    )
    coordinate = _load_mm_rhs(
        tmp_path, "%%MatrixMarket matrix coordinate real general\n% b\n2 1 1\n1 1 7.5\n"
    )
    assert np.array_equal(coordinate.rhs, array.rhs)
    assert np.array_equal(array.rhs, [7.5, 0.0])


@pytest.mark.parametrize("rhs_text, error", [
    ("%%MatrixMarket\n2 1\n1\n0\n", ParseError),
    ("%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n", ParseError),
    ("%%MatrixMarket matrix array real symmetric\n2 1\n1\n0\n", DimensionError),
], ids=["bare-header", "two-columns", "symmetric-not-square"])
def test_matrix_market_rhs_is_a_one_column_matrix(tmp_path, rhs_text, error):
    with pytest.raises(error):
        _load_mm_rhs(tmp_path, rhs_text)


@pytest.mark.parametrize("fmt", ["csv", "inline"])
def test_rhs_file_is_refused_for_formats_that_carry_b(tmp_path, fmt):
    path = tmp_path / "id.csv"
    path.write_text("1,0\n0,1\n1,0\n")
    rhs = tmp_path / "b.txt"
    rhs.write_text("1\n0\n")
    source = str(path) if fmt == "csv" else "1,0; 0,1 | 1,0"
    with pytest.raises(UsageError, match="--rhs is for matrixmarket"):
        load_system(source, fmt, rhs=str(rhs))


@pytest.mark.parametrize("bad", ["a.mtx", "b.mtx"])
def test_matrix_market_parse_error_names_its_file(tmp_path, bad):
    header = "%%MatrixMarket matrix array real general\n"
    comments = "% first comment\n% second comment\n"
    texts = {"a.mtx": header + "2 2\n1\n0\n0\n1\n", "b.mtx": header + "2 1\n1\n0\n"}
    # The bad value 'x' sits on line 6 of either file.
    texts[bad] = {
        "a.mtx": header + comments + "2 2\n1.0\nx\n0\n1\n",
        "b.mtx": header + comments + "2 1\n1.0\nx\n",
    }[bad]
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    with pytest.raises(ParseError) as excinfo:
        load_system(str(tmp_path / "a.mtx"), "matrixmarket", rhs=str(tmp_path / "b.mtx"))
    assert str(excinfo.value) == f"{tmp_path / bad}: line 6: not a number: 'x'"
    assert excinfo.value.line == 6


def test_matrix_market_header_only_rhs_names_its_file(tmp_path):
    rhs = tmp_path / "b.mtx"
    with pytest.raises(ParseError) as excinfo:
        _load_mm_rhs(tmp_path, "%%MatrixMarket matrix array real general\n")
    assert str(excinfo.value) == f"{rhs}: missing size line"


def _refuse(token, line=None, part=""):
    raise AssertionError(f"the per-token walk read {token!r}")


def test_a_clean_csv_loads_without_the_per_token_walk(tmp_path, monkeypatch):
    rng = np.random.default_rng(17)
    a, b = rng.normal(size=(6, 6)), rng.normal(size=6)
    rows = [",".join(repr(v) for v in row) for row in a.tolist()]
    csv = tmp_path / "sys.csv"
    csv.write_text("\n".join(["# header", "", *rows[:3], "  ", "# more", *rows[3:], "",
                              ",".join(repr(v) for v in b.tolist()), ""]))
    monkeypatch.setattr(loaders, "_float", _refuse)
    system = load_system(str(csv), "csv")
    assert system.matrix.tobytes() == a.tobytes()
    assert system.rhs.tobytes() == b.tobytes()


def test_a_token_numpy_refuses_loads_through_the_walk(tmp_path, monkeypatch):
    plain, underscored = tmp_path / "plain.csv", tmp_path / "underscored.csv"
    plain.write_text("1000,0.5\n0.25,2\n3,-1.5\n")
    underscored.write_text("1_000,0.5\n0.25,2\n3,-1.5\n")
    expected = load_system(str(plain), "csv")
    walked = []
    real_float = loaders._float
    monkeypatch.setattr(loaders, "_float", lambda *args: walked.append(args) or real_float(*args))
    system = load_system(str(underscored), "csv")
    assert walked
    assert system.matrix.tobytes() == expected.matrix.tobytes()
    assert system.rhs.tobytes() == expected.rhs.tobytes()
