"""Seeded fuzzing of the loaders: mutated valid inputs either load or fail
with a QrelaxError, never with a bare Python exception, and on CSV text
numpy's reader gives the same outcome as the per-token walk alone."""

import numpy as np
import pytest

from qrelax import loaders
from qrelax.errors import QrelaxError
from qrelax.loaders import load_system

JUNK = ("x", "", "1.5.2", "--", "nan", "inf", "1e", "0x1", "2,", "#")
# Tokens that float() reads and numpy's reader refuses (so they load through
# the walk), a padded token both read, and edge values both read.
ODD = ("1_0", "\u0661", "\u20031\u2003", "1e400", "-0", "5e-324")


def _num(v):
    return repr(float(v))


def _matrix_market(rng, a):
    """One of the four supported Matrix Market layouts, as lines."""
    n = a.shape[0]
    layout = ("coordinate", "array")[int(rng.integers(2))]
    symmetric = bool(rng.integers(2))
    if symmetric:
        a = np.tril(a) + np.tril(a, -1).T
    header = f"%%MatrixMarket matrix {layout} real {'symmetric' if symmetric else 'general'}"
    lower = [(i, j) for j in range(n) for i in range(j if symmetric else 0, n)]
    if layout == "array":
        return [header, "% comment", f"{n} {n}", *(_num(a[i, j]) for i, j in lower)]
    keep = [p for p in lower if rng.random() < 0.7] or lower[:1]
    entries = [f"{i + 1} {j + 1} {_num(a[i, j])}" for i, j in keep]
    return [header, f"{n} {n} {len(keep)}", *entries]


def _rhs(rng, b):
    values = [_num(v) for v in b]
    if rng.integers(2):
        return ["%%MatrixMarket matrix array real general", f"{len(b)} 1", *values]
    return values


def _mutate(rng, lines):
    """Drop or duplicate a line, swap in a junk token, or truncate."""
    lines = list(lines)
    op = int(rng.integers(4))
    k = int(rng.integers(len(lines)))
    if op == 0:
        del lines[k]
    elif op == 1:
        lines.insert(k, lines[k])
    elif op == 2:
        tokens = lines[k].replace(",", " , ").split()
        if tokens:
            junk = JUNK + ODD
            tokens[int(rng.integers(len(tokens)))] = junk[int(rng.integers(len(junk)))]
        lines[k] = " ".join(tokens).replace(" , ", ",")
    else:
        text = "\n".join(lines)
        return text[: int(rng.integers(len(text) + 1))].split("\n")
    return lines


def _junk_size_line(rng, lines):
    """Replace one token of a Matrix Market size line with a non-number."""
    lines = list(lines)
    k = next(i for i, ln in enumerate(lines[1:], start=1) if not ln.startswith("%"))
    tokens = lines[k].split()
    tokens[int(rng.integers(len(tokens)))] = JUNK[int(rng.integers(len(JUNK)))] or "x"
    lines[k] = " ".join(tokens)
    return lines


def _load(tmp_path, fmt, matrix_lines, rhs_lines):
    if fmt == "inline":
        return load_system(";".join(matrix_lines), fmt)
    path = tmp_path / "a.txt"
    path.write_text("\n".join(matrix_lines) + "\n")
    if fmt == "csv":
        return load_system(str(path), fmt)
    rhs = tmp_path / "b.txt"
    rhs.write_text("\n".join(rhs_lines) + "\n")
    return load_system(str(path), fmt, rhs=str(rhs))


def _cases(rng):
    n = int(rng.integers(1, 5))
    a = rng.normal(size=(n, n)).round(3)
    b = rng.normal(size=n).round(3)
    rows = [",".join(_num(v) for v in row) for row in a]
    rhs = ",".join(_num(v) for v in b)
    yield "csv", _mutate(rng, rows + [rhs]), None
    inline = rows[:-1] + [f"{rows[-1]} | {rhs}"]
    yield "inline", _mutate(rng, inline), None
    matrix, vector = _matrix_market(rng, a), _rhs(rng, b)
    yield "matrixmarket", _junk_size_line(rng, matrix), vector
    if rng.integers(2):
        yield "matrixmarket", _mutate(rng, matrix), vector
    else:
        yield "matrixmarket", matrix, _mutate(rng, vector)


@pytest.mark.parametrize("seed", range(4))
def test_mutated_inputs_fail_only_with_qrelax_errors(tmp_path, seed):
    rng = np.random.default_rng(9000 + seed)
    for trial in range(60):
        for fmt, matrix_lines, rhs_lines in _cases(rng):
            try:
                _load(tmp_path, fmt, matrix_lines, rhs_lines)
            except QrelaxError:
                pass
            except Exception as exc:
                pytest.fail(
                    f"{fmt} input (seed {seed}, trial {trial}) raised "
                    f"{type(exc).__name__}: {exc}\nmatrix: {matrix_lines!r}\nrhs: {rhs_lines!r}"
                )


def _outcome(tmp_path, lines):
    """The CSV system's arrays as bytes, or the error's type and message."""
    try:
        system = _load(tmp_path, "csv", lines, None)
    except QrelaxError as exc:
        return type(exc), str(exc)
    return system.matrix.shape, system.matrix.tobytes(), system.rhs.tobytes()


def _walk_outcome(tmp_path, monkeypatch, lines):
    """The outcome when numpy's reader is skipped and only the walk runs."""
    with monkeypatch.context() as patch:
        patch.setattr(loaders, "_grid", lambda body: None)
        return _outcome(tmp_path, lines)


@pytest.mark.parametrize("seed", range(4))
def test_numpy_reader_gives_the_walks_outcome(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng(9100 + seed)
    loaded = 0
    for trial in range(200):
        for fmt, matrix_lines, _ in _cases(rng):
            if fmt != "csv":  # only CSV text goes through numpy's reader
                continue
            fast = _outcome(tmp_path, matrix_lines)
            assert fast == _walk_outcome(tmp_path, monkeypatch, matrix_lines), (
                f"csv input (seed {seed}, trial {trial}): {matrix_lines!r}"
            )
            loaded += isinstance(fast[1], bytes)
    assert loaded >= 10  # the comparison covers loaded arrays, not just errors


# Entries the walk refuses that a numpy call with other settings, or a
# result of another shape, would let through.
LOOSE = ("0.5,2", "1 # c")


@pytest.mark.parametrize("token", ODD + LOOSE)
def test_odd_tokens_give_the_walks_outcome(tmp_path, monkeypatch, token):
    """Each odd token as one entry of a CSV grid."""
    lines = ["1.0,0.5", f"0.25,{token}", "3.0,-1.5"]
    fast = _outcome(tmp_path, lines)
    assert fast == _walk_outcome(tmp_path, monkeypatch, lines)
    # inf is refused by LinearSystem on both paths
    assert isinstance(fast[1], bytes) == (token in ODD and token != "1e400"), fast
