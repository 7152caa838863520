"""Input parsers: Matrix Market, CSV, and inline text systems."""

from __future__ import annotations

import os

import numpy as np

from .errors import DimensionError, ParseError
from .system import LinearSystem

FORMATS = ("matrixmarket", "csv", "inline")


def load_system(source, fmt: str, rhs=None) -> LinearSystem:
    """Read a raw (unnormalized) square system from ``source``.

    ``source`` is a file path for ``csv`` and ``matrixmarket``, the literal
    text for ``inline``. CSV and inline carry b themselves; Matrix Market
    files hold a single matrix, so ``rhs`` must name a second file (Matrix
    Market array vector, or one value per line).
    """
    if fmt == "csv":
        return _parse_csv(_read(source))
    if fmt == "inline":
        return _parse_inline(str(source))
    if fmt == "matrixmarket":
        matrix = _parse_matrix_market(_read(source))
        if rhs is None:
            raise ParseError("matrixmarket input needs a separate rhs file (--rhs)")
        b = _parse_rhs(_read(rhs))
        return LinearSystem(matrix, b)
    raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _read(path) -> str:
    if not os.path.exists(path):
        raise ParseError(f"no such file: {path}")
    with open(path, "r") as fh:
        return fh.read()


def _float(token: str, line: int | None, part: str = "") -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{part}not a number: {token!r}", line) from None


def _int(token: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"not an integer: {token!r}", line) from None


def _parse_csv(text: str) -> LinearSystem:
    """n rows of n comma-separated reals, then one final row for b."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append(([_float(tok.strip(), lineno) for tok in stripped.split(",")], lineno))
    if len(rows) < 2:
        raise ParseError("need at least one matrix row plus a rhs row")
    matrix_rows = [r for r, _ in rows[:-1]]
    b, b_line = rows[-1]
    width = len(matrix_rows[0])
    for r, lineno in rows[:-1]:
        if len(r) != width:
            raise ParseError(f"expected {width} entries, got {len(r)}", lineno)
    if len(matrix_rows) != width:
        raise DimensionError(
            f"matrix is {len(matrix_rows)}x{width}, must be square"
        )
    if len(b) != width:
        raise ParseError(f"rhs has {len(b)} entries, expected {width}", b_line)
    return LinearSystem(np.array(matrix_rows), np.array(b))


def _parse_inline(text: str) -> LinearSystem:
    """Rows split by ';', entries by ',', rhs after '|'.

    Example: ``"1,0; 0,1 | 1,0"`` is the 2x2 identity with b=(1,0).
    """
    if "|" not in text:
        raise ParseError("inline system needs '|' separating the matrix from b")
    # Inline text has no lines, so a bad token is named by its part.
    left, _, right = text.partition("|")
    matrix_rows = []
    for i, chunk in enumerate((r for r in left.split(";") if r.strip()), start=1):
        cells = enumerate(chunk.split(","), start=1)
        matrix_rows.append(
            [_float(c.strip(), None, f"matrix row {i}, entry {j}: ") for j, c in cells]
        )
    cells = enumerate((c for c in right.split(",") if c.strip()), start=1)
    b = [_float(c.strip(), None, f"rhs entry {j}: ") for j, c in cells]
    if not matrix_rows:
        raise ParseError("inline system has an empty matrix part")
    width = len(matrix_rows[0])
    for i, r in enumerate(matrix_rows):
        if len(r) != width:
            raise ParseError(f"row {i + 1} has {len(r)} entries, expected {width}")
    if len(matrix_rows) != width:
        raise DimensionError(f"matrix is {len(matrix_rows)}x{width}, must be square")
    if len(b) != width:
        raise ParseError(f"rhs has {len(b)} entries, expected {width}")
    return LinearSystem(np.array(matrix_rows), np.array(b))


def _parse_matrix_market(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("missing %%MatrixMarket header", 1)
    header = lines[0].split()
    if len(header) < 5 or header[1].lower() != "matrix":
        raise ParseError(f"unsupported header: {lines[0]!r}", 1)
    layout, field, symmetry = (tok.lower() for tok in header[2:5])
    if layout not in ("coordinate", "array"):
        raise ParseError(f"unsupported layout {layout!r} (coordinate/array only)", 1)
    if field != "real":
        raise ParseError(f"unsupported field {field!r} (real only)", 1)
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry {symmetry!r}", 1)

    body = [
        (lineno, s)
        for lineno, s in ((i, ln.strip()) for i, ln in enumerate(lines[1:], start=2))
        if s and not s.startswith("%")
    ]
    if not body:
        raise ParseError("missing size line")
    size_line, size_text = body[0]
    size = size_text.split()

    if len(size) != (3 if layout == "coordinate" else 2):
        shape = "rows cols nnz" if layout == "coordinate" else "rows cols"
        raise ParseError(f"{layout} size line needs '{shape}'", size_line)
    counts = [_int(tok, size_line) for tok in size]
    if any(c < 0 for c in counts):
        raise ParseError(f"negative count on size line: {size_text!r}", size_line)
    rows, cols = counts[:2]
    if rows != cols:
        raise DimensionError(f"matrix is {rows}x{cols}, must be square")

    if layout == "coordinate":
        nnz = counts[2]
        entries = body[1:]
        if len(entries) != nnz:
            raise ParseError(f"expected {nnz} entries, found {len(entries)}", size_line)
        a = np.zeros((rows, cols))
        seen = {}
        for lineno, entry in entries:
            toks = entry.split()
            if len(toks) != 3:
                raise ParseError(f"expected 'i j value', got {entry!r}", lineno)
            i, j = _int(toks[0], lineno), _int(toks[1], lineno)
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise ParseError(f"index ({i},{j}) out of range", lineno)
            value = _float(toks[2], lineno)
            positions = [(i, j)]
            if symmetry == "symmetric" and i != j:
                positions.append((j, i))
            for p, q in positions:
                if (p, q) in seen:
                    raise ParseError(
                        f"entry ({p},{q}) already given on line {seen[p, q]}", lineno
                    )
                seen[p, q] = lineno
                a[p - 1, q - 1] = value
    else:
        values = [_float(entry, lineno) for lineno, entry in body[1:]]
        expected = rows * cols if symmetry == "general" else rows * (rows + 1) // 2
        if len(values) != expected:
            raise ParseError(f"expected {expected} values, found {len(values)}", size_line)
        if symmetry == "general":
            a = np.array(values).reshape((cols, rows)).T  # column-major storage
        else:
            a = np.zeros((rows, cols))
            it = iter(values)
            for j in range(cols):
                for i in range(j, rows):
                    a[i, j] = a[j, i] = next(it)
    return a


def _parse_rhs(text: str) -> np.ndarray:
    """A Matrix Market array vector, or plain one-value-per-line text."""
    if text.lstrip().startswith("%%MatrixMarket"):
        lines = [
            s for s in (ln.strip() for ln in text.splitlines()[1:])
            if s and not s.startswith("%")
        ]
        if not lines:
            raise ParseError("rhs has no size line")
        size = lines[0].split()
        if len(size) != 2 or not all(tok.isdigit() for tok in size):
            raise ParseError(f"rhs size line needs 'rows cols', got {lines[0]!r}")
        rows, cols = int(size[0]), int(size[1])
        if cols != 1:
            raise ParseError(f"rhs must be a column vector, got {rows}x{cols}")
        values = [_float(tok, i + 2) for i, tok in enumerate(lines[1:])]
        if len(values) != rows:
            raise ParseError(f"rhs size line promises {rows} values, found {len(values)}")
        return np.array(values)
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if s and not s.startswith("#"):
            values.append(_float(s, lineno))
    if not values:
        raise ParseError("rhs file is empty")
    return np.array(values)
