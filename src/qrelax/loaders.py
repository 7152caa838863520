"""Input parsers: Matrix Market, CSV, and inline text systems."""

from __future__ import annotations

import os

import numpy as np

from .errors import DimensionError, ParseError, UsageError
from .system import LinearSystem

FORMATS = ("matrixmarket", "csv", "inline")
MM_HEADER = "%%MatrixMarket"


def load_system(source, fmt: str, rhs=None) -> LinearSystem:
    """Read a raw (unnormalized) square system from ``source``.

    ``source`` is a file path for ``csv`` and ``matrixmarket``, the literal
    text for ``inline``. CSV and inline carry b themselves, so ``rhs`` is
    refused for them. Matrix Market files hold a single matrix, so ``rhs``
    must name a second file: a Matrix Market matrix with one column (any
    supported layout), or plain text with one value per line.
    """
    if rhs is not None and fmt in ("csv", "inline"):
        raise UsageError(f"{fmt} input carries its own rhs; --rhs is for matrixmarket")
    if fmt == "csv":
        return _parse_csv(_read(source))
    if fmt == "inline":
        return _parse_inline(str(source))
    if fmt == "matrixmarket":
        matrix = _parse_file(source, _parse_matrix_market)
        if matrix.shape[0] != matrix.shape[1]:
            raise DimensionError(f"matrix is {matrix.shape[0]}x{matrix.shape[1]}, must be square")
        if rhs is None:
            raise ParseError("matrixmarket input needs a separate rhs file (--rhs)")
        return LinearSystem(matrix, _parse_file(rhs, _parse_rhs))
    raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _parse_file(path, parse):
    """``parse`` of the file's text; a parse error is prefixed with the path,
    since a Matrix Market system spans two files."""
    text = _read(path)
    try:
        return parse(text)
    except (ParseError, DimensionError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _read(path) -> str:
    if not os.path.exists(path):
        raise ParseError(f"no such file: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from None


def _lines(text: str, comment: str):
    """Yield ``(line number, stripped text)`` of each non-blank, non-comment line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith(comment):
            yield lineno, stripped


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


def _square_system(rows, b, b_line=None) -> LinearSystem:
    """Build a system from ``(values, line)`` rows and b after checking their
    shape; a row without a line (inline text) is named by its position."""
    width = len(rows[0][0])
    for i, (values, line) in enumerate(rows, start=1):
        if len(values) != width:
            where = "" if line is not None else f"matrix row {i}: "
            raise ParseError(f"{where}expected {width} entries, got {len(values)}", line)
    if len(rows) != width:
        raise DimensionError(f"matrix is {len(rows)}x{width}, must be square")
    if len(b) != width:
        raise ParseError(f"rhs has {len(b)} entries, expected {width}", b_line)
    return LinearSystem(np.array([values for values, _ in rows]), np.array(b))


def _grid(body) -> np.ndarray | None:
    """The ``(line number, text)`` lines of ``body``, comma-separated reals,
    as a 2-D array read by numpy's C reader in one call; None where it
    refuses a token.

    numpy reads each token it accepts to the double ``float()`` reads from
    the stripped token, but refuses some that ``float()`` reads (``1_0``,
    non-ASCII digits). So where this gives None or the wrong shape,
    ``_parse_csv`` walks the tokens with ``_float``, which reads those and
    names each fault.
    """
    if not body:
        return None
    lines = [line for _, line in body]
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None


def _parse_csv(text: str) -> LinearSystem:
    """n rows of n comma-separated reals, then one final row for b.

    Values are read as Python's ``float()`` reads them; ``#`` comments
    must be whole lines and blank lines are skipped. The per-token walk runs
    only when ``_grid`` refuses the text or its grid is not ``(n + 1) x n``.
    """
    body = list(_lines(text, "#"))
    grid = _grid(body)
    if grid is not None and grid.shape[0] == grid.shape[1] + 1:
        return LinearSystem(grid[:-1], grid[-1])
    rows = [
        ([_float(tok.strip(), lineno) for tok in line.split(",")], lineno)
        for lineno, line in body
    ]
    if len(rows) < 2:
        raise ParseError("need at least one matrix row plus a rhs row")
    b, b_line = rows.pop()
    return _square_system(rows, b, b_line)


def _parse_inline(text: str) -> LinearSystem:
    """Rows split by ';', entries by ',', rhs after '|'.

    Example: ``"1,0; 0,1 | 1,0"`` is the 2x2 identity with b=(1,0).
    """
    if "|" not in text:
        raise ParseError("inline system needs '|' separating the matrix from b")
    # Inline text has no lines, so a bad token is named by its part.
    left, _, right = text.partition("|")
    rows = []
    for i, chunk in enumerate((r for r in left.split(";") if r.strip()), start=1):
        cells = enumerate(chunk.split(","), start=1)
        rows.append(
            ([_float(c.strip(), None, f"matrix row {i}, entry {j}: ") for j, c in cells], None)
        )
    cells = enumerate((c for c in right.split(",") if c.strip()), start=1)
    b = [_float(c.strip(), None, f"rhs entry {j}: ") for j, c in cells]
    if not rows:
        raise ParseError("inline system has an empty matrix part")
    return _square_system(rows, b)


def _parse_matrix_market(text: str) -> np.ndarray:
    """A real ``coordinate`` or ``array`` matrix, as a rows x cols array."""
    first = next(iter(text.splitlines()), "")
    if not first.startswith(MM_HEADER):
        raise ParseError(f"missing {MM_HEADER} header", 1)
    header = first.split()
    if len(header) < 5 or header[1].lower() != "matrix":
        raise ParseError(f"unsupported header: {first!r}", 1)
    layout, field, symmetry = (tok.lower() for tok in header[2:5])
    if layout not in ("coordinate", "array"):
        raise ParseError(f"unsupported layout {layout!r} (coordinate/array only)", 1)
    if field != "real":
        raise ParseError(f"unsupported field {field!r} (real only)", 1)
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry {symmetry!r}", 1)

    # The header starts with '%', so it is skipped with the comments.
    body = list(_lines(text, "%"))
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
    if symmetry == "symmetric" and rows != cols:
        raise DimensionError(f"symmetric matrix is {rows}x{cols}, must be square")

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
            mirrored = symmetry == "symmetric" and i != j
            for p, q in [(i, j), (j, i)] if mirrored else [(i, j)]:
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
            j, i = np.triu_indices(rows)  # the lower triangle, column by column
            a[i, j] = a[j, i] = values
    return a


def _parse_rhs(text: str) -> np.ndarray:
    """A Matrix Market matrix with one column, or plain one-value-per-line text
    (``#`` comments). A Matrix Market file starts with its header line."""
    if text.startswith(MM_HEADER):
        b = _parse_matrix_market(text)
        if b.shape[1] != 1:
            raise ParseError(f"rhs must be a column vector, got {b.shape[0]}x{b.shape[1]}")
        return b[:, 0]
    values = [_float(line, lineno) for lineno, line in _lines(text, "#")]
    if not values:
        raise ParseError("rhs file is empty")
    return np.array(values)
