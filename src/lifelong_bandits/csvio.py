"""The package's CSV files: one column writer and one row reader.

``to_text`` writes every result file and lookup table: a header, then one
line per row of equal-length columns. A cell is the ``str`` of its Python
value, so a float is written as its shortest round-tripping repr, and
``from_text`` parses it back by numpy's text reader, which rounds a decimal
as ``float`` does: a written file reproduces the in-memory arrays bit for
bit, and identical runs produce byte-identical files. A trace repeats its
values (most instantaneous regrets are exactly 0.0), so the writer formats
each distinct value of an int or float array column once, keyed by its
bits so that 0.0 and -0.0 stay apart; the bytes are those of formatting
every cell on its own.

``from_text`` reads the traces and the lookup tables, so both accept the
same cells, and it is the one place that names what a rejected text got
wrong: the file line (counting from 1, blank lines included) of the first
row numpy's reader refuses, and the column of the first cell on it that
its column's dtype cannot hold.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def cells(column, memo: dict | None = None) -> list[str]:
    """The ``str`` of every cell of one column.

    An int or float array of any width up to 8 bytes formats each distinct
    value once, keyed by its bits (its view as the int of the same width),
    so that 0.0 and -0.0 (and NaN payloads) stay apart; the value is
    formatted as a Python scalar, whose ``str`` of a float is its shortest
    round-tripping repr (a numpy scalar's repr is not a plain number). Given
    a run's ``memo``, such a column is formatted once per run: the memo maps
    its dtype and raw bytes to its cells (the dtype keeps int64 0 and float64
    0.0, or int8 0 and int32 0, apart). Any other column is formatted cell
    by cell, so a Python list mixing ints and floats keeps ``1`` and ``1.0``
    apart.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind in "iuf" and column.itemsize <= 8:
        key = (column.dtype.str, column.tobytes())
        if memo is not None and key in memo:
            return memo[key]
        distinct, index = np.unique(column.view(f"i{column.itemsize}"), return_inverse=True)
        text = np.array([str(v) for v in distinct.view(column.dtype).tolist()], dtype=object)
        formatted = text[index].tolist()
        if memo is not None:
            memo[key] = formatted
        return formatted
    return [str(v) for v in (column.tolist() if isinstance(column, np.ndarray) else column)]


def to_text(header: str, columns, memo: dict | None = None) -> str:
    """CSV text: the header, then one line per row of the equal-length
    ``columns``, assembled in one join.

    The bytes are those of formatting each row's cells by ``%s``. A run's
    ``memo`` (see ``cells``) formats each distinct column once per run.
    """
    formatted = [cells(column, memo) for column in columns]
    rows, width = len(formatted[0]), 2 * len(formatted)
    parts = [","] * (rows * width)
    for j, column in enumerate(formatted):
        parts[2 * j :: width] = column
    parts[width - 1 :: width] = ["\n"] * rows
    return header + "\n" + "".join(parts)


def _load(rows, dtype, **options) -> np.ndarray:
    return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1, **options)


def from_text(text: str, columns, empty: str) -> list[np.ndarray]:
    """The cells of a CSV text, one contiguous array per column.

    The first nonblank line is the header: ``columns`` gets its cells and
    returns the (name, dtype) of each column, or raises ``DataError`` on a
    header it does not accept. Every later nonblank line is a row (a blank
    line holds only whitespace); a text without rows raises ``DataError``
    with the message ``empty``. A row is read by numpy's text reader, so a
    ``#`` (no row is a comment), a ``_`` digit separator, a non-ASCII digit
    and a cell its column's dtype cannot hold are refused. A refused text
    raises ``DataError`` naming the first refused line and, where one cell
    is at fault, its column.
    """
    lines = text.splitlines()
    head = next((k for k, line in enumerate(lines) if line.strip()), len(lines))
    names, dtypes = zip(*columns(lines[head].split(",") if head < len(lines) else []))
    dtype = np.dtype([("", t) for t in dtypes])
    rows = [line for line in lines[head + 1 :] if line.strip()]
    if not rows:
        raise DataError(empty)
    try:
        table = _load(rows, dtype)
    except ValueError as exc:
        raise DataError(_refused(lines, head + 1, names, dtype, exc)) from exc
    return [table[field].copy() for field in dtype.names]


def _refused(lines, start: int, names, dtype, exc: ValueError) -> str:
    """Where numpy's reader refuses the rows of ``lines[start:]`` at the
    structured ``dtype``: the first row of another width, or the first cell,
    row by row, that its column's dtype cannot hold, by its file line and
    column. Rows refused only together fall back to numpy's message,
    ``exc``."""
    for k, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        found = line.count(",") + 1
        if found != len(names):
            return f"line {k}: expected {len(names)} cells, found {found}"
        for j, name in enumerate(names):
            try:
                _load([line], dtype[j], usecols=j)
            except ValueError:
                cell = line.split(",")[j].strip()
                return f"line {k}: column {name} cannot hold {cell!r} as {dtype[j]}"
    return str(exc)
