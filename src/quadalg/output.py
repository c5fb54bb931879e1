"""Deterministic JSON/CSV emission.

All floats are printed with 17 significant digits so repeated runs produce
byte-identical output; dictionaries serialize in insertion order.  A JSON
array may be given as a list, a tuple or a generator, which is consumed
only when the document is written; a :class:`JSONFragment` is written as
it is.  A non-finite float raises :class:`NonFiniteError`, which names the
key path of the offending value: no document or CSV table holds a NaN or
an infinity.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from types import GeneratorType
from typing import Any, Iterable, Sequence, TextIO


class NonFiniteError(ArithmeticError):
    """A NaN or infinite float reached the emitter; ``path`` locates it."""

    path = ""

    def within(self, key) -> "NonFiniteError":
        self.path = (f"[{key}]" if isinstance(key, int) else f".{key}") + self.path
        return self

    def __str__(self) -> str:
        return f"non-finite value {self.args[0]!r} at {self.path.lstrip('.') or 'top level'}"


class JSONFragment(str):
    """Already rendered JSON, written verbatim by :func:`json_dumps`."""


def fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteError(float(x))
    return format(float(x), ".17g")


def _fmt_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return fmt_float(v)
    if isinstance(v, Fraction):
        return _fmt_value(str(v))
    if isinstance(v, complex):
        return _fmt_value({"re": v.real, "im": v.imag})
    if isinstance(v, JSONFragment):
        return v
    if isinstance(v, str):
        out = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(v, dict):
        items = []
        for k, x in v.items():
            try:
                items.append(f"{_fmt_value(str(k))}: {_fmt_value(x)}")
            except NonFiniteError as exc:
                raise exc.within(str(k))
        return "{" + ", ".join(items) + "}"
    if isinstance(v, (list, tuple, GeneratorType)):
        items = []
        try:
            for x in v:
                items.append(_fmt_value(x))
        except NonFiniteError as exc:
            raise exc.within(len(items))
        return "[" + ", ".join(items) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__} deterministically")


def json_dumps(obj: Any) -> str:
    """Compact JSON with fixed float formatting and insertion-ordered keys."""
    return _fmt_value(obj)


def diag_matrix_json(values: Sequence[float], offset: int) -> JSONFragment:
    """JSON of the dense square matrix ``numpy.diag(values, offset)``, row-major.

    The matrix is never built: each row holds at most one entry, so it is
    written by string repetition around that entry, and all rows without
    one share a single string.  The bytes equal ``json_dumps`` of the
    dense matrix's ``tolist()``.
    """
    d = len(values) + abs(offset)
    zero = fmt_float(0.0)
    head, tail = zero + ", ", ", " + zero
    rows = ["[" + ", ".join([zero] * d) + "]"] * d
    first_row, first_col = max(-offset, 0), max(offset, 0)
    for i, x in enumerate(values):
        col = first_col + i
        rows[first_row + i] = "[" + head * col + fmt_float(x) + tail * (d - col - 1) + "]"
    return JSONFragment("[" + ", ".join(rows) + "]")


def csv_cell(v) -> str:
    """One CSV cell: floats as in JSON, lists joined by ';', dicts as inline JSON, None empty."""
    if v is None:
        return ""
    if isinstance(v, float):
        return fmt_float(v)
    if isinstance(v, list):
        return ";".join(csv_cell(x) for x in v)
    if isinstance(v, dict):
        return _fmt_value(v)
    return str(v)


def write_csv(stream: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV rows ended by '\\n'; a cell holding ',', '"' or a line break is quoted."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for n, row in enumerate(rows):
        cells = []
        try:
            for v in row:
                cells.append(csv_cell(v))
        except NonFiniteError as exc:
            raise exc.within(header[len(cells)]).within(n)
        writer.writerow(cells)
