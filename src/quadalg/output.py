"""Deterministic JSON/CSV emission.

All floats are printed with 17 significant digits so repeated runs produce
byte-identical output; dictionaries serialize in insertion order.  A JSON
array may be given as a list, a tuple or a generator, which is consumed
only when the document is written.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from types import GeneratorType
from typing import Any, Iterable, Sequence, TextIO


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
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
    if isinstance(v, str):
        out = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(v, dict):
        inner = ", ".join(f"{_fmt_value(str(k))}: {_fmt_value(x)}" for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple, GeneratorType)):
        return "[" + ", ".join(_fmt_value(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__} deterministically")


def json_dumps(obj: Any) -> str:
    """Compact JSON with fixed float formatting and insertion-ordered keys."""
    return _fmt_value(obj)


def csv_cell(v) -> str:
    """One CSV cell: floats as in JSON, lists joined by ';', dicts as inline JSON."""
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
    writer.writerows([csv_cell(v) for v in row] for row in rows)
