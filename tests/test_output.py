"""The emitter: non-finite values are refused with their key path; band matrices."""

import math

import numpy as np
import pytest

from quadalg.output import (JSONFragment, NonFiniteError, csv_cell, diag_matrix_json, json_dumps,
                            write_csv)


@pytest.mark.parametrize("doc, path", [
    (math.nan, "top level"),
    ({"a": math.inf}, "a"),
    ({"a": [1.0, {"b": -math.inf}]}, "a[1].b"),
    ([{"x": 1.0}, {"x": complex(0.0, math.nan)}], "[1].x.im"),
    ({"rows": (r for r in [[0.5], [math.nan]])}, "rows[1][0]"),
])
def test_json_refuses_non_finite(doc, path):
    with pytest.raises(NonFiniteError) as info:
        json_dumps(doc)
    assert str(info.value).endswith(f"at {path}")


def test_csv_refuses_non_finite(tmp_path):
    with open(tmp_path / "out.csv", "w") as stream, pytest.raises(NonFiniteError) as info:
        write_csv(stream, ("n", "value"), [(0, 1.0), (1, {"r": math.nan})])
    assert str(info.value).endswith("at [1].value.r")


def test_csv_none_is_an_empty_cell(tmp_path):
    assert csv_cell(None) == ""
    with open(tmp_path / "out.csv", "w") as stream:
        write_csv(stream, ("n", "value"), [(0, 1.0), (1, None)])
    assert (tmp_path / "out.csv").read_text() == "n,value\n0,1\n1,\n"


def test_fragment_written_verbatim():
    assert json_dumps({"m": JSONFragment("[[1, 2]]"), "s": "[x]"}) == '{"m": [[1, 2]], "s": "[x]"}'


@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2])
def test_diag_matrix_json_equals_dense(d, offset):
    values = [math.sqrt(n + 2) * (-1) ** n for n in range(max(d - abs(offset), 0))]
    dense = np.diag(np.array(values, dtype=float), offset).tolist()
    assert diag_matrix_json(values, offset) == json_dumps(dense)
