"""Degeneracy and partition counting for the 1:1:2 oscillator."""

import io
import types
from dataclasses import dataclass, fields
from fractions import Fraction
from fractions import Fraction as F
from functools import lru_cache

import numpy as np
import pytest

from quadalg import fock3, spectrum
from quadalg.cli import main
from quadalg.output import JSONFragment, json_dumps, write_csv
from quadalg.spectrum import (
    brute_force_count,
    degeneracy_formula,
    level_report,
    partition_formula,
)

from dense_oracle import LevelPart, decompose_level, realized_matrices, report_parts


def test_decompose_level_examples():
    parts4 = decompose_level(4)
    assert parts4 == (LevelPart(F(1, 2), 3, 1), LevelPart(F(3, 2), 2, 2),
                      LevelPart(F(5, 2), 1, 2))
    assert sum(p.dim * p.multiplicity for p in parts4) == 9

    parts1 = decompose_level(1)
    assert parts1 == (LevelPart(F(1), 1, 2),)

    parts0 = decompose_level(0)
    assert parts0 == (LevelPart(F(1, 2), 1, 1),)


def test_degeneracy_formula_examples():
    assert degeneracy_formula(6) == 16
    assert degeneracy_formula(7) == 20
    assert degeneracy_formula(2) == 4
    assert [degeneracy_formula(n) for n in range(8)] == [1, 2, 4, 6, 9, 12, 16, 20]


def test_partition_formula_examples():
    assert partition_formula(4) == 6
    assert partition_formula(0) == 1


def enumerate_pairs(N, ordered):
    """The brute force by a double loop: every (n1, n2) on every line n1 + n2 = N - 2*n3."""
    count = 0
    for n3 in range(N // 2 + 1):
        rest = N - 2 * n3
        for n1 in range(rest + 1):
            n2 = rest - n1
            if ordered or n1 <= n2:
                count += 1
    return count


@pytest.mark.parametrize("ordered", [True, False])
def test_brute_force_equals_double_loop(ordered):
    for n in range(301):
        assert brute_force_count(n, ordered) == enumerate_pairs(n, ordered), n


def test_brute_force_examples():
    assert brute_force_count(2, ordered=True) == 4
    assert brute_force_count(4, ordered=True) == 9
    assert brute_force_count(4, ordered=False) == 6
    assert brute_force_count(0, ordered=True) == 1
    assert brute_force_count(0, ordered=False) == 1


def test_brute_force_unordered_enumeration_n4():
    # the six unordered solutions of n1 + n2 + 2 n3 = 4 with n1 <= n2
    sols = [(n1, n2, n3)
            for n3 in range(3) for n1 in range(5) for n2 in range(5)
            if n1 + n2 + 2 * n3 == 4 and n1 <= n2]
    assert len(sols) == 6
    assert set(sols) == {(0, 4, 0), (1, 3, 0), (2, 2, 0), (0, 2, 1), (1, 1, 1), (0, 0, 2)}


def test_three_counts_agree_up_to_60():
    for n in range(61):
        rep = level_report(n)
        assert rep.consistent, n
        assert rep.l == F(n + 1, 4)


@pytest.mark.parametrize("n", [1000, 2047, 4095])
def test_three_counts_agree_at_large_n(n):
    assert level_report(n).consistent


def test_multiplicity_rule():
    for n in (3, 9, 14):
        for part in decompose_level(n):
            assert part.multiplicity == (1 if part.k == F(1, 2) else 2)


def test_negative_level_rejected():
    with pytest.raises(ValueError):
        decompose_level(-1)
    with pytest.raises(ValueError):
        brute_force_count(-3, ordered=True)


def test_hamiltonian_matches_fock_grading():
    # 4*L - 1 must have eigenvalue n1 + n2 + 2*n3 on every basis state
    space = fock3.FockSpace((5, 5, 5))
    ops = realized_matrices(fock3.realize("compact", space))
    h = 4 * ops.lmat - np.eye(space.dim)
    for i, occ in enumerate(space.occupations.tolist()):
        assert h[i, i] == occ[0] + occ[1] + 2 * occ[2]
    assert np.abs(h - np.diag(np.diag(h))).max() == 0


def test_level_degeneracy_matches_fock_eigenspace():
    # the number of basis states at energy N equals the ordered count
    space = fock3.FockSpace((10, 10, 5))
    energies = [occ[0] + occ[1] + 2 * occ[2] for occ in space.occupations.tolist()]
    for n in range(0, 6):
        assert energies.count(n) == brute_force_count(n, ordered=True)


def test_csv_export(capsys):
    assert main(["spectrum", "--from=0", "--to=2", "--format=csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "N,degeneracy,partitions,parts"
    assert lines[1] == "0,1,1,1/2:1:1"
    assert lines[2] == "1,2,1,1:1:2"
    assert lines[3] == "2,4,3,1/2:2:1;3/2:1:2"


def _global_names(code: types.CodeType) -> set:
    """Every name a function's code (nested comprehensions included) reads by name."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


def test_brute_force_shares_no_helper_with_the_decomposition():
    # the oracle reads only builtins: no spectrum helper, so none the decomposition uses
    helpers = set(vars(spectrum))
    assert not _global_names(brute_force_count.__code__) & helpers
    decomposition = (_global_names(spectrum.level_parts.__code__)
                     | _global_names(decompose_level.__code__))
    assert "brute_force_count" not in decomposition


# ---------------------------------------------------------------------------
# The decomposition, the report and the ``parts`` templates as they were when
# every piece was a LevelPart and its text came from ``Fraction.__str__``,
# copied verbatim (the report class and the functions renamed).

# one Fraction per label k = twok/2, shared by all the levels of a window
_half = lru_cache(maxsize=8192)(lambda twok: Fraction(twok, 2))


@dataclass
class FractionReport:
    """Per-level decomposition with the three counts of each kind."""

    N: int
    l: Fraction
    parts: tuple[LevelPart, ...]
    degeneracy_reptheory: int
    degeneracy_formula: int
    degeneracy_bruteforce: int
    partitions_reptheory: int
    partitions_formula: int
    partitions_bruteforce: int

    @property
    def consistent(self) -> bool:
        return (self.degeneracy_reptheory == self.degeneracy_formula == self.degeneracy_bruteforce
                and self.partitions_reptheory == self.partitions_formula == self.partitions_bruteforce)


def fraction_decompose_level(N: int) -> tuple[LevelPart, ...]:
    """All compact irreducible pieces compatible with l = (N+1)/4.

    k runs over the positive half-integers with 2l - k a non-negative
    integer; each piece has dimension 2l - k + 1 and multiplicity 2 unless
    k = 1/2 (where the two basis choices coincide).
    """
    if N < 0:
        raise ValueError("level index must be >= 0")
    # 2l - k = (N + 1 - 2k)/2 is an integer when 2k has the parity of N + 1,
    # and non-negative up to 2k = N + 1
    return tuple(LevelPart(k=_half(twok), dim=(N + 1 - twok) // 2 + 1,
                           multiplicity=1 if twok == 1 else 2)
                 for twok in range(2 - (N + 1) % 2, N + 2, 2))


def fraction_level_report(N: int) -> FractionReport:
    """Assemble all six counts for one level."""
    parts = fraction_decompose_level(N)
    return FractionReport(
        N=N,
        l=Fraction(N + 1, 4),
        parts=parts,
        degeneracy_reptheory=sum(p.dim * p.multiplicity for p in parts),
        degeneracy_formula=degeneracy_formula(N),
        degeneracy_bruteforce=brute_force_count(N, ordered=True),
        partitions_reptheory=sum(p.dim for p in parts),
        partitions_formula=partition_formula(N),
        partitions_bruteforce=brute_force_count(N, ordered=False),
    )


# one piece of a spectrum level as a JSON object and as a CSV field
_PART_JSON = '{{"k": "{0.k}", "dim": {0.dim}, "multiplicity": {0.multiplicity}}}'.format
_PART_CSV = "{0.k}:{0.dim}:{0.multiplicity}".format


def fraction_spectrum(reports):
    """The JSON document and CSV rows of ``spectrum`` over ``reports``."""
    doc = (
        {
            "N": r.N, "l": str(r.l),
            "degeneracy": {"reptheory": r.degeneracy_reptheory,
                           "formula": r.degeneracy_formula,
                           "bruteforce": r.degeneracy_bruteforce},
            "partitions": {"reptheory": r.partitions_reptheory,
                           "formula": r.partitions_formula,
                           "bruteforce": r.partitions_bruteforce},
            "parts": JSONFragment("[" + ", ".join(map(_PART_JSON, r.parts)) + "]"),
            "consistent": r.consistent,
        }
        for r in reports
    )
    rows = ((r.N, r.degeneracy_formula, r.partitions_formula, ";".join(map(_PART_CSV, r.parts)))
            for r in reports)
    return doc, rows


LEVELS = range(1501)


@pytest.fixture(scope="module")
def fraction_reports():
    return [fraction_level_report(n) for n in LEVELS]


def test_decomposition_and_report_equal_the_fraction_copy(fraction_reports):
    for old in fraction_reports:
        assert decompose_level(old.N) == old.parts
        new = level_report(old.N)
        for field in fields(old):
            got = report_parts(new) if field.name == "parts" else getattr(new, field.name)
            assert got == getattr(old, field.name), (old.N, field.name)
        assert new.consistent and old.consistent


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rendered_levels_equal_the_fraction_copy(capsys, fraction_reports, fmt):
    assert main(["spectrum", f"--from={LEVELS[0]}", f"--to={LEVELS[-1]}", f"--format={fmt}"]) == 0
    out = capsys.readouterr().out
    doc, rows = fraction_spectrum(fraction_reports)
    if fmt == "json":
        want = json_dumps(doc) + "\n"
    else:
        buf = io.StringIO()
        write_csv(buf, ("N", "degeneracy", "partitions", "parts"), rows)
        want = buf.getvalue()
    if out != want:
        first = next((i for i, (a, b) in enumerate(zip(out, want)) if a != b),
                     min(len(out), len(want)))
        pytest.fail(f"stdout differs from the copy from character {first} on")
