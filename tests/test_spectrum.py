"""Degeneracy and partition counting for the 1:1:2 oscillator."""

from fractions import Fraction as F

import numpy as np
import pytest

from quadalg import fock3, spectrum
from quadalg.cli import main
from quadalg.spectrum import (
    LevelPart,
    brute_force_count,
    decompose_level,
    degeneracy_formula,
    level_report,
    partition_formula,
)

from dense_oracle import realized_matrices


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
