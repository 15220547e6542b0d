"""Tests for exact-integer resonance arithmetic and feasibility classes."""

import numpy as np
import pytest

from ppxfer import Feasibility
from ppxfer.resonance import (
    pp_feasible,
    resonance_count,
    resonance_report,
    resonant_pairs,
    universal_lengths,
)
from ppxfer.spectral import sender_spectrum, wire_spectrum

# Resonance counts per residue class p = n_w mod (n_s+1), frozen per block
# size.  Index into the tuple with p.
COUNTS_BY_RESIDUE = {
    1: (0, 1),
    2: (0, 0, 2),
    3: (0, 1, 0, 3),
    4: (0, 0, 0, 0, 4),
}


def test_resonant_pairs_single_sender_odd_wire():
    # n_s=1, n_w=5: k=1 gives q = 6/2 = 3.
    assert resonant_pairs(1, 5) == [(1, 3)]


def test_resonant_pairs_single_sender_even_wire():
    assert resonant_pairs(1, 4) == []


def test_resonant_pairs_three_senders():
    # n_s=3, n_w=9: k*10 % 4 == 0 only for k=2, q=5.
    assert resonant_pairs(3, 9) == [(2, 5)]


def test_resonant_pairs_empty_class():
    assert resonant_pairs(2, 3) == []


def test_resonant_pairs_fully_resonant():
    # p = n_s: every sender mode finds a partner.
    pairs = resonant_pairs(3, 43)
    assert pairs == [(1, 11), (2, 22), (3, 33)]


@pytest.mark.parametrize("n_s", sorted(COUNTS_BY_RESIDUE))
def test_resonance_count_table(n_s):
    expected = COUNTS_BY_RESIDUE[n_s]
    got = tuple(resonance_count(n_s, p) for p in range(n_s + 1))
    assert got == expected


@pytest.mark.parametrize("n_s", [1, 2, 3, 4])
def test_resonance_count_is_congruence_invariant(n_s):
    # The count depends only on n_w mod (n_s+1): sweep six periods.
    for p in range(n_s + 1):
        expected = COUNTS_BY_RESIDUE[n_s][p]
        for l in range(6):
            n_w = (n_s + 1) * l + p
            if n_w < 1:
                continue
            assert len(resonant_pairs(n_s, n_w)) == expected


def test_full_residue_means_full_resonance():
    # p = n_s puts every sender mode on a wire mode.
    for n_s in range(1, 8):
        n_w = 2 * (n_s + 1) + n_s
        assert len(resonant_pairs(n_s, n_w)) == n_s


@pytest.mark.parametrize(
    "n_s,n_w", [(1, 5), (2, 8), (3, 41), (3, 43), (4, 32), (4, 14), (5, 23)]
)
def test_pairs_cross_validate_against_spectra(n_s, n_w):
    # Integer arithmetic must agree with the actual eigenvalue match:
    # (k, q) is resonant iff cos(k*pi/(n_s+1)) == cos(q*pi/(n_w+1)).
    sender = sender_spectrum(n_s)
    wire = wire_spectrum(n_w)
    pairs = set(resonant_pairs(n_s, n_w))
    floor = np.pi**2 / (2 * (n_s + 2) ** 2 * (n_w + 2) ** 2)
    for k in range(1, n_s + 1):
        for q in range(1, n_w + 1):
            gap = abs(sender[k - 1] - wire[q - 1])
            if (k, q) in pairs:
                assert gap < 1e-12
            else:
                # Non-resonant gaps are bounded away from zero.
                assert gap > floor


@pytest.mark.parametrize(
    "n_s,n_w,expected",
    [
        (1, 4, Feasibility.ALL_LENGTHS),
        (1, 41, Feasibility.ALL_LENGTHS),
        (2, 7, Feasibility.ALL_LENGTHS),
        (3, 41, Feasibility.PP),
        (3, 1, Feasibility.PP),
        (3, 40, Feasibility.NONE),
        (3, 42, Feasibility.NONE),
        (3, 43, Feasibility.NONE),
        (4, 32, Feasibility.QUASI_PP),
        (4, 41, Feasibility.QUASI_PP),
        (4, 40, Feasibility.NONE),
        (4, 43, Feasibility.NONE),
        (5, 21, Feasibility.UNCLASSIFIED),
        (9, 100, Feasibility.UNCLASSIFIED),
    ],
)
def test_pp_feasible_classes(n_s, n_w, expected):
    assert pp_feasible(n_s, n_w) is expected


def test_universal_lengths_smallest():
    assert universal_lengths(0) == [1, 17]
    assert universal_lengths(1) == [1, 17, 21, 37]


def test_universal_lengths_are_feasible_for_all_blocks():
    # Every listed length must be at least quasi-perfect for n_s = 1..4.
    good = {Feasibility.ALL_LENGTHS, Feasibility.PP, Feasibility.QUASI_PP}
    for n_w in universal_lengths(3):
        for n_s in (1, 2, 3, 4):
            assert pp_feasible(n_s, n_w) in good


def test_resonance_report_bundles_fields():
    rep = resonance_report(3, 43)
    assert rep.n_s == 3
    assert rep.n_w == 43
    assert rep.residue == 3
    assert rep.pairs == ((1, 11), (2, 22), (3, 33))
    assert rep.n_res == 3
    assert rep.feasibility is Feasibility.NONE


def test_resonance_report_pp_case():
    rep = resonance_report(3, 41)
    assert rep.residue == 1
    assert rep.pairs == ((2, 21),)
    assert rep.feasibility is Feasibility.PP
