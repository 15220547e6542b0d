"""Exact-integer resonance arithmetic and wire-length feasibility classes.

A sender mode k is resonant with a wire mode q when cos(k*pi/(n_s+1)) =
cos(q*pi/(n_w+1)), i.e. exactly when k*(n_w+1) = q*(n_s+1) as integers.
Everything here is modular arithmetic; floating point appears only in
cross-validation tests against the spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .chain import _size


class Feasibility(Enum):
    PP = "PP"
    QUASI_PP = "quasiPP"
    NONE = "none"
    ALL_LENGTHS = "allLengths"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class ResonanceReport:
    n_s: int
    n_w: int
    residue: int
    pairs: tuple
    n_res: int
    feasibility: Feasibility


def resonant_pairs(n_s: int, n_w: int) -> list[tuple[int, int]]:
    """All (k, q) with k*(n_w+1) = q*(n_s+1), 1 <= k <= n_s, 1 <= q <= n_w."""
    n_s, n_w = _size("n_s", n_s), _size("n_w", n_w)
    pairs = []
    for k in range(1, n_s + 1):
        if k * (n_w + 1) % (n_s + 1) == 0:
            q = k * (n_w + 1) // (n_s + 1)
            if 1 <= q <= n_w:
                pairs.append((k, q))
    return pairs


def resonance_count(n_s: int, p: int) -> int:
    """Resonance count for residue class p = n_w mod (n_s+1).

    Depends only on (n_s, p); evaluated on the smallest representative
    wire length beyond one period, n_w = (n_s+1) + p.
    """
    n_s = _size("n_s", n_s)
    p = _size("p", p, 0, n_s)
    return len(resonant_pairs(n_s, (n_s + 1) + p))


def pp_feasible(n_s: int, n_w: int) -> Feasibility:
    """Feasibility class of n-excitation transfer for this wire length.

    Classified for n_s <= 4 only; larger blocks return UNCLASSIFIED since
    no verdict is established for them.
    """
    n_s, n_w = _size("n_s", n_s), _size("n_w", n_w)
    if n_s in (1, 2):
        return Feasibility.ALL_LENGTHS
    if n_s == 3:
        return Feasibility.PP if n_w % 4 == 1 else Feasibility.NONE
    if n_s == 4:
        return Feasibility.QUASI_PP if n_w % 5 in (1, 2) else Feasibility.NONE
    return Feasibility.UNCLASSIFIED


def universal_lengths(l_max: int) -> list[int]:
    """Wire lengths feasible for every block size 1..4: {20l+1} U {20l+17}."""
    lengths = set()
    for l in range(_size("l_max", l_max, 0) + 1):
        lengths.add(20 * l + 1)
        lengths.add(20 * l + 17)
    return sorted(lengths)


def resonance_report(n_s: int, n_w: int) -> ResonanceReport:
    n_s, n_w = _size("n_s", n_s), _size("n_w", n_w)
    pairs = tuple(resonant_pairs(n_s, n_w))
    return ResonanceReport(
        n_s=n_s,
        n_w=n_w,
        residue=n_w % (n_s + 1),
        pairs=pairs,
        n_res=len(pairs),
        feasibility=pp_feasible(n_s, n_w),
    )
