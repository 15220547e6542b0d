"""Brute-force n-particle Fock-space evolution for small chains.

Ground truth for the determinant/permanent route: build the full sector
basis, the dense sector Hamiltonian, and evolve by eigendecomposition.
Runs only at small sizes.

A sector's hop list (row, column, bond, sqrt(n_b (n_{b+1} + 1))) depends
only on its basis states and the occupancy cap, not on the couplings.  One
bounded LRU cache keyed by those two holds it as read-only arrays, and a
second, keyed by (N, n, statistics), holds the basis the oracle evolves in,
with a read-only index.  So the `oracle-check` suite's 12 Hamiltonians (14
in `validate`) come from 6 hop lists and a warm process builds none.  A
Hamiltonian is then two fancy-index assignments of (J_b/2) times the
factor, plus the per-state on-site dot products; every entry is byte-equal
to that of the per-(state, bond) reference loop in `tests/test_oracle.py`.

Both statistics share one path: a basis state is an occupation tuple, and
the only difference is the occupancy cap, 1 for fermions (Pauli) and n for
bosons.  A hop b -> b+1 carries (J_b/2) sqrt(n_b (n_{b+1} + 1)), which is
J_b/2 for fermions.  Fermion hop signs: in a site-ordered occupation basis
the matrix element of c_{i+1}^dag c_i picks up (-1)^(number of occupied
sites strictly between i and i+1), which is empty for nearest neighbors,
so no hop carries a sign.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from itertools import combinations, combinations_with_replacement
from types import MappingProxyType

import numpy as np

from .chain import ChainSpec, CouplingProfile, _site, _size, _times, build_profile

# The cost of a sector is its dense dim x dim float64 Hamiltonian (and
# eigh's eigenvector matrix of the same size), so the cap is set by a
# budget of 128 MiB per dense matrix, not by a state count:
# 128 MiB / 8 B = 2^24 entries, so dim <= sqrt(2^24) = 4096 states.
# The largest sector the CLI builds has 120 states.
DIM_CAP = 4096


@dataclass(frozen=True)
class SectorBasis:
    """Ordered n-particle occupation tuples over N sites.

    Fermion states come in `combinations` order of their occupied sites;
    boson states in ascending lexicographic order of the occupation tuple,
    the reverse of `combinations_with_replacement` order.  Positions are
    deterministic.
    """

    n_sites: int
    n_particles: int
    statistics: str
    states: tuple
    index: dict

    @property
    def dim(self) -> int:
        return len(self.states)

    def occupation_of(self, state, site: int) -> int:
        """Occupation of a 1-based site in a basis state."""
        return state[_site(site, self.n_sites) - 1]


def enumerate_basis(n_sites: int, n_particles: int, statistics: str) -> SectorBasis:
    n_sites = _size("n_sites", n_sites)
    sites = range(n_sites)
    if statistics == "fermion":
        n_particles = _size("n_particles", n_particles, 0, n_sites)
        dim = math.comb(n_sites, n_particles)
        placements = combinations(sites, n_particles)
    elif statistics == "boson":
        n_particles = _size("n_particles", n_particles, 0)
        dim = math.comb(n_sites + n_particles - 1, n_particles)
        placements = combinations_with_replacement(sites, n_particles)
    else:
        raise ValueError(f"unknown statistics {statistics!r}")
    if dim > DIM_CAP:
        raise ValueError(f"sector dimension {dim} exceeds cap {DIM_CAP}")
    states = tuple(tuple(map(placed.count, sites)) for placed in placements)
    if statistics == "boson":
        states = states[::-1]  # ascending lexicographic order, the reverse of placements
    return SectorBasis(
        n_sites=n_sites,
        n_particles=n_particles,
        statistics=statistics,
        states=states,
        index={s: i for i, s in enumerate(states)},
    )


# The CLI's oracle suite and its occupation checks use 6 sectors.
@functools.lru_cache(maxsize=8)
def _basis(n_sites: int, n_particles: int, statistics: str) -> SectorBasis:
    """`enumerate_basis`'s sector, shared: its index is read-only."""
    basis = enumerate_basis(n_sites, n_particles, statistics)
    return replace(basis, index=MappingProxyType(basis.index))


@functools.lru_cache(maxsize=8)
def _hops(states: tuple, cap: int):
    """The hops b -> b+1 between `states` under an occupancy cap, as
    read-only arrays: hop j takes state cols[j] to state rows[j] across
    bond bonds[j] with the factor factors[j] = sqrt(n_b (n_{b+1} + 1))."""
    index = {s: i for i, s in enumerate(states)}
    rows, cols, bonds, factors = [], [], [], []
    for col, state in enumerate(states):
        for bond in range(len(state) - 1):
            here, there = state[bond], state[bond + 1]
            if here > 0 and there < cap:
                rows.append(index[state[:bond] + (here - 1, there + 1) + state[bond + 2:]])
                cols.append(col)
                bonds.append(bond)
                factors.append(math.sqrt(here * (there + 1)))
    arrays = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
              np.array(bonds, dtype=np.intp), np.array(factors, dtype=float))
    for array in arrays:
        array.setflags(write=False)
    return arrays


def build_sector_hamiltonian(profile: CouplingProfile, basis: SectorBasis) -> np.ndarray:
    if profile.n_sites != basis.n_sites:
        raise ValueError("profile and basis disagree on the site count")
    if basis.statistics not in ("fermion", "boson"):
        raise ValueError(f"unknown statistics {basis.statistics!r}")
    cap = 1 if basis.statistics == "fermion" else basis.n_particles  # per site
    rows, cols, bonds, factors = _hops(basis.states, cap)
    ham = np.zeros((basis.dim, basis.dim))
    # all +0.0 on-site energies dot to the +0.0 already there; a -0.0 may give -0.0
    if profile.onsite.any() or np.signbit(profile.onsite).any():
        for col, state in enumerate(basis.states):
            ham[col, col] = float(np.dot(profile.onsite, state))
    # each off-diagonal entry takes exactly one hop; + 0.0 gives the bits of
    # adding it onto a zero matrix (a -0.0 amplitude lands as +0.0)
    amps = (profile.hop / 2.0)[bonds] * factors + 0.0
    ham[rows, cols] = amps
    ham[cols, rows] = amps
    return ham


def _sector_setup(spec: ChainSpec):
    basis = _basis(spec.n_sites, spec.n_s, spec.statistics)
    ham = build_sector_hamiltonian(build_profile(spec), basis)
    energies, modes = np.linalg.eigh(ham)
    return basis, energies, modes


def _edge_states(basis: SectorBasis):
    n, k = basis.n_sites, basis.n_particles
    sender = (1,) * k + (0,) * (n - k)
    return basis.index[sender], basis.index[sender[::-1]]


def oracle_transfer_prob(spec: ChainSpec, t):
    """|<receiver block| exp(-i t H) |sender block>|^2 in the full sector,
    for every time from one sector build."""
    times, scalar = _times(t)
    basis, energies, modes = _sector_setup(spec)
    i_send, i_recv = _edge_states(basis)
    phases = np.exp(-1j * energies * times[:, None])
    amp = np.sum(modes[i_recv] * phases * modes[i_send], axis=-1)
    p = np.float_power(np.hypot(amp.real, amp.imag), 2)  # the bits of abs(amp) ** 2
    return p[0] if scalar else p


def oracle_occupation(spec: ChainSpec, t, site):
    """<n_site(t)> (1-based site) evolved in the sector basis: a float for
    one site, an array for a 1-D site array, at every time from one sector
    build."""
    sites = [_site(k, spec.n_sites) for k in (list(site) if np.ndim(site) else [site])]
    times, scalar = _times(t)
    basis, energies, modes = _sector_setup(spec)
    i_send, _ = _edge_states(basis)
    occs = [np.array([state[k - 1] for state in basis.states], dtype=float) for k in sites]
    values = []
    for t_k in times.tolist():
        # one matrix-vector product per time, as a single time takes it
        weights = np.abs(modes @ (np.exp(-1j * energies * t_k) * modes[i_send])) ** 2
        values.append([np.dot(weights, occ) for occ in occs])
    values = np.array(values) if np.ndim(site) else np.array(values)[:, 0]
    return values[0] if scalar else values
