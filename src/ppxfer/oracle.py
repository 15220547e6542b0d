"""Brute-force n-particle Fock-space evolution for small chains.

Ground truth for the determinant/permanent route: build the full sector
basis, the dense sector Hamiltonian, and evolve by eigendecomposition.
Runs only at small sizes; nothing here is a performance path.

Fermion hop signs: in a site-ordered occupation basis the matrix element
of c_{i+1}^dag c_i picks up (-1)^(number of occupied sites strictly
between i and i+1), which is empty for nearest neighbors, so every hop
amplitude is +J_i/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .chain import ChainSpec, CouplingProfile, _site, _size, _times, build_profile

DIM_CAP = 100_000


@dataclass(frozen=True)
class SectorBasis:
    """Ordered n-particle configurations over N sites.

    Fermion states are site bitmasks (bit p = site p+1 occupied); boson
    states are occupation tuples.  Both orderings are lexicographic on
    the occupation vector, so positions are deterministic.
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
        site = _site(site, self.n_sites)
        if self.statistics == "fermion":
            return (state >> (site - 1)) & 1
        return state[site - 1]


def _boson_states(n_sites: int, n_particles: int):
    """Occupation tuples summing to n_particles, lexicographic order."""
    if n_sites == 1:
        yield (n_particles,)
        return
    for head in range(n_particles + 1):
        for tail in _boson_states(n_sites - 1, n_particles - head):
            yield (head,) + tail


def enumerate_basis(n_sites: int, n_particles: int, statistics: str) -> SectorBasis:
    n_sites = _size("n_sites", n_sites)
    if statistics == "fermion":
        n_particles = _size("n_particles", n_particles, 0, n_sites)
        dim = comb(n_sites, n_particles)
    elif statistics == "boson":
        n_particles = _size("n_particles", n_particles, 0)
        dim = comb(n_sites + n_particles - 1, n_particles)
    else:
        raise ValueError(f"unknown statistics {statistics!r}")
    if dim > DIM_CAP:
        raise ValueError(f"sector dimension {dim} exceeds cap {DIM_CAP}")
    if statistics == "fermion":
        states = tuple(
            sum(1 << p for p in sites)
            for sites in combinations(range(n_sites), n_particles)
        )
    else:
        states = tuple(_boson_states(n_sites, n_particles))
    return SectorBasis(
        n_sites=n_sites,
        n_particles=n_particles,
        statistics=statistics,
        states=states,
        index={s: i for i, s in enumerate(states)},
    )


def build_sector_hamiltonian(profile: CouplingProfile, basis: SectorBasis) -> np.ndarray:
    n = profile.n_sites
    if n != basis.n_sites:
        raise ValueError("profile and basis disagree on the site count")
    dim = basis.dim
    ham = np.zeros((dim, dim))
    if basis.statistics == "fermion":
        for col, state in enumerate(basis.states):
            diag = 0.0
            for site in range(n):
                if (state >> site) & 1:
                    diag += profile.onsite[site]
            ham[col, col] = diag
            for bond in range(n - 1):
                lo, hi = 1 << bond, 1 << (bond + 1)
                if state & lo and not state & hi:
                    row = basis.index[state ^ lo ^ hi]
                    amp = profile.hop[bond] / 2.0
                    ham[row, col] += amp
                    ham[col, row] += amp
    else:
        for col, state in enumerate(basis.states):
            ham[col, col] = float(np.dot(profile.onsite, state))
            for bond in range(n - 1):
                if state[bond] > 0:
                    moved = list(state)
                    moved[bond] -= 1
                    moved[bond + 1] += 1
                    row = basis.index[tuple(moved)]
                    amp = (profile.hop[bond] / 2.0) * np.sqrt(
                        state[bond] * (state[bond + 1] + 1)
                    )
                    ham[row, col] += amp
                    ham[col, row] += amp
    return ham


def _sector_setup(spec: ChainSpec):
    basis = enumerate_basis(spec.n_sites, spec.n_s, spec.statistics)
    ham = build_sector_hamiltonian(build_profile(spec), basis)
    energies, modes = np.linalg.eigh(ham)
    return basis, energies, modes


def _edge_states(basis: SectorBasis):
    n, k = basis.n_sites, basis.n_particles
    if basis.statistics == "fermion":
        sender = (1 << k) - 1
        receiver = ((1 << k) - 1) << (n - k)
    else:
        sender = tuple([1] * k + [0] * (n - k))
        receiver = tuple([0] * (n - k) + [1] * k)
    return basis.index[sender], basis.index[receiver]


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
    occs = [np.array([basis.occupation_of(s, k) for s in basis.states], dtype=float)
            for k in sites]
    values = []
    for t_k in times.tolist():
        # one matrix-vector product per time, as a single time takes it
        weights = np.abs(modes @ (np.exp(-1j * energies * t_k) * modes[i_send])) ** 2
        values.append([np.dot(weights, occ) for occ in occs])
    values = np.array(values) if np.ndim(site) else np.array(values)[:, 0]
    return values[0] if scalar else values
