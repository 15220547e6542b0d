"""Occupations, receiver magnetization, and battery-charging metrics.

Everything reduces to single-particle amplitudes by Wick's theorem on the
one-per-site initial state, so fermions and bosons give identical values
for these one-body observables.  Energies use the spin convention
S^z = n - 1/2: a block of n_B empty sites stores -n_B h/2, a full one
+n_B h/2.

Every observable taking a `dec` (`occupation`, `occupation_profile`,
`magnetization_receiver`, `interaction_energy`, `switching_energy`) reads
only the geometry and J0 from `spec`; `dec` may be any profile on the
chain's N sites, such as the on-site defect `validate --asymmetry` builds.
Each makes one `propagator_block` call on the sites it reads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .amplitudes import (SubmatrixEvaluator, _block_weight, _checked_grid, plan_scan_grid,
                         propagator_block)
from .chain import ChainSpec, _site
from .spectral import SpectralDecomposition, decompose_chain


@dataclass(frozen=True)
class BatteryReport:
    times: np.ndarray
    e_b: np.ndarray          # stored energy, hopping + on-site parts
    e_onsite: np.ndarray
    e_hop: np.ndarray
    p_s: np.ndarray          # mean storing power E_B(t)/t (0 at t = 0)
    delta_e_sw: np.ndarray   # switching energy at each sample
    e_bar: float             # max stored energy over the grid
    tau_bar: float           # earliest grid time attaining e_bar
    p_tilde: float           # max storing power over the grid
    tau_tilde: float         # earliest grid time attaining p_tilde
    p_bar: float             # storing power at tau_bar


def occupation(spec: ChainSpec, t, site: int, dec: SpectralDecomposition):
    """<n_site(t)> = sum over senders i of |f_i^site(t)|^2, 1-based site."""
    site = _site(site, dec.n)
    rows = propagator_block(dec, np.arange(spec.n_s), np.arange(dec.n), t)
    return np.sum(np.abs(rows[..., site - 1]) ** 2, axis=-1)


def occupation_profile(spec: ChainSpec, t, dec: SpectralDecomposition) -> np.ndarray:
    """<n_j(t)> for every site j at once."""
    rows = propagator_block(dec, np.arange(spec.n_s), np.arange(dec.n), t)
    return np.sum(np.abs(rows) ** 2, axis=-2)


def magnetization_receiver(spec: ChainSpec, t, dec: SpectralDecomposition):
    """Receiver-block magnetization: squared Frobenius norm of the
    sender-receiver submatrix minus n_r/2."""
    sub = SubmatrixEvaluator(dec, spec.n_s).submatrix(t)
    return np.sum(np.abs(sub) ** 2, axis=(-2, -1)) - spec.n_r / 2.0


def interaction_energy(spec: ChainSpec, t, dec: SpectralDecomposition):
    """Hopping energy stored on receiver-block bonds, from the n_s x n_r
    sender-receiver block: exactly zero on a `ChainSpec` chain (derived in
    `amplitudes._lattice`), about 1e-15 here with the chain's own `dec`,
    and nonzero only through an on-site defect."""
    receivers = np.arange(spec.n_s + spec.n_w, spec.n_sites)
    recv = propagator_block(dec, np.arange(spec.n_s), receivers, t)
    overlaps = np.sum(np.conj(recv[..., :-1]) * recv[..., 1:], axis=-2)
    return np.sum(spec.j * overlaps.real, axis=-1)


def switching_energy(spec: ChainSpec, tau, dec: SpectralDecomposition):
    """Energy cost of switching the two J0 junction bonds off at time tau:
    the junction-bond hopping expectation at tau, since the initial-state
    term vanishes exactly (the blocks start disjoint).  Zero for the same
    reason as `interaction_energy`.  Reads the sender rows on the four
    junction sites: first receiver, last sender, first wire, last wire."""
    sites = [spec.n_s + spec.n_w, spec.n_s - 1, spec.n_s, spec.n_s + spec.n_w - 1]
    first_receiver, last_sender, first_wire, last_wire = np.moveaxis(
        propagator_block(dec, np.arange(spec.n_s), sites, tau), -1, 0)
    total = (np.sum(np.conj(last_sender) * first_wire, axis=-1)
             + np.sum(np.conj(last_wire) * first_receiver, axis=-1))
    return spec.j0 * total.real


def battery_metrics(spec: ChainSpec, t_grid: np.ndarray | None = None) -> BatteryReport:
    """Charging figures of merit with the receiver block as the battery.

    An explicit t_grid must be 1-D, finite and strictly increasing, so that
    "earliest grid time attaining" is well defined.  Only sum |F|^2 over
    the n_s x n_r sender-receiver block F is evaluated, in the sublattice
    real form that `amplitudes._lattice` derives:
    e_onsite = h (sum |F|^2 - n_r/2).  e_hop and delta_e_sw are exact zeros
    and e_b is e_onsite, because by that derivation every bond product
    (f_s^i)* f_s^{i+1}, whose real part the two energies take, is purely
    imaginary.  Both facts need the chain of a `ChainSpec` (a bipartite
    hopping line with uniform h), so this function takes no `dec` and
    decomposes that chain itself, in its two mirror sectors
    (`decompose_chain(spec, _sectors=True)`, LAPACK, not the QL: the
    levels agree to roundoff, not bit for bit).  A uniform grid (as
    `battery --tmax T --samples S` makes) runs on the angle-addition lattice of
    `amplitudes._block_weight`, where a sample's last bits depend on its
    anchor; any other grid, the default one included, evaluates each time
    on its own, with the bits it has alone.
    """
    if spec.h <= 1.0:
        warnings.warn(
            f"h={spec.h} <= 1: the fully-charged block is not the top of the "
            "local spectrum",
            stacklevel=2,
        )
    dec = decompose_chain(spec, _sectors=True)
    if t_grid is None:
        t_grid, _ = plan_scan_grid(spec, dec)
    t_grid = _checked_grid(t_grid)
    receivers = np.arange(spec.n_s + spec.n_w, spec.n_sites)
    e_onsite = spec.h * (_block_weight(dec, np.arange(spec.n_s), receivers, t_grid)
                         - spec.n_r / 2.0)
    e_b = e_onsite.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        p_s = np.where(t_grid > 0, e_b / t_grid, 0.0)
    k_e = int(np.argmax(e_b))
    k_p = int(np.argmax(p_s))
    return BatteryReport(
        times=t_grid,
        e_b=e_b,
        e_onsite=e_onsite,
        e_hop=np.zeros(len(t_grid)),
        p_s=p_s,
        delta_e_sw=np.zeros(len(t_grid)),
        e_bar=float(e_b[k_e]),
        tau_bar=float(t_grid[k_e]),
        p_tilde=float(p_s[k_p]),
        tau_tilde=float(t_grid[k_p]),
        p_bar=float(p_s[k_e]),
    )
