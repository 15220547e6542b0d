"""Occupations, receiver magnetization, and battery-charging metrics.

Everything reduces to single-particle amplitudes by Wick's theorem on the
one-per-site initial state, so fermions and bosons give identical values
for these one-body observables.  Energies use the spin convention
S^z = n - 1/2: a block of n_B empty sites stores -n_B h/2, a full one
+n_B h/2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .amplitudes import (SubmatrixEvaluator, _checked_grid, _propagator_block, plan_scan_grid,
                         propagator_block, time_chunks)
from .chain import ChainSpec, _site, _times
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


def _sender_rows(dec: SpectralDecomposition, n_s: int, t) -> np.ndarray:
    """Amplitudes f_i^j(t) for senders i = 1..n_s to every site j: (n_s, N)
    for a scalar t, (T, n_s, N) for a time array."""
    return propagator_block(dec, np.arange(n_s), np.arange(dec.n), t)


def _energy_block(spec: ChainSpec, dec: SpectralDecomposition, times, out=None) -> np.ndarray:
    """Sender amplitudes on every column the battery energies read: the
    receiver sites in order, then the junction sites n_s, n_s+1 and n_s+n_w
    (1-based).  A (T, n_s, n_r + 3) stack, written into `out` when given."""
    receivers = np.arange(spec.n_s + spec.n_w, spec.n_sites)
    junction = [spec.n_s - 1, spec.n_s, spec.n_s + spec.n_w - 1]
    return _propagator_block(dec, np.arange(spec.n_s), np.concatenate([receivers, junction]),
                             times, out)


def _hop_energy(spec: ChainSpec, block: np.ndarray) -> np.ndarray:
    """Receiver-bond hopping energy from an `_energy_block` stack."""
    recv = block[:, :, :spec.n_r]
    overlaps = np.sum(np.conj(recv[:, :, :-1]) * recv[:, :, 1:], axis=1)
    return np.sum(spec.j * overlaps.real, axis=1)


def _switch_energy(spec: ChainSpec, block: np.ndarray) -> np.ndarray:
    """Junction-bond hopping energy from an `_energy_block` stack."""
    first_receiver = block[:, :, 0]
    last_sender, first_wire, last_wire = (block[:, :, spec.n_r + k] for k in range(3))
    total = (np.sum(np.conj(last_sender) * first_wire, axis=1)
             + np.sum(np.conj(last_wire) * first_receiver, axis=1))
    return spec.j0 * total.real


def occupation(spec: ChainSpec, t, site: int, dec: SpectralDecomposition):
    """<n_site(t)> = sum over senders i of |f_i^site(t)|^2, 1-based site."""
    site = _site(site, dec.n)
    rows = _sender_rows(dec, spec.n_s, t)
    return np.sum(np.abs(rows[..., site - 1]) ** 2, axis=-1)


def occupation_profile(spec: ChainSpec, t, dec: SpectralDecomposition) -> np.ndarray:
    """<n_j(t)> for every site j at once."""
    rows = _sender_rows(dec, spec.n_s, t)
    return np.sum(np.abs(rows) ** 2, axis=-2)


def magnetization_receiver(spec: ChainSpec, t, dec: SpectralDecomposition):
    """Receiver-block magnetization: squared Frobenius norm of the
    sender-receiver submatrix minus n_r/2."""
    sub = SubmatrixEvaluator(dec, spec.n_s).submatrix(t)
    return np.sum(np.abs(sub) ** 2, axis=(-2, -1)) - spec.n_r / 2.0


def interaction_energy(spec: ChainSpec, t, dec: SpectralDecomposition):
    """Hopping energy stored on receiver-block bonds.

    Zero for any uniform-h hopping chain: the sublattice sign structure
    makes every (f_s^i)* f_s^{i+1} purely imaginary (uniform h cancels in
    the product), so only an on-site defect can make this nonzero.
    """
    times, scalar = _times(t)
    energy = _hop_energy(spec, _energy_block(spec, dec, times))
    return energy[0] if scalar else energy


def switching_energy(spec: ChainSpec, tau, dec: SpectralDecomposition):
    """Energy cost of switching the two J0 junction bonds off at time tau.

    The initial-state term vanishes exactly (the blocks start disjoint),
    leaving the junction-bond hopping expectation at tau, which is zero
    for the same sublattice-parity reason as the interaction energy.
    """
    times, scalar = _times(tau)
    energy = _switch_energy(spec, _energy_block(spec, dec, times))
    return energy[0] if scalar else energy


def battery_metrics(spec: ChainSpec, t_grid: np.ndarray | None = None) -> BatteryReport:
    """Charging figures of merit with the receiver block as the battery.

    An explicit t_grid must be 1-D, finite and strictly increasing, so that
    "earliest grid time attaining" is well defined.
    """
    if spec.h <= 1.0:
        warnings.warn(
            f"h={spec.h} <= 1: the fully-charged block is not the top of the "
            "local spectrum",
            stacklevel=2,
        )
    dec = decompose_chain(spec)
    if t_grid is None:
        t_grid, _ = plan_scan_grid(spec, dec)
    t_grid = _checked_grid(t_grid)
    n_b = spec.n_r
    e_onsite = np.empty(len(t_grid))
    e_hop = np.empty(len(t_grid))
    d_sw = np.empty(len(t_grid))
    parts = time_chunks(len(t_grid), spec.n_s * (n_b + 3))
    # one block for every chunk, like the kernel's scratch (README, Numerical notes)
    buffer = np.empty((len(t_grid[parts[0]]), spec.n_s, n_b + 3), dtype=complex)
    for part in parts:
        block = _energy_block(spec, dec, t_grid[part], buffer[:len(t_grid[part])])
        occ_b = np.sum(np.abs(block[:, :, :n_b]) ** 2, axis=(1, 2))
        e_onsite[part] = spec.h * (occ_b - n_b / 2.0)
        e_hop[part] = _hop_energy(spec, block)
        d_sw[part] = _switch_energy(spec, block)
    e_b = e_hop + e_onsite
    with np.errstate(divide="ignore", invalid="ignore"):
        p_s = np.where(t_grid > 0, e_b / t_grid, 0.0)
    k_e = int(np.argmax(e_b))
    k_p = int(np.argmax(p_s))
    return BatteryReport(
        times=t_grid,
        e_b=e_b,
        e_onsite=e_onsite,
        e_hop=e_hop,
        p_s=p_s,
        delta_e_sw=d_sw,
        e_bar=float(e_b[k_e]),
        tau_bar=float(t_grid[k_e]),
        p_tilde=float(p_s[k_p]),
        tau_tilde=float(t_grid[k_p]),
        p_bar=float(p_s[k_e]),
    )
