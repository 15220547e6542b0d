"""Tests for occupations, receiver magnetization, and battery metrics."""

import inspect
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ppxfer import ChainSpec, amplitudes, occupation_profile
from ppxfer.amplitudes import CHUNK_ELEMENTS, _block_weight, propagator_grid, time_chunks
from ppxfer.chain import CouplingProfile, build_profile
from ppxfer.observables import (
    battery_metrics,
    interaction_energy,
    magnetization_receiver,
    occupation,
    switching_energy,
)
from ppxfer.oracle import oracle_occupation
from ppxfer.spectral import decompose_chain, diagonalize


def defected_decomposition(spec, shift=0.02):
    """Decomposition with an on-site defect on the last receiver site.

    A coupling (bond) defect keeps the chain bipartite and cannot move
    the hopping-energy observables off zero; an on-site defect can.
    """
    profile = build_profile(spec)
    onsite = profile.onsite.copy()
    onsite[-1] += shift
    return diagonalize(CouplingProfile(onsite=onsite, hop=profile.hop))


def test_occupation_marks_sender_block_at_time_zero():
    spec = ChainSpec(n_s=2, n_w=3, j0=0.05)
    dec = decompose_chain(spec)
    for site in range(1, 8):
        expected = 1.0 if site <= 2 else 0.0
        assert occupation(spec, 0.0, site, dec) == pytest.approx(expected, abs=1e-12)


def test_occupation_total_is_conserved():
    spec = ChainSpec(n_s=3, n_w=5, j0=0.04)
    dec = decompose_chain(spec)
    rng = np.random.default_rng(2)
    for t in rng.uniform(0.0, 80.0, size=6):
        prof = occupation_profile(spec, float(t), dec)
        assert prof.shape == (11,)
        assert np.all(prof >= -1e-14)
        assert np.sum(prof) == pytest.approx(3.0, abs=1e-10)


def test_occupation_profile_matches_sitewise_calls():
    spec = ChainSpec(n_s=2, n_w=2, j0=0.1)
    t = 4.2
    dec = decompose_chain(spec)
    prof = occupation_profile(spec, t, dec)
    for site in range(1, 7):
        assert prof[site - 1] == pytest.approx(occupation(spec, t, site, dec), abs=1e-14)


def test_occupation_matches_sector_oracle_for_both_statistics():
    # One-body densities from a filled block are statistics-independent,
    # so a single amplitude-based value must match both sector evolutions.
    spec = ChainSpec(n_s=2, n_w=2, j0=0.1)
    t = 2.0
    dec = decompose_chain(spec)
    for site in range(1, 7):
        fast = occupation(spec, t, site, dec)
        for stats in ("fermion", "boson"):
            probe = ChainSpec(n_s=2, n_w=2, j0=0.1, statistics=stats)
            assert fast == pytest.approx(oracle_occupation(probe, t, site), abs=1e-10)


def test_magnetization_starts_at_empty_block_value():
    spec = ChainSpec(n_s=3, n_w=7, j0=0.02)
    dec = decompose_chain(spec)
    assert magnetization_receiver(spec, 0.0, dec) == pytest.approx(-1.5, abs=1e-12)


def test_magnetization_equals_receiver_occupation_minus_half_filling():
    spec = ChainSpec(n_s=3, n_w=7, j0=0.05)
    dec = decompose_chain(spec)
    rng = np.random.default_rng(14)
    for t in rng.uniform(0.0, 300.0, size=10):
        mag = magnetization_receiver(spec, float(t), dec)
        prof = occupation_profile(spec, float(t), dec)
        occ_r = float(np.sum(prof[-3:]))
        assert mag == pytest.approx(occ_r - 1.5, abs=1e-12)


def test_magnetization_stays_in_physical_window():
    spec = ChainSpec(n_s=2, n_w=4, j0=0.08)
    dec = decompose_chain(spec)
    rng = np.random.default_rng(8)
    for t in rng.uniform(0.0, 500.0, size=20):
        mag = magnetization_receiver(spec, float(t), dec)
        assert -1.0 - 1e-12 <= mag <= 1.0 + 1e-12


def test_hopping_energies_vanish_on_uniform_chains():
    # Bipartite sublattice structure forces both observables to zero for
    # any pure-hopping chain, mirror-symmetric or not.
    spec = ChainSpec(n_s=2, n_w=5, j0=0.1)
    dec = decompose_chain(spec)
    for t in (0.0, 3.7, 18.1, 44.2):
        assert abs(interaction_energy(spec, t, dec)) < 1e-10
        assert abs(switching_energy(spec, t, dec)) < 1e-10


def test_hopping_energies_vanish_even_with_a_bond_defect():
    # Perturbing a coupling keeps the chain bipartite: still zero.
    spec = ChainSpec(n_s=2, n_w=5, j0=0.1)
    profile = build_profile(spec)
    hop = profile.hop.copy()
    hop[-1] += 0.02
    dec = diagonalize(CouplingProfile(onsite=profile.onsite, hop=hop))
    worst = max(abs(interaction_energy(spec, t, dec)) for t in np.linspace(0.0, 60.0, 40))
    assert worst < 1e-12


def test_on_site_defect_breaks_the_energy_zeros():
    spec = ChainSpec(n_s=2, n_w=5, j0=0.1)
    dec = defected_decomposition(spec)
    grid = np.linspace(0.0, 60.0, 120)
    worst_int = max(abs(interaction_energy(spec, float(t), dec)) for t in grid)
    worst_sw = max(abs(switching_energy(spec, float(t), dec)) for t in grid)
    assert worst_int > 1e-6
    assert worst_sw > 1e-8


@pytest.mark.parametrize("h", [0.0, 1.7])
def test_single_site_receiver_has_no_bond_energy(h):
    # For n_s = 1 the receiver block is one site with no bond in it, so the
    # interaction energy is an exact 0.0 whatever the profile, on-site
    # defect included, where the switching energy is not zero.
    spec = ChainSpec(n_s=1, n_w=6, j0=0.05, h=h)
    grid = np.linspace(0.0, 5e4, 300)
    defect = defected_decomposition(spec)
    for dec in (decompose_chain(spec), defect):
        assert interaction_energy(spec, grid, dec).tobytes() == np.zeros(len(grid)).tobytes()
        assert interaction_energy(spec, 12.5, dec) == 0.0
    assert np.max(np.abs(switching_energy(spec, grid, defect))) > 1e-8


def test_bond_energies_match_direct_construction_with_defect():
    # With an on-site defect both energies are nonzero, so this pins which
    # bonds each one reads: the n_r - 1 receiver bonds for the interaction
    # energy, the two junction bonds for the switching energy.
    spec = ChainSpec(n_s=3, n_w=6, j0=0.1)
    profile = build_profile(spec)
    dec = defected_decomposition(spec)
    n = dec.n

    def bond_sum(rows, bonds):
        return sum(profile.hop[b] * float(np.sum(np.conj(rows[:, b]) * rows[:, b + 1]).real)
                   for b in bonds)

    for t in (13.4, 57.0, 120.0):
        phases = np.exp(-1j * dec.eigenvalues * t)
        rows = (dec.eigenvectors[:3, :] * phases) @ dec.eigenvectors.T
        e_int = bond_sum(rows, range(n - spec.n_r, n - 1))
        e_sw = bond_sum(rows, (spec.n_s - 1, spec.n_s + spec.n_w - 1))
        assert abs(e_int) > 1e-6 and abs(e_sw) > 1e-6
        assert interaction_energy(spec, t, dec) == pytest.approx(e_int, rel=1e-9, abs=1e-14)
        assert switching_energy(spec, t, dec) == pytest.approx(e_sw, rel=1e-9, abs=1e-14)


def test_total_energy_is_conserved_with_defect():
    # <H> built from the same amplitudes must be time-independent even on
    # a defected (non-mirror, non-bipartite) chain.
    spec = ChainSpec(n_s=2, n_w=5, j0=0.1)
    profile = build_profile(spec)
    onsite = profile.onsite.copy()
    onsite[-1] += 0.02
    dec = diagonalize(CouplingProfile(onsite=onsite, hop=profile.hop))

    def total_energy(t):
        phases = np.exp(-1j * dec.eigenvalues * t)
        rows = (dec.eigenvectors[:2, :] * phases) @ dec.eigenvectors.T
        dens = np.sum(np.abs(rows) ** 2, axis=0)
        e = float(np.dot(onsite, dens))
        for b in range(len(profile.hop)):
            overlap = np.sum(np.conj(rows[:, b]) * rows[:, b + 1])
            e += profile.hop[b] * float(overlap.real)
        return e

    e0 = total_energy(0.0)
    for t in (2.9, 13.4, 57.0):
        assert total_energy(t) == pytest.approx(e0, abs=1e-10)


def test_battery_report_structure_and_initial_state():
    spec = ChainSpec(n_s=2, n_w=8, j0=0.05, h=2.0)
    rep = battery_metrics(spec)
    n = len(rep.times)
    for arr in (rep.e_b, rep.e_onsite, rep.e_hop, rep.p_s, rep.delta_e_sw):
        assert len(arr) == n
    assert rep.e_b.tobytes() == (rep.e_onsite + rep.e_hop).tobytes()
    # Empty battery: stored energy is -n_B h / 2, power starts at 0.
    assert rep.times[0] == 0.0
    assert rep.e_b[0] == pytest.approx(-2.0, abs=1e-10)
    assert rep.p_s[0] == 0.0
    # Hopping and switching parts stay at the sublattice-protected zeros.
    assert np.max(np.abs(rep.e_hop)) < 1e-10
    assert np.max(np.abs(rep.delta_e_sw)) < 1e-10


def test_battery_extrema_are_consistent_with_their_grids():
    spec = ChainSpec(n_s=2, n_w=8, j0=0.05, h=2.0)
    rep = battery_metrics(spec)
    assert rep.e_bar == np.max(rep.e_b)
    assert rep.p_tilde == np.max(rep.p_s)
    k = int(np.argmax(rep.e_b))
    assert rep.tau_bar == rep.times[k]
    assert rep.p_bar == rep.p_s[k]
    assert rep.p_bar <= rep.p_tilde
    # Charging gain is bounded by flipping every battery site.
    assert rep.e_bar - rep.e_b[0] <= 2 * 2.0 + 1e-9


def test_battery_grid_matches_point_by_point_observables():
    # A non-uniform grid runs with span 1, each time its own anchor, chunk
    # by chunk: samples on both sides of each chunk boundary equal the
    # single-time observables, and a grid split off the chunk boundaries
    # gives the same bytes, half by half.  The observables read the
    # battery's own (mirror-sector) decomposition.
    spec = ChainSpec(n_s=2, n_w=6, j0=0.05, h=2.0)
    dec = decompose_chain(spec)
    width = spec.n_s ** 2 * (dec.n // 2)
    # three and a half chunks of a span-1 grid
    step = time_chunks(CHUNK_ELEMENTS, width)[0].stop
    grid = np.concatenate([[0.0], np.sort(np.random.default_rng(5).uniform(0.0, 4e4, 7 * step // 2))])
    cut = len(grid) // 2
    rep = battery_metrics(spec, grid)
    starts = [part.start for part in time_chunks(len(grid), width)]
    assert len(starts) > 2 and cut not in starts
    for k in {0, len(grid) - 1, *(b + d for b in starts[1:] for d in (-1, 0, 1))}:
        t = float(grid[k])
        e_onsite = spec.h * magnetization_receiver(spec, t, dec)
        assert rep.e_onsite[k] == pytest.approx(e_onsite, abs=1e-13)
        assert battery_metrics(spec, grid[k:k + 1]).e_b.tobytes() == rep.e_b[k:k + 1].tobytes()
        assert rep.e_hop[k] == 0.0 and rep.delta_e_sw[k] == 0.0
        assert abs(interaction_energy(spec, t, dec)) <= 1e-10
        assert abs(switching_energy(spec, t, dec)) <= 1e-10
    halves = [battery_metrics(spec, grid[:cut]), battery_metrics(spec, grid[cut:])]
    for name in ("e_b", "e_hop", "delta_e_sw"):
        split = np.concatenate([getattr(half, name) for half in halves])
        assert split.tobytes() == getattr(rep, name).tobytes(), name


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
def test_battery_onsite_energy_matches_the_fock_space_oracle(statistics):
    """The real-form battery energy against an independent derivation: the
    receiver occupations evolved in the full Fock sector, on every chain
    of at most 8 sites with n_s = 1..3, odd and even N."""
    times = np.array([0.0, 0.9, 7.3, 31.0, 120.5, 997.0])
    for n_s in (1, 2, 3):
        for n_w in range(1, 9 - 2 * n_s):
            spec = ChainSpec(n_s=n_s, n_w=n_w, j0=0.1, h=2.0, statistics=statistics)
            rep = battery_metrics(spec, times)
            occ = oracle_occupation(spec, times, np.array(spec.receiver_sites()))
            expected = spec.h * (np.sum(occ, axis=1) - spec.n_r / 2.0)
            assert np.max(np.abs(rep.e_onsite - expected)) <= 1e-10, (n_s, n_w)


def test_battery_real_form_matches_the_magnetization_on_a_long_grid():
    """The real form against the complex kernel of `magnetization_receiver`
    on a resonant odd-N chain over 20,000 times to t = 1.6e4, within the
    phase-error bound 2 n_s^2 N t eps h of the benchmark's reference."""
    spec = ChainSpec(n_s=3, n_w=23, j0=0.01, h=2.0)
    grid = np.linspace(0.0, 1.6e4, 20_000)
    rep = battery_metrics(spec, grid)
    expected = spec.h * magnetization_receiver(spec, grid, decompose_chain(spec))
    bound = 2.0 * spec.n_s ** 2 * spec.n_sites * grid * np.finfo(float).eps * spec.h
    assert np.all(np.abs(rep.e_onsite - expected) <= bound)


@pytest.mark.parametrize("h", [0.0, 2.0])
@pytest.mark.parametrize("n_s", [1, 2, 3, 4])
def test_battery_weight_holds_its_bound_on_long_uniform_grids(n_s, h):
    """The lattice of `_block_weight` on uniform grids out to t = 1.2e7,
    on odd and even N: its receiver magnetization against the complex
    kernel's `magnetization_receiver`, within the bound of `_block_weight`'s
    docstring (twice W(e), e being `propagator_grid`'s bound on the same
    block and grid, plus one rounding of each side's -n_r/2) and within the
    per-sample phase-error bound 2 n_s^2 N t eps of the benchmark's
    reference; `battery_metrics`' E_onsite within h times the latter."""
    eps = np.finfo(float).eps
    grids = (np.linspace(0.0, 1.2e7, 3_001), np.arange(1e7, 1e7 + 200.0, 2.0 * np.pi / 64))
    for n_w, grid in itertools.product((8 + n_s, 9 + n_s), grids):
        spec = ChainSpec(n_s=n_s, n_w=n_w, j0=0.01, h=h)
        dec = decompose_chain(spec)
        rows, cols = np.arange(n_s), np.arange(dec.n - n_s, dec.n)
        expected = magnetization_receiver(spec, grid, dec)
        distance = np.abs(_block_weight(dec, rows, cols, grid) - spec.n_r / 2.0 - expected)
        e = propagator_grid(dec, rows, cols, grid)[1]
        products = dec.eigenvectors[rows][:, None, :] * dec.eigenvectors[cols][None, :, :]
        s = np.max(np.sum(np.abs(products), axis=-1))
        entries = n_s * n_s
        gamma = (entries + 1) * eps / 2 / (1.0 - (entries + 1) * eps / 2)
        weight_bound = entries * e * (2.0 * s + e) + gamma * entries * (s + e) ** 2
        assert np.all(distance <= 2.0 * weight_bound + n_s * eps), (n_w, grid[-1])
        bound = 2.0 * n_s ** 2 * spec.n_sites * grid * eps
        assert np.all(distance <= bound), (n_w, grid[-1])
        if h:
            rep = battery_metrics(spec, grid)
            assert np.all(np.abs(rep.e_onsite - h * expected) <= bound * h), (n_w, grid[-1])


@pytest.mark.parametrize("h", [0.7, 2.0])
@pytest.mark.parametrize("n_s", [1, 2, 3, 4])
def test_battery_reports_sublattice_protected_energies_as_exact_zeros(n_s, h):
    """`battery_metrics` states the hop and switching energies of a
    `ChainSpec` chain as exact zeros, over grids of several time chunks;
    the public functions, which compute them for any decomposition, agree
    to 1e-10 on the chain's own decomposition."""
    spec = ChainSpec(n_s=n_s, n_w=8 + n_s, j0=0.01, h=h)
    grid = np.linspace(0.0, 5e4, 20_000)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "h=0.7 <= 1", UserWarning)
        rep = battery_metrics(spec, grid)
    zeros = np.zeros(len(grid)).tobytes()
    assert rep.e_hop.tobytes() == zeros
    assert rep.delta_e_sw.tobytes() == zeros
    assert rep.e_b.tobytes() == rep.e_onsite.tobytes()
    dec = decompose_chain(spec)
    assert np.max(np.abs(interaction_energy(spec, grid, dec))) <= 1e-10
    assert np.max(np.abs(switching_energy(spec, grid, dec))) <= 1e-10


@pytest.mark.parametrize("threads", ["1", "2"])
def test_battery_chunks_do_not_fault_their_scratch_back_in(threads):
    """A second identical 20,000-point `battery_metrics` call reuses
    `_lattice`'s scratch across its time chunks: its tracemalloc peak, which
    counts numpy's buffers byte for byte whatever the heap's history, stays
    within 8 (5T + C) bytes.  5T floats are the five T-float arrays the call
    returns; they also cover what else it holds at once: `_drift`'s
    temporaries (five T-float arrays, freed before the chunk loop), or in
    the loop the anchor-by-span sums (about T floats), the (2K, B) shift
    table and numpy's temporaries inside one chunk (about 2.7T floats in
    all on (3,32)).  C floats are one chunk's scratch: k anchors times
    K + 2K + 2KE + EB (angles, their cos and sin, the coefficient table,
    the values), with K = floor(N/2) positive levels, E = n_s n_r block
    entries and span B.  Scratch made per chunk keeps the values the
    caller still holds while the next chunk's are built, 8kEB bytes more:
    on (3,32) a peak of 1,517 KiB against 1,047 KiB and a bound of
    1,397 KiB.  Freed per chunk, it also let glibc trim the heap top and
    fault it back in, about 7,000 minor faults a call.  A fresh process per
    OpenBLAS thread count, whose own buffers tracemalloc does not see."""
    spec, n_times = ChainSpec(3, 32, 0.01, h=2.0), 20_000
    levels, entries = spec.n_sites // 2, spec.n_s * spec.n_r
    span = math.isqrt(n_times - 1) + 1
    n_anchors = -(-n_times // span)
    anchors = min(time_chunks(n_anchors, entries * levels)[0].stop, n_anchors)
    bound = 8 * (5 * n_times
                 + anchors * (3 * levels + 2 * levels * entries + entries * span))
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(path)}
    script = "\n".join([
        "import tracemalloc, numpy as np",
        "from ppxfer import ChainSpec, battery_metrics",
        f"spec, grid = ChainSpec(3, 32, 0.01, h=2.0), np.linspace(0, 1e4, {n_times})",
        "battery_metrics(spec, grid)",
        "tracemalloc.start()",
        "battery_metrics(spec, grid)",
        "print(tracemalloc.get_traced_memory()[1])",
    ])
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert int(child.stdout) <= bound


def test_lattice_chunks_hold_no_buffer_made_inside_the_loop(monkeypatch):
    """`_lattice` makes its scratch (angles, their cos and sin, the
    coefficient table, the values) once per call, before its chunk loop: at
    every chunk it yields to a multi-chunk `_block_weight` call, the memory
    still held from the loop's own lines is far below one chunk's
    coefficient table.  A table or values buffer made per chunk is held
    there, and its free at the next chunk lets glibc trim the heap top and
    fault it back in.  Per-line tracemalloc statistics see such a buffer
    whatever the heap's history; the whole-call peak of the fault test
    above does not see the table, because numpy's in-chunk temporaries
    peak above it."""
    source, first = inspect.getsourcelines(amplitudes._lattice)
    loop = next(k for k, line in enumerate(source) if line.strip() == "for part in parts:")
    loop_lines = range(first + loop, first + len(source))
    lattice = amplitudes._lattice
    held = []

    def watched(*args):
        for item in lattice(*args):
            stats = tracemalloc.take_snapshot().statistics("lineno")
            held.append(sum(stat.size for stat in stats
                            if stat.traceback[0].filename == lattice.__code__.co_filename
                            and stat.traceback[0].lineno in loop_lines))
            yield item

    monkeypatch.setattr(amplitudes, "_lattice", watched)
    spec, n_times = ChainSpec(3, 32, 0.01, h=2.0), 20_000
    dec = decompose_chain(spec)
    rows, cols = np.arange(spec.n_s), np.arange(spec.n_sites - spec.n_r, spec.n_sites)
    levels, entries = spec.n_sites // 2, spec.n_s * spec.n_r
    n_anchors = -(-n_times // (math.isqrt(n_times - 1) + 1))
    anchors = time_chunks(n_anchors, entries * levels)[0].stop
    table = 8 * anchors * entries * 2 * levels
    tracemalloc.start()
    try:
        _block_weight(dec, rows, cols, np.linspace(0.0, 1e4, n_times))
    finally:
        tracemalloc.stop()
    assert len(held) >= 3
    assert max(held) < table / 8, (held, table)


def test_battery_accepts_explicit_grid():
    spec = ChainSpec(n_s=1, n_w=4, j0=0.1, h=2.0)
    rep = battery_metrics(spec, t_grid=np.array([0.0, 1.0, 2.0]))
    assert list(rep.times) == [0.0, 1.0, 2.0]
    assert len(rep.e_b) == 3


def test_battery_warns_when_field_is_weak():
    spec = ChainSpec(n_s=1, n_w=2, j0=0.1, h=0.5)
    with pytest.warns(UserWarning, match="h="):
        battery_metrics(spec, t_grid=np.array([0.0, 1.0]))


@pytest.mark.parametrize("grid", [[0.0, 1.0, np.inf], [0.0, np.nan, 2.0], [0.0, 2.0, 1.0],
                                  [0.0, 1.0, 1.0], [[0.0, 1.0]], []],
                         ids=["inf", "nan", "unordered", "repeated", "2-d", "empty"])
def test_battery_rejects_bad_grids(grid):
    with pytest.raises(ValueError, match="time grid"):
        battery_metrics(ChainSpec(n_s=2, n_w=4, j0=0.01, h=2.0), grid)
