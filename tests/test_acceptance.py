"""End-to-end acceptance gate.

One test per shipped guarantee, each at its stated tolerance, so a -v run
prints one pass/fail line per guarantee.  Shared expensive computations
(the three-excitation peak search and the battery run) live in module
fixtures.  Checks 1-7 and 9-12 pass; check 8 holds for single excitations
but fails for larger blocks, where the transfer time is set by a splitting
that depends on the wire length only through its residue class (see
README, "Known deviations").
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from ppxfer.amplitudes import (
    SubmatrixEvaluator,
    boson_prob,
    fermion_prob,
    find_transfer_peak,
    propagator_block,
    scan_max_probability,
)
from ppxfer.chain import ChainSpec
from ppxfer.observables import (
    battery_metrics,
    magnetization_receiver,
    occupation,
    occupation_profile,
)
from ppxfer.oracle import oracle_occupation, oracle_transfer_prob
from ppxfer.perturbation import (
    envelope,
    predict_transfer_time,
    ratio_diagnostics,
    splitting_scaling,
)
from ppxfer.resonance import resonance_count, resonant_pairs
from ppxfer.spectral import decompose_chain

# Fock-oracle instances: (n_s, n_w) with N = 2*n_s + n_w in {6, 7, 8}.
ORACLE_GEOMETRIES = [(2, 2), (2, 3), (3, 2)]
ORACLE_COUPLINGS = [1.0, 0.1]

RESONANCE_TABLE = {
    1: (0, 1),
    2: (0, 0, 2),
    3: (0, 1, 0, 3),
    4: (0, 0, 0, 0, 4),
}

# One resonance-free and one fully/partially resonant wire length per block
# size, for the splitting-exponent fits.
EXPONENT_REPRESENTATIVES = [
    (1, 10), (1, 11),
    (2, 9), (2, 11),
    (3, 13), (3, 15),
    (4, 12), (4, 14),
]

_scaling_elapsed: dict[int, float] = {}


def _quiet_spec(**kwargs) -> ChainSpec:
    """ChainSpec without the strong-coupling warning (oracle sizes use j0=1)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return ChainSpec(**kwargs)


@pytest.fixture(scope="module")
def three_excitation_peak():
    spec = ChainSpec(n_s=3, n_w=41, j0=0.01)
    return spec, find_transfer_peak(spec)


@pytest.fixture(scope="module")
def battery_run():
    spec = ChainSpec(n_s=4, n_w=32, j0=0.01, h=2.0)
    return spec, battery_metrics(spec)


def test_acceptance_01_oracle_equivalence():
    """det/perm probabilities match full Fock evolution to 1e-10, under 30 s."""
    start = time.perf_counter()
    times = np.linspace(0.0, 50.0, 5)
    for n_s, n_w in ORACLE_GEOMETRIES:
        for j0 in ORACLE_COUPLINGS:
            dec = decompose_chain(_quiet_spec(n_s=n_s, n_w=n_w, j0=j0))
            for statistics in ("fermion", "boson"):
                spec = _quiet_spec(n_s=n_s, n_w=n_w, j0=j0, statistics=statistics)
                for t in times:
                    sub = SubmatrixEvaluator(dec, n_s).submatrix(t)
                    p = fermion_prob(sub) if statistics == "fermion" else boson_prob(sub)
                    reference = oracle_transfer_prob(spec, t)
                    assert abs(p - reference) < 1e-10, (
                        f"(n_s={n_s}, n_w={n_w}, j0={j0}, {statistics}, t={t}): "
                        f"{p} vs oracle {reference}"
                    )
    assert time.perf_counter() - start < 30.0


def test_acceptance_02_resonance_table():
    """Counts per residue class match the tabulated values, invariant in l."""
    start = time.perf_counter()
    for n_s, counts in RESONANCE_TABLE.items():
        for p, expected in enumerate(counts):
            assert resonance_count(n_s, p) == expected
            for l in range(6):
                n_w = (n_s + 1) * l + p
                if n_w < 1:
                    continue
                assert len(resonant_pairs(n_s, n_w)) == expected, (
                    f"n_s={n_s}, n_w={n_w} (residue {p})"
                )
    assert time.perf_counter() - start < 1.0


def test_acceptance_03_two_excitation_peak():
    """n_s=2, n_w=41: both statistics reach 0.99; peak times agree."""
    start = time.perf_counter()
    report = find_transfer_peak(ChainSpec(n_s=2, n_w=41, j0=0.01))
    assert report.p_fermion >= 0.99, f"fermion peak {report.p_fermion}"
    assert report.p_boson >= 0.99, f"boson peak {report.p_boson}"
    assert abs(report.t_fermion - report.t_boson) <= report.coarse_step, (
        f"peak times {report.t_fermion} vs {report.t_boson} differ by more "
        f"than one coarse step {report.coarse_step}"
    )
    assert time.perf_counter() - start < 10.0


def test_acceptance_04_three_excitation_peak_and_envelope(three_excitation_peak):
    """n_s=3, n_w=41: 0.99 peaks at the predicted time; envelope bounds the curve."""
    spec, report = three_excitation_peak
    assert report.p_fermion >= 0.99, f"fermion peak {report.p_fermion}"
    assert report.p_boson >= 0.99, f"boson peak {report.p_boson}"
    tau = predict_transfer_time(spec)
    deviation = abs(report.t_fermion - tau) / tau
    assert deviation <= 0.05, (
        f"argmax {report.t_fermion} deviates {deviation:.3f} from tau={tau}"
    )
    p = report.curve.p_fermion
    t = report.curve.times
    interior = np.nonzero((p[1:-1] >= p[:-2]) & (p[1:-1] >= p[2:]))[0] + 1
    assert len(interior) > 0
    env = envelope(spec, t[interior], decompose_chain(spec))
    worst = float(np.min(env - p[interior]))
    assert worst >= -0.05, f"envelope undershoots a curve peak by {-worst}"


def test_acceptance_05_infeasible_classes_stay_below_ceiling():
    """n_s=3 with n_w in {40, 42, 43}: no sampled probability reaches 0.9."""
    for n_w in (40, 42, 43):
        spec = ChainSpec(n_s=3, n_w=n_w, j0=0.01)
        _, best_fermion, curve = scan_max_probability(spec, decompose_chain(spec))
        best = max(best_fermion, float(np.max(curve.p_boson)))
        assert best < 0.9, f"n_w={n_w}: reached {best} over [0, {curve.times[-1]}]"


def test_acceptance_06_splitting_ratio_limits():
    """Top-to-second splitting ratios sit at their class limits, both couplings."""
    cases = [
        (3, 40, 0.50), (3, 42, 0.50), (3, 43, 0.50),
        (4, 41, 0.14), (4, 42, 0.14),
        (4, 40, 0.38), (4, 43, 0.38), (4, 44, 0.38),
    ]
    for n_s, n_w, limit in cases:
        estimates = ratio_diagnostics(ChainSpec(n_s=n_s, n_w=n_w, j0=0.01))
        assert len(estimates) == 1
        est = estimates[0]
        assert abs(est.value - limit) <= 0.02, (
            f"(n_s={n_s}, n_w={n_w}): ratio {est.value} not within 0.02 of {limit}"
        )
        assert abs(est.value_coarse - limit) <= 0.02, (
            f"(n_s={n_s}, n_w={n_w}): coarse ratio {est.value_coarse} "
            f"not within 0.02 of {limit}"
        )


def test_acceptance_07_splitting_exponents():
    """delta scales as J0 for resonant modes and J0^2 for the rest."""
    j0_list = [1e-3, 3e-3, 1e-2]
    for n_s, n_w in EXPONENT_REPRESENTATIVES:
        resonant_modes = {k for k, _ in resonant_pairs(n_s, n_w)}
        slopes = splitting_scaling(ChainSpec(n_s=n_s, n_w=n_w, j0=0.01), j0_list)
        assert set(slopes) == set(range(1, n_s + 1))
        for mode, slope in slopes.items():
            expected = 1.0 if mode in resonant_modes else 2.0
            assert abs(slope - expected) <= 0.05, (
                f"(n_s={n_s}, n_w={n_w}) mode {mode}: exponent {slope:.4f}, "
                f"expected {expected}"
            )


@pytest.mark.parametrize("n_s", [1, 2, 3, 4])
def test_acceptance_08_transfer_time_scaling(n_s):
    """tau vs n_w over n_w = 20l+1: exponent 0.5 (n_s=1) or 1.0 (n_s=2..4)."""
    start = time.perf_counter()
    lengths = [20 * l + 1 for l in range(1, 6)]
    taus = [
        find_transfer_peak(ChainSpec(n_s=n_s, n_w=n_w, j0=0.01)).t_fermion
        for n_w in lengths
    ]
    _scaling_elapsed[n_s] = time.perf_counter() - start
    if len(_scaling_elapsed) == 4:
        total = sum(_scaling_elapsed.values())
        assert total < 300.0, f"scaling sweeps took {total:.1f} s"
    exponent = float(np.polyfit(np.log(lengths), np.log(taus), 1)[0])
    expected = 0.5 if n_s == 1 else 1.0
    assert abs(exponent - expected) <= 0.1, (
        f"n_s={n_s}: fitted exponent {exponent:.4f}, expected {expected} +/- 0.1 "
        f"(tau = {[f'{x:.1f}' for x in taus]})"
    )


def test_acceptance_09_receiver_magnetization(three_excitation_peak):
    """Receiver magnetization saturates at the peak; Frobenius identity holds."""
    spec, report = three_excitation_peak
    dec = decompose_chain(spec)
    mag = magnetization_receiver(spec, report.t_fermion, dec)
    floor = spec.n_r / 2.0 - 0.02
    assert mag >= floor, f"magnetization {mag} below {floor}"
    rng = np.random.default_rng(20260819)
    receiver = list(spec.receiver_sites())
    for t in rng.uniform(0.0, report.horizon, size=100):
        frob = magnetization_receiver(spec, t, dec) + spec.n_r / 2.0
        occ = occupation_profile(spec, t, dec)
        total = float(np.sum(occ[[site - 1 for site in receiver]]))
        assert abs(frob - total) <= 1e-12, f"t={t}: {frob} vs {total}"


def test_acceptance_10_battery_charging(battery_run):
    """n_B=4 battery charges to capacity with protected zero-cost switching."""
    spec, report = battery_run
    capacity_floor = spec.n_r * spec.h / 2.0 - 0.05 * spec.h
    assert report.e_bar >= capacity_floor, (
        f"E_bar {report.e_bar} below {capacity_floor}"
    )
    worst_hop = float(np.max(np.abs(report.e_hop)))
    assert worst_hop < 1e-10, f"|E_hop| reaches {worst_hop}"
    worst_switch = float(np.max(np.abs(report.delta_e_sw)))
    assert worst_switch < 1e-10, f"|dE_sw| reaches {worst_switch}"
    assert report.tau_tilde < report.tau_bar, (
        f"tau_tilde {report.tau_tilde} >= tau_bar {report.tau_bar}"
    )


def test_acceptance_11_structural_invariants():
    """Unitarity, symmetry, parity-reality and probability bounds, 1000 draws."""
    rng = np.random.default_rng(727)
    pairs = 0
    for spec_index in range(25):
        n_s = int(rng.integers(1, 4))
        n_w = int(rng.integers(1, 9))
        j0 = float(rng.uniform(0.005, 0.1))
        h = 0.0 if spec_index % 2 == 0 else 0.6
        spec = ChainSpec(n_s=n_s, n_w=n_w, j0=j0, h=h)
        dec = decompose_chain(spec)
        n = dec.n
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        even = (ii + jj) % 2 == 0
        for t in rng.uniform(0.0, 150.0, size=40):
            f = propagator_block(dec, np.arange(n), np.arange(n), [t])[0]
            assert np.max(np.abs(f @ f.conj().T - np.eye(n))) < 1e-10
            assert np.max(np.abs(f - f.T)) <= 1e-12
            assert np.max(np.abs(f - f[::-1, ::-1])) <= 1e-12
            if h == 0.0:
                leak = np.where(even, np.abs(f.imag), np.abs(f.real))
                assert np.max(leak) < 1e-10
            sub = SubmatrixEvaluator(dec, n_s).submatrix(t)
            for p in (fermion_prob(sub), boson_prob(sub)):
                assert 0.0 <= p <= 1.0 + 1e-9
            pairs += 1
    assert pairs == 1000


def test_acceptance_12_occupation_statistics_independence():
    """Amplitude-based occupations match both Fock oracles to 1e-10."""
    times = [0.0, 17.3, 41.9]
    for n_s, n_w in ORACLE_GEOMETRIES:
        for j0 in ORACLE_COUPLINGS:
            base = _quiet_spec(n_s=n_s, n_w=n_w, j0=j0)
            dec = decompose_chain(base)
            for t in times:
                for site in range(1, base.n_sites + 1):
                    value = occupation(base, t, site, dec)
                    for statistics in ("fermion", "boson"):
                        spec = _quiet_spec(
                            n_s=n_s, n_w=n_w, j0=j0, statistics=statistics
                        )
                        reference = oracle_occupation(spec, t, site)
                        assert abs(value - reference) < 1e-10, (
                            f"(n_s={n_s}, n_w={n_w}, j0={j0}, {statistics}, "
                            f"t={t}, site={site}): {value} vs {reference}"
                        )
