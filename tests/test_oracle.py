"""Tests for the brute-force sector-basis evolution used as ground truth."""

import math
import tracemalloc
from dataclasses import replace
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ppxfer import ChainSpec, find_transfer_peak
from ppxfer.chain import CouplingProfile, adjacency_matrix, build_profile
from ppxfer.cli import ORACLE_CASES, ORACLE_COUPLINGS, ORACLE_HORIZON, ORACLE_TIMES
from ppxfer.oracle import (
    DIM_CAP,
    SectorBasis,
    _basis,
    _edge_states,
    _hops,
    _sector_setup,
    build_sector_hamiltonian,
    enumerate_basis,
    oracle_occupation,
    oracle_transfer_prob,
)


def test_basis_dimensions():
    assert enumerate_basis(4, 2, "fermion").dim == 6
    assert enumerate_basis(4, 2, "boson").dim == 10
    assert enumerate_basis(3, 1, "fermion").dim == 3
    assert enumerate_basis(3, 1, "boson").dim == 3
    assert enumerate_basis(5, 5, "fermion").dim == 1


def test_basis_rejects_oversized_sector():
    with pytest.raises(ValueError, match="cap"):
        enumerate_basis(60, 4, "boson")


def test_sector_just_above_the_cap_is_refused_before_allocation():
    # One particle on DIM_CAP + 1 sites: dimension DIM_CAP + 1.  Its basis
    # alone would hold (DIM_CAP + 1)^2 occupation entries, and its dense
    # Hamiltonian (DIM_CAP + 1)^2 floats, so a refusal after either would
    # show in the allocation peak.
    n_sites = DIM_CAP + 1
    tracemalloc.start()
    try:
        for stats in ("fermion", "boson"):
            with pytest.raises(ValueError, match="cap"):
                enumerate_basis(n_sites, 1, stats)
            with pytest.raises(ValueError, match="cap"):
                oracle_transfer_prob(ChainSpec(1, n_sites - 2, 0.01, statistics=stats), 1.0)
        # four fermions on 38 sites: 73,815 states, a 43.6 GB dense matrix
        with pytest.raises(ValueError, match="cap"):
            oracle_transfer_prob(ChainSpec(4, 30, 0.01), 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_thousand_site_one_particle_sector_enumerates_without_recursion():
    n = 1000
    on_first, on_last = (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,)
    fermion = enumerate_basis(n, 1, "fermion")
    assert fermion.dim == n
    assert fermion.states[0] == on_first and fermion.states[-1] == on_last
    boson = enumerate_basis(n, 1, "boson")
    assert boson.dim == n
    assert boson.states[0] == on_last and boson.states[-1] == on_first


def test_basis_rejects_bad_inputs():
    with pytest.raises(ValueError, match="statistics"):
        enumerate_basis(3, 1, "anyon")


def test_basis_states_are_unique_and_indexed():
    basis = enumerate_basis(5, 2, "boson")
    assert len(set(basis.states)) == basis.dim
    for i, s in enumerate(basis.states):
        assert basis.index[s] == i
        assert sum(s) == 2


def test_occupation_accessor_both_statistics():
    fermion = enumerate_basis(4, 2, "fermion")
    state = fermion.states[0]  # first combination: sites 1 and 2 occupied
    assert [fermion.occupation_of(state, s) for s in (1, 2, 3, 4)] == [1, 1, 0, 0]
    boson = enumerate_basis(3, 2, "boson")
    assert boson.occupation_of((0, 2, 0), 2) == 2


def test_fully_filled_fermion_sector_is_trivial():
    # Two fermions on two sites: a single state whose energy is purely
    # on-site; the hop term is Pauli-blocked.
    basis = enumerate_basis(2, 2, "fermion")
    assert basis.dim == 1
    profile = CouplingProfile(onsite=np.array([0.4, 0.4]), hop=np.array([1.0]))
    ham = build_sector_hamiltonian(profile, basis)
    assert ham.shape == (1, 1)
    assert ham[0, 0] == pytest.approx(0.8)


def test_two_boson_two_site_hamiltonian_by_hand():
    # States in lexicographic order: (0,2), (1,1), (2,0).  Hops carry
    # (J/2)*sqrt(n*(m+1)) enhancement factors.
    basis = enumerate_basis(2, 2, "boson")
    assert basis.states == ((0, 2), (1, 1), (2, 0))
    profile = CouplingProfile(onsite=np.zeros(2), hop=np.array([1.0]))
    ham = build_sector_hamiltonian(profile, basis)
    s2 = np.sqrt(2.0) / 2.0
    expected = np.array([[0.0, s2, 0.0], [s2, 0.0, s2], [0.0, s2, 0.0]])
    assert np.allclose(ham, expected, atol=1e-15)


def test_single_particle_sector_reproduces_adjacency():
    spec = ChainSpec(n_s=1, n_w=1, j0=0.05, h=0.2)
    adj = adjacency_matrix(build_profile(spec))
    for stats in ("fermion", "boson"):
        basis = enumerate_basis(3, 1, stats)
        ham = build_sector_hamiltonian(build_profile(spec), basis)
        if stats == "fermion":
            # Combination order (1,0,0), (0,1,0), (0,0,1) matches site order 1, 2, 3.
            assert np.allclose(ham, adj, atol=1e-15)
        else:
            # Boson order (0,0,1), (0,1,0), (1,0,0) is site-reversed.
            assert np.allclose(ham[::-1, ::-1], adj, atol=1e-15)


def _profiles(n_sites):
    return st.builds(
        CouplingProfile,
        hop=st.lists(st.floats(-2.0, 2.0), min_size=n_sites - 1, max_size=n_sites - 1),
        onsite=st.lists(st.floats(-2.0, 2.0), min_size=n_sites, max_size=n_sites),
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(profile=st.integers(1, 7).flatmap(_profiles), n=st.integers(1, 3))
@example(profile=build_profile(ChainSpec(n_s=2, n_w=2, j0=0.1, h=0.15)), n=2)
def test_sector_spectrum_is_sum_of_single_particle_levels(profile, n):
    # Free particles: every sector level is a sum of n single-particle
    # levels, over distinct levels (fermions) or with repeats (bosons).
    # Off the uniform chain this checks the occupancy cap and the
    # sqrt(n_b (n_{b+1} + 1)) hop factors independently.
    single = np.linalg.eigvalsh(adjacency_matrix(profile))
    levels = range(profile.n_sites)
    for stats, pick in (("fermion", combinations), ("boson", combinations_with_replacement)):
        if stats == "fermion" and n > profile.n_sites:
            continue
        basis = enumerate_basis(profile.n_sites, n, stats)
        got = np.linalg.eigvalsh(build_sector_hamiltonian(profile, basis))
        expected = np.sort([sum(single[list(ks)]) for ks in pick(levels, n)])
        assert np.allclose(got, expected, atol=1e-9)


def loop_hamiltonian(profile, basis):
    """The sector Hamiltonian as the per-(state, bond) loop built it before
    the cached hop tables: the reference its bytes are pinned to."""
    n = profile.n_sites
    cap = 1 if basis.statistics == "fermion" else basis.n_particles  # per site
    half_hop = (profile.hop / 2.0).tolist()
    ham = np.zeros((basis.dim, basis.dim))
    for col, state in enumerate(basis.states):
        ham[col, col] = float(np.dot(profile.onsite, state))
        for bond in range(n - 1):
            here, there = state[bond], state[bond + 1]
            if here > 0 and there < cap:
                row = basis.index[state[:bond] + (here - 1, there + 1) + state[bond + 2:]]
                amp = half_hop[bond] * math.sqrt(here * (there + 1))
                ham[row, col] += amp
                ham[col, row] += amp
    return ham


def reference_profiles(n_sites):
    """h = 0, h = 0.7, an on-site defect, and signed zeros (a -0.0 energy
    dots to -0.0 on one site; a -0.0 hop lands as +0.0)."""
    hop = np.random.default_rng(n_sites).uniform(-2.0, 2.0, n_sites - 1)
    defect = np.full(n_sites, 0.7)
    defect[n_sites // 2] += 0.31
    signed = hop.copy()
    signed[::2] = -0.0
    return [CouplingProfile(hop=hop, onsite=np.zeros(n_sites)),
            CouplingProfile(hop=hop, onsite=np.full(n_sites, 0.7)),
            CouplingProfile(hop=hop, onsite=defect),
            CouplingProfile(hop=signed, onsite=np.full(n_sites, -0.0))]


def test_sector_hamiltonians_keep_the_loop_builders_bytes():
    # every sector with N <= 8 and n <= 3, both statistics: cold (the hop
    # list built by this call) and warm (taken from the cache)
    for n_sites, n, stats in product(range(1, 9), range(4), ("fermion", "boson")):
        if stats == "fermion" and n > n_sites:
            continue
        for profile in reference_profiles(n_sites):
            expected = loop_hamiltonian(profile, enumerate_basis(n_sites, n, stats)).tobytes()
            _hops.cache_clear()
            for _ in ("cold", "warm"):
                basis = enumerate_basis(n_sites, n, stats)
                got = build_sector_hamiltonian(profile, basis)
                assert got.tobytes() == expected, (n_sites, n, stats)
    assert _hops.cache_info().hits > 0


def test_cached_sector_structure_cannot_be_changed_through_what_it_returns():
    spec = ChainSpec(n_s=2, n_w=2, j0=0.1, h=0.7, statistics="boson")
    profile = build_profile(spec)
    expected = loop_hamiltonian(profile, enumerate_basis(6, 2, "boson")).tobytes()
    # a basis from enumerate_basis is the caller's own to change
    basis = enumerate_basis(6, 2, "boson")
    first, last = basis.states[0], basis.states[-1]
    basis.index[first], basis.index[last] = basis.index[last], basis.index[first]
    assert build_sector_hamiltonian(profile, basis).tobytes() == expected
    assert enumerate_basis(6, 2, "boson").index[first] == 0
    # the cached hop list and the basis `_sector_setup` hands out refuse writes
    shared = _basis(6, 2, "boson")
    assert _sector_setup(spec)[0] is shared
    with pytest.raises(TypeError):
        shared.index[first] = 1
    for array in _hops(shared.states, 2):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7
    assert build_sector_hamiltonian(profile, basis).tobytes() == expected
    # a basis in another order than enumerate_basis's gets its own hop list
    states = enumerate_basis(6, 2, "boson").states[::-1]
    mirrored = SectorBasis(6, 2, "boson", states, {s: i for i, s in enumerate(states)})
    assert (build_sector_hamiltonian(profile, mirrored).tobytes()
            == loop_hamiltonian(profile, mirrored).tobytes())


def test_sector_hamiltonian_refuses_unknown_statistics():
    # a hand-built basis with a misspelt statistics is not taken for bosons
    states = enumerate_basis(4, 2, "boson").states
    typo = SectorBasis(4, 2, "bosn", states, {s: i for i, s in enumerate(states)})
    profile = build_profile(ChainSpec(n_s=1, n_w=2, j0=0.1))
    with pytest.raises(ValueError, match="unknown statistics 'bosn'"):
        build_sector_hamiltonian(profile, typo)


def test_sector_hamiltonian_rejects_size_mismatch():
    spec = ChainSpec(n_s=1, n_w=2, j0=0.1)
    basis = enumerate_basis(3, 1, "fermion")
    with pytest.raises(ValueError):
        build_sector_hamiltonian(build_profile(spec), basis)


def test_transfer_probability_starts_at_zero():
    for stats in ("fermion", "boson"):
        spec = ChainSpec(n_s=2, n_w=2, j0=0.1, statistics=stats)
        assert oracle_transfer_prob(spec, 0.0) == pytest.approx(0.0, abs=1e-24)


def test_transfer_probability_stays_in_unit_interval():
    rng = np.random.default_rng(17)
    for stats in ("fermion", "boson"):
        spec = ChainSpec(n_s=2, n_w=3, j0=0.08, statistics=stats)
        for t in rng.uniform(0.0, 40.0, size=8):
            p = oracle_transfer_prob(spec, float(t))
            assert 0.0 <= p <= 1.0 + 1e-12


@pytest.mark.filterwarnings("ignore:j0=")
@pytest.mark.parametrize("statistics", ["fermion", "boson"])
@pytest.mark.parametrize("n_sites, n, j0", [
    (n_sites, n, j0) for n_sites, n in ORACLE_CASES for j0 in ORACLE_COUPLINGS])
def test_array_oracle_keeps_the_bits_of_single_times(n_sites, n, j0, statistics):
    spec = ChainSpec(n_s=n, n_w=n_sites - 2 * n, j0=j0, statistics=statistics)
    rng = np.random.default_rng(n_sites)
    times = np.concatenate([np.linspace(0.0, ORACLE_HORIZON, ORACLE_TIMES),
                            rng.uniform(0.0, 1e4, 16), [1e6]])
    p = oracle_transfer_prob(spec, times)
    assert p.shape == times.shape
    basis, energies, modes = _sector_setup(spec)
    i_send, i_recv = _edge_states(basis)
    for t, got in zip(times, p):
        alone = oracle_transfer_prob(spec, float(t))
        assert isinstance(alone, float)
        # the single-time expression written out, with the scalar abs and square
        amp = np.sum(modes[i_recv] * np.exp(-1j * energies * float(t)) * modes[i_send])
        assert float(got).hex() == alone.hex() == float(abs(amp) ** 2).hex()


def test_occupation_at_time_zero_marks_sender_block():
    spec = ChainSpec(n_s=2, n_w=3, j0=0.07)
    for site in range(1, 8):
        expected = 1.0 if site <= 2 else 0.0
        assert oracle_occupation(spec, 0.0, site) == pytest.approx(expected, abs=1e-12)


def test_occupation_sums_to_particle_number():
    for stats in ("fermion", "boson"):
        spec = ChainSpec(n_s=2, n_w=2, j0=0.1, h=0.4, statistics=stats)
        total = sum(oracle_occupation(spec, 3.3, s) for s in range(1, 7))
        assert total == pytest.approx(2.0, abs=1e-10)


def test_occupations_coincide_across_statistics_for_pure_hopping():
    # Site densities from one filled block agree between fermions and
    # bosons on a quadratic chain; only multi-site correlators differ.
    rng = np.random.default_rng(5)
    for t in rng.uniform(0.0, 25.0, size=4):
        for site in (1, 3, 6):
            f = oracle_occupation(
                ChainSpec(n_s=2, n_w=2, j0=0.1, statistics="fermion"), float(t), site
            )
            b = oracle_occupation(
                ChainSpec(n_s=2, n_w=2, j0=0.1, statistics="boson"), float(t), site
            )
            assert f == pytest.approx(b, abs=1e-10)


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
def test_site_array_occupation_keeps_the_bits_of_single_sites(statistics):
    spec = ChainSpec(n_s=2, n_w=3, j0=0.1, h=0.4, statistics=statistics)
    with pytest.raises(ValueError):
        oracle_occupation(spec, 1.0, np.array([1, 2, 8]))
    sites = np.array([7, 1, 3, 3, 6])
    for t in (0.0, 2.0, 913.7):
        values = oracle_occupation(spec, t, sites)
        assert values.shape == sites.shape
        for site, got in zip(sites, values):
            alone = oracle_occupation(spec, t, int(site))
            assert isinstance(alone, float)
            assert float(got).hex() == alone.hex()


def test_reported_peak_matches_the_fock_oracle():
    """The (2,41) peak that `find_transfer_peak` reports, each statistics at
    its own reported time, against the full Fock sector (990 fermion and
    1,035 boson states), within the benchmark's phase-error bound
    4 n_s N t eps: each eigenvalue's N eps shift, carried through the
    phase exp(-i w t) into the n_s x n_s block's probability."""
    spec = ChainSpec(n_s=2, n_w=41, j0=0.01)
    peak = find_transfer_peak(spec)
    eps = np.finfo(float).eps
    for statistics, t, p in (("fermion", peak.t_fermion, peak.p_fermion),
                             ("boson", peak.t_boson, peak.p_boson)):
        fock = oracle_transfer_prob(replace(spec, statistics=statistics), t)
        bound = 4 * spec.n_s * spec.n_sites * t * eps
        assert abs(p - fock) <= bound, (statistics, abs(p - fock), bound)
