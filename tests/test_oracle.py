"""Tests for the brute-force sector-basis evolution used as ground truth."""

from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from ppxfer import ChainSpec
from ppxfer.chain import CouplingProfile, adjacency_matrix, build_profile
from ppxfer.cli import ORACLE_CASES, ORACLE_COUPLINGS, ORACLE_HORIZON, ORACLE_TIMES
from ppxfer.oracle import (
    _edge_states,
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


def test_basis_rejects_bad_inputs():
    with pytest.raises(ValueError, match="n_particles must be in 0..3"):
        enumerate_basis(3, 4, "fermion")
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
    state = fermion.states[0]  # lowest bitmask: sites 1 and 2 occupied
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
            # Bitmask order 001, 010, 100 matches site order 1, 2, 3.
            assert np.allclose(ham, adj, atol=1e-15)
        else:
            # Boson order (0,0,1), (0,1,0), (1,0,0) is site-reversed.
            assert np.allclose(ham[::-1, ::-1], adj, atol=1e-15)


def test_sector_spectrum_is_sum_of_single_particle_levels():
    spec = ChainSpec(n_s=2, n_w=2, j0=0.1, h=0.15)
    single = np.linalg.eigvalsh(adjacency_matrix(build_profile(spec)))

    basis = enumerate_basis(6, 2, "fermion")
    ham = build_sector_hamiltonian(build_profile(spec), basis)
    got = np.linalg.eigvalsh(ham)
    expected = np.sort([single[a] + single[b] for a, b in combinations(range(6), 2)])
    assert np.allclose(got, expected, atol=1e-9)

    basis = enumerate_basis(6, 2, "boson")
    ham = build_sector_hamiltonian(build_profile(spec), basis)
    got = np.linalg.eigvalsh(ham)
    expected = np.sort(
        [single[a] + single[b] for a, b in combinations_with_replacement(range(6), 2)]
    )
    assert np.allclose(got, expected, atol=1e-9)


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


def test_occupation_rejects_out_of_range_site():
    spec = ChainSpec(n_s=1, n_w=1, j0=0.1)
    with pytest.raises(ValueError):
        oracle_occupation(spec, 1.0, 0)
    with pytest.raises(ValueError):
        oracle_occupation(spec, 1.0, 4)


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
