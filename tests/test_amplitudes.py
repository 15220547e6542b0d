"""Tests for time-evolution amplitudes, many-body probabilities, and peak search."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppxfer import (
    ChainSpec,
    CouplingProfile,
    NumericalConsistencyError,
    SubmatrixEvaluator,
    find_transfer_peak,
    perturbation_report,
    scan_max_probability,
    scan_transfer,
)
from ppxfer import amplitudes
from ppxfer.amplitudes import (
    CHUNK_ELEMENTS,
    GOLDEN_ITERS,
    LATTICE_DRIFT,
    NON_PP_HORIZON_FACTOR,
    PEAK_POINTS_PER_PERIOD,
    PEAK_WINDOW_PERIODS,
    UNIT_ROUNDOFF,
    _block_weight,
    _certified_argmax,
    _checked_prob,
    _golden_max,
    _probability_slack,
    _window_max,
    boson_prob,
    fermion_prob,
    plan_scan_grid,
    propagator_block,
    propagator_grid,
    scan_scales,
    single_particle_bound,
    time_chunks,
)
from ppxfer.chain import build_profile
from ppxfer.observables import interaction_energy, switching_energy
from ppxfer.spectral import decompose_chain, diagonalize


def two_site_decomposition():
    # Single bond at coupling 1: H = [[0, 1/2], [1/2, 0]].
    return diagonalize(CouplingProfile(hop=[1.0], onsite=[0.0, 0.0]))


def three_site_decomposition():
    return diagonalize(CouplingProfile(hop=[1.0, 1.0], onsite=[0.0, 0.0, 0.0]))


def full_propagator(dec, t):
    """F(t) on every site pair: entry [i-1, j-1] = f_i^j(t)."""
    sites = np.arange(dec.n)
    return propagator_block(dec, sites, sites, [t])[0]


def test_amplitude_matrix_is_identity_at_time_zero():
    dec = decompose_chain(ChainSpec(n_s=2, n_w=3, j0=0.05))
    f = full_propagator(dec, 0.0)
    assert np.allclose(f, np.eye(7), atol=1e-14)


def test_two_site_amplitudes_match_closed_form():
    # exp(-itH) on one bond: f_1^1 = cos(t/2), f_1^2 = -i sin(t/2).
    dec = two_site_decomposition()
    for t in (0.0, 0.3, 1.7, 4.0, 11.5):
        f = full_propagator(dec, t)
        assert f[0, 0] == pytest.approx(np.cos(t / 2), abs=1e-12)
        assert f[0, 1] == pytest.approx(-1j * np.sin(t / 2), abs=1e-12)


def test_three_site_end_to_end_amplitude_matches_closed_form():
    # Uniform 3-site chain: f_1^3(t) = (cos(t/sqrt(2)) - 1)/2.
    dec = three_site_decomposition()
    for t in (0.0, 0.9, 2.2, 6.0, 17.3):
        expected = (np.cos(t / np.sqrt(2)) - 1.0) / 2.0
        assert propagator_block(dec, [0], [2], [t])[0, 0, 0] == pytest.approx(expected, abs=1e-12)


def test_amplitude_matrix_rows_have_unit_norm():
    dec = decompose_chain(ChainSpec(n_s=3, n_w=5, j0=0.02))
    f = full_propagator(dec, 3.7)
    norms = np.sum(np.abs(f) ** 2, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_amplitude_matrix_is_unitary_on_larger_chain():
    dec = decompose_chain(ChainSpec(n_s=4, n_w=12, j0=0.03))
    f = full_propagator(dec, 9.1)
    assert np.max(np.abs(f @ f.conj().T - np.eye(20))) < 1e-12


def test_structural_invariants_over_random_configurations():
    # Unitarity, symmetry, centrosymmetry, and the h = 0 reality pattern:
    # entries with even 1-based index sum are real, odd ones imaginary.
    rng = np.random.default_rng(21)
    for _ in range(25):
        n_s = int(rng.integers(1, 4))
        n_w = int(rng.integers(1, 10))
        j0 = float(rng.uniform(0.005, 0.1))
        spec = ChainSpec(n_s=n_s, n_w=n_w, j0=j0)
        t = float(rng.uniform(0.0, 50.0))
        f = full_propagator(decompose_chain(spec), t)
        n = len(f)
        assert np.max(np.abs(f @ f.conj().T - np.eye(n))) < 1e-11
        assert np.max(np.abs(f - f.T)) < 1e-12
        assert np.max(np.abs(f - f[::-1, ::-1])) < 1e-12
        i_idx, j_idx = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")
        even = (i_idx + j_idx) % 2 == 0
        assert np.max(np.abs(f.imag[even])) < 1e-12
        assert np.max(np.abs(f.real[~even])) < 1e-12


def test_uniform_field_is_a_global_phase():
    spec0 = ChainSpec(n_s=2, n_w=4, j0=0.05, h=0.0)
    spec1 = ChainSpec(n_s=2, n_w=4, j0=0.05, h=0.8)
    for t in (0.7, 2.9, 13.4):
        f0 = full_propagator(decompose_chain(spec0), t)
        f1 = full_propagator(decompose_chain(spec1), t)
        assert np.max(np.abs(f1 - np.exp(-1j * 0.8 * t) * f0)) < 1e-12


def test_sr_submatrix_reverses_receiver_columns():
    spec = ChainSpec(n_s=2, n_w=3, j0=0.05)
    dec = decompose_chain(spec)
    f = full_propagator(dec, 2.1)
    sub = SubmatrixEvaluator(dec, 2).submatrix(2.1)
    n = dec.n
    for a in range(1, 3):
        for b in range(1, 3):
            assert sub[a - 1, b - 1] == pytest.approx(f[a - 1, n - b], abs=1e-15)


def test_sr_submatrix_is_symmetric_for_mirror_chains():
    # f_a^{N+1-b} = f_b^{N+1-a} under mirror symmetry, so this layout is
    # symmetric and mirror-site amplitudes sit on the diagonal.
    spec = ChainSpec(n_s=3, n_w=7, j0=0.02)
    sub = SubmatrixEvaluator(decompose_chain(spec), 3).submatrix(5.3)
    assert np.max(np.abs(sub - sub.T)) < 1e-12


def test_sr_submatrix_vanishes_at_time_zero():
    spec = ChainSpec(n_s=2, n_w=2, j0=0.1)
    sub = SubmatrixEvaluator(decompose_chain(spec), 2).submatrix(0.0)
    assert np.max(np.abs(sub)) < 1e-14


def test_submatrix_evaluator_matches_direct_construction():
    # reference: a slice of F on every site pair, V diag(exp(-i w t)) V^T
    # from the full eigenvalues, receiver columns in reverse order
    spec = ChainSpec(n_s=3, n_w=6, j0=0.04)
    dec = decompose_chain(spec)
    ev = SubmatrixEvaluator(dec, 3)
    v = dec.eigenvectors
    for t in (0.4, 3.3, 21.0):
        f = v @ np.diag(np.exp(-1j * dec.eigenvalues * t)) @ v.T
        direct = f[:3, dec.n - 3:][:, ::-1]
        assert np.max(np.abs(ev.submatrix(t) - direct)) < 1e-14


def test_submatrix_norm_is_conserved_probability():
    # The Frobenius norm squared of the block never exceeds n_s.
    rng = np.random.default_rng(33)
    spec = ChainSpec(n_s=3, n_w=8, j0=0.06)
    ev = SubmatrixEvaluator(decompose_chain(spec), 3)
    for _ in range(40):
        t = float(rng.uniform(0.0, 200.0))
        assert np.sum(np.abs(ev.submatrix(t)) ** 2) <= 3.0 + 1e-12


def test_fermion_prob_identity_and_zero():
    assert fermion_prob(np.eye(3, dtype=complex)) == pytest.approx(1.0)
    assert fermion_prob(np.zeros((2, 2), dtype=complex)) == 0.0


def test_fermion_prob_two_by_two_closed_form():
    a, b = 0.3 + 0.4j, 0.1 - 0.2j
    sub = np.array([[a, b], [b, a]])
    assert fermion_prob(sub) == pytest.approx(abs(a * a - b * b) ** 2, rel=1e-12)


def test_fermion_prob_matches_library_determinant():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m *= 0.3
        expected = abs(np.linalg.det(m)) ** 2
        assert fermion_prob(m) == pytest.approx(expected, rel=1e-10, abs=1e-14)


def test_fermion_prob_singular_matrix_is_zero():
    row = np.array([0.2 + 0.1j, 0.5 - 0.3j])
    sub = np.vstack([row, row])
    assert fermion_prob(sub) == 0.0


def test_fermion_prob_rejects_non_square_and_oversized():
    with pytest.raises(ValueError):
        fermion_prob(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        fermion_prob(np.zeros((65, 65)))
    for empty in (np.zeros((0, 0)), np.zeros((3, 0, 0))):
        with pytest.raises(ValueError, match="needs a non-empty block"):
            fermion_prob(empty)


def test_boson_prob_small_closed_forms():
    assert boson_prob(np.ones((3, 3), dtype=complex)) == pytest.approx(36.0, rel=1e-12)
    a, b = 0.3 + 0.4j, 0.1 - 0.2j
    sub = np.array([[a, b], [b, a]])
    assert boson_prob(sub) == pytest.approx(abs(a * a + b * b) ** 2, rel=1e-12)
    z = 0.6 - 0.7j
    assert boson_prob(np.array([[z]])) == pytest.approx(abs(z) ** 2, rel=1e-12)


def brute_force_permanent(m):
    n = len(m)
    total = 0.0 + 0.0j
    for sigma in itertools.permutations(range(n)):
        term = 1.0 + 0.0j
        for i, j in enumerate(sigma):
            term *= m[i, j]
        total += term
    return total


def test_boson_prob_matches_brute_force_permanent():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 4, 5):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m *= 0.4
        expected = abs(brute_force_permanent(m)) ** 2
        assert boson_prob(m) == pytest.approx(expected, rel=1e-10, abs=1e-14)


def brute_force_determinant(m):
    n = len(m)
    total = 0.0 + 0.0j
    for sigma in itertools.permutations(range(n)):
        inversions = sum(sigma[a] > sigma[b] for a in range(n) for b in range(a + 1, n))
        term = -1.0 if inversions % 2 else 1.0
        for i, j in enumerate(sigma):
            term *= m[i, j]
        total += term
    return total


def test_stacked_probabilities_match_brute_force_and_single_blocks():
    # Stacks mix blocks that need row swaps (a zero leading entry), exactly
    # singular blocks (a zero row, two equal columns) and regular ones; each
    # entry must equal the brute-force value and, bitwise, the same block
    # evaluated on its own.
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4, 5):
        stack = 0.4 * (rng.normal(size=(24, n, n)) + 1j * rng.normal(size=(24, n, n)))
        stack[::3, 0, 0] = 0.0
        stack[1::6, n - 1, :] = 0.0  # elimination meets an exactly zero pivot
        if n > 1:
            stack[2::6, :, 1] = stack[2::6, :, 0]
        p_f = fermion_prob(stack)
        p_b = boson_prob(stack)
        assert p_f.shape == p_b.shape == (24,)
        for k, m in enumerate(stack):
            assert p_f[k] == pytest.approx(abs(brute_force_determinant(m)) ** 2,
                                           rel=1e-10, abs=1e-14)
            assert p_b[k] == pytest.approx(abs(brute_force_permanent(m)) ** 2,
                                           rel=1e-10, abs=1e-14)
            assert p_f[k] == fermion_prob(m)
            assert p_b[k] == boson_prob(m)
        assert np.all(p_f[1::6] == 0.0)
        if n > 1:
            assert np.all(p_f[2::6] < 1e-28)


def test_boson_prob_rejects_non_square_and_oversized():
    with pytest.raises(ValueError):
        boson_prob(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        boson_prob(np.zeros((13, 13)))
    for empty in (np.zeros((0, 0)), np.zeros((3, 0, 0))):
        with pytest.raises(ValueError, match="needs a non-empty block"):
            boson_prob(empty)


def test_checked_prob_clamps_roundoff_and_flags_blowups():
    assert _checked_prob(1.0 + 1e-10) == 1.0
    assert _checked_prob(-5e-10) == 0.0
    assert _checked_prob(0.5) == 0.5
    with pytest.raises(NumericalConsistencyError):
        _checked_prob(1.0 + 1e-8)
    with pytest.raises(NumericalConsistencyError):
        _checked_prob(-1e-8)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericalConsistencyError):
            _checked_prob(bad)
        with pytest.raises(NumericalConsistencyError):
            _checked_prob(np.array([0.5, bad, 0.25]))
    clamped = _checked_prob(np.array([1.0 + 1e-10, -5e-10, 0.5]))
    assert clamped.tolist() == [1.0, 0.0, 0.5]


def direct_block(dec, rows, cols, t):
    # V diag(exp(-i w t)) V^T from the full eigenvalues, one time at a time
    f = dec.eigenvectors @ np.diag(np.exp(-1j * dec.eigenvalues * t)) @ dec.eigenvectors.T
    return f[np.ix_(rows, cols)]


@pytest.mark.parametrize("h", [0.0, 1.7])
def test_propagator_block_matches_direct_construction(h):
    # Random chains, times up to 1e6, and grids one short of, equal to and
    # one past a chunk, so both a partial and a full last chunk are covered.
    rng = np.random.default_rng(29)
    for _ in range(3):
        spec = ChainSpec(n_s=int(rng.integers(1, 4)), n_w=int(rng.integers(2, 12)),
                         j0=float(rng.uniform(0.01, 0.1)), h=h)
        dec = decompose_chain(spec)
        rows = np.arange(spec.n_s)
        cols = rng.permutation(dec.n)[:5]
        chunk = CHUNK_ELEMENTS // (len(rows) * dec.n)
        # the direct route folds h into each level, so its phases carry a
        # rounding error of ~eps * (1 + |h|) * t per level
        tol = 8 * dec.n * np.finfo(float).eps * (1.0 + h) * 1e6
        for length in (chunk - 1, chunk, chunk + 1):
            times = np.sort(rng.uniform(0.0, 1e6, length))
            block = propagator_block(dec, rows, cols, times)
            assert block.shape == (length, len(rows), len(cols))
            for k in (0, chunk - 2, length - 1):
                assert np.max(np.abs(block[k] - direct_block(dec, rows, cols, times[k]))) < tol


def sender_receiver_weight(dec, n_s, times):
    return _block_weight(dec, np.arange(n_s), np.arange(dec.n - n_s, dec.n), times)


@pytest.mark.parametrize("h", [0.0, 2.0])
def test_block_weight_matches_the_complex_kernel(h):
    # The real form against sum |F_ab|^2 of `propagator_block` on odd and
    # even N, on the sender-receiver block and on scattered sites (both
    # parity classes; for n_s = 1 the block has one class only), on a
    # uniform grid (the lattice) and a non-uniform one (span 1).  On the
    # non-uniform grid each time has its bits alone and in a shifted grid,
    # also the lone time that ends the grid's last chunk.
    rng = np.random.default_rng(47)
    eps = np.finfo(float).eps
    for n_s, n_w in itertools.product([1, 2, 3, 4], [6, 7]):
        spec = ChainSpec(n_s=n_s, n_w=n_w, j0=0.05, h=h)
        dec = decompose_chain(spec)
        # one anchor per chunk more than the first chunk of a span-1 grid
        chunk = time_chunks(CHUNK_ELEMENTS, n_s * n_s * (dec.n // 2))[0].stop
        uniform = np.linspace(0.0, 2e4, chunk + 1)
        scattered = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2e4, chunk))])
        senders, receivers = np.arange(n_s), np.arange(dec.n - n_s, dec.n)
        for times, (rows, cols) in itertools.product(
                (uniform, scattered),
                ((senders, receivers), (rng.permutation(dec.n)[:3], rng.permutation(dec.n)[:4]))):
            weight = _block_weight(dec, rows, cols, times)
            exact = np.sum(np.abs(propagator_block(dec, rows, cols, times)) ** 2, axis=(1, 2))
            tol = 2 * len(rows) * len(cols) * dec.n * eps * (times + 1.0)
            assert np.all(np.abs(weight - exact) <= tol), (n_s, n_w)
        weight = sender_receiver_weight(dec, n_s, scattered)
        for k in (0, 1, chunk - 1, chunk):
            alone = sender_receiver_weight(dec, n_s, scattered[k:k + 1])
            assert alone.tobytes() == weight[k:k + 1].tobytes(), (n_s, n_w, k)
        shifted = sender_receiver_weight(dec, n_s, scattered[1:])
        assert shifted.tobytes() == weight[1:].tobytes(), (n_s, n_w)


def test_block_weight_takes_only_uniform_grids_onto_the_lattice(monkeypatch):
    # `_block_weight` runs a grid on the lattice (span ceil(sqrt(T))) when
    # its drift D is within LATTICE_DRIFT u max|t|, and any other with
    # span 1: linspace and arange grids from 0 and an offset linspace are
    # uniform, a sorted random grid and one time moved by 1e-9 of the
    # range are not.  A grid of one time is uniform, with span 1.
    spans = []
    lattice = amplitudes._lattice

    def recorded(dec, rows, cols, times, span, step):
        spans.append(span)
        return lattice(dec, rows, cols, times, span, step)

    monkeypatch.setattr(amplitudes, "_lattice", recorded)
    dec = decompose_chain(ChainSpec(n_s=2, n_w=9, j0=0.05, h=2.0))
    nudged = np.linspace(0.0, 5e4, 2_000)
    nudged[700] += 5e-5
    grids = {
        "linspace": (np.linspace(0.0, 5e4, 20_000), True),
        "arange": (np.arange(0.0, 1e4, 2.0 * math.pi / 64), True),
        "offset": (np.linspace(1e6, 1e6 + 1e3, 9), True),
        "random": (np.sort(np.random.default_rng(3).uniform(0.0, 5e4, 1_000)), False),
        "nudged": (nudged, False),
        "one time": (np.array([7.5]), True),
    }
    for name, (times, uniform) in grids.items():
        spans.clear()
        sender_receiver_weight(dec, 2, times)
        assert spans == [math.isqrt(len(times) - 1) + 1 if uniform else 1], name
        _, drift = amplitudes._drift(times)
        assert (drift <= LATTICE_DRIFT * UNIT_ROUNDOFF * np.max(np.abs(times))) == uniform, name


def test_propagator_grid_bound_covers_a_pairing_defect():
    # The positive-level eigenvectors moved by about 1e-9 while the levels
    # stay paired: the real form, which reads only that half, then misses
    # `propagator_block` by about 1e-9 at any time, and only the pairing
    # term P of the bound covers it (the other terms are ~1e-14 here).
    rng = np.random.default_rng(53)
    for n_s, n_w in ((1, 8), (2, 7), (3, 10)):
        spec = ChainSpec(n_s=n_s, n_w=n_w, j0=0.05, h=0.7)
        ev = SubmatrixEvaluator(decompose_chain(spec), n_s)
        n = ev.dec.n
        ev.dec.eigenvectors[:, n - n // 2:] += 1e-9 * rng.standard_normal((n, n // 2))
        assert ev.dec._paired
        grid = 3.0 + 0.05 * np.arange(40)
        blocks, bound = propagator_grid(ev.dec, ev.rows, ev.cols, grid)
        distance = np.max(np.abs(as_propagator(ev, blocks, grid) - ev.submatrix(grid)))
        assert 1e-11 < distance <= bound, (n_s, n_w)


@pytest.mark.parametrize("kernel", [_block_weight, propagator_grid],
                         ids=["block_weight", "propagator_grid"])
def test_real_form_refuses_an_unpaired_decomposition(kernel):
    # the on-site defect `validate --asymmetry` diagonalises: a nonzero
    # diagonal, so the levels do not pair and the real form does not hold
    spec = ChainSpec(n_s=2, n_w=5, j0=0.05, h=0.3)
    profile = build_profile(spec)
    onsite = profile.onsite.copy()
    onsite[-1] += 0.01
    dec = diagonalize(CouplingProfile(hop=profile.hop, onsite=onsite))
    assert not dec._paired
    with pytest.raises(ValueError, match="pair"):
        kernel(dec, np.arange(2), np.arange(7, 9), np.array([0.0, 1.0]))


def test_grid_evaluation_matches_point_by_point():
    # One array call over a grid spanning several chunks against one call
    # per time, bit for bit: the golden look-ahead returns a one-probe
    # search's bits only if a time's value does not depend on its grid.
    # n_s = 1 keeps the per-time product, n_s >= 2 folds each chunk into one
    # matrix product.  Covered: the scan curves, the evaluator's blocks and
    # probabilities, the full sender rows (n_s x N) that the occupations
    # read, and the two public energies, whose blocks are n_s x n_r and
    # n_s x 4.  An on-site defect, built as
    # `validate --asymmetry` builds it, leaves the levels unpaired, so its
    # phases take the direct exp branch instead of the conjugate half.
    cases = [(0.0, 0.0), (1.7, 0.0), (1.7, 0.02)]
    for n_s, (h, defect) in itertools.product([1, 2, 3, 4], cases):
        spec = ChainSpec(n_s=n_s, n_w=9, j0=0.05, h=h)
        if defect:
            profile = build_profile(spec)
            onsite = profile.onsite.copy()
            onsite[-1] += defect
            dec = diagonalize(CouplingProfile(hop=profile.hop, onsite=onsite))
            assert not dec._paired
        else:
            dec = decompose_chain(spec)
        ev = SubmatrixEvaluator(dec, n_s)
        grid = np.linspace(0.0, 5e4, 3 * CHUNK_ELEMENTS // (n_s * dec.n) + 5)
        curve = scan_transfer(spec, grid, dec)
        p_f = np.array([ev.p_fermion(t) for t in grid])
        p_b = np.array([ev.p_boson(t) for t in grid])
        assert curve.p_fermion.tobytes() == p_f.tobytes()
        assert curve.p_boson.tobytes() == p_b.tobytes()
        assert ev.p_fermion(grid).tobytes() == p_f.tobytes()
        for block in (ev.submatrix,
                      lambda t: propagator_block(dec, np.arange(n_s), np.arange(dec.n), t),
                      lambda t: interaction_energy(spec, t, dec),
                      lambda t: switching_energy(spec, t, dec)):
            points = np.array([block(t) for t in grid])
            assert block(grid).tobytes() == points.tobytes(), (n_s, h, defect)


def test_scan_transfer_validates_grid():
    spec = ChainSpec(n_s=1, n_w=2, j0=0.1)
    dec = decompose_chain(spec)
    with pytest.raises(ValueError):
        scan_transfer(spec, np.array([[0.0, 1.0]]), dec)
    with pytest.raises(ValueError):
        scan_transfer(spec, np.array([1.0, 1.0]), dec)
    with pytest.raises(ValueError):
        scan_transfer(spec, np.array([2.0, 1.0]), dec)
    with pytest.raises(ValueError):
        scan_transfer(spec, np.array([0.0, 1.0, np.inf]), dec)
    with pytest.raises(ValueError):
        scan_transfer(spec, np.array([0.0, np.nan, 2.0]), dec)
    with pytest.raises(ValueError, match="time grid"):
        scan_transfer(spec, [], dec)


def test_scan_transfer_starts_at_zero_probability():
    # At t = 0 the sender-receiver block is a corner of the identity, so
    # both probabilities vanish up to eigensolver roundoff raised to 2*n_s.
    spec = ChainSpec(n_s=2, n_w=3, j0=0.05)
    curve = scan_transfer(spec, np.array([0.0, 1.0, 2.0]), decompose_chain(spec))
    assert curve.p_fermion[0] < 1e-30
    assert curve.p_boson[0] < 1e-30
    assert np.all(curve.p_fermion <= 1.0)
    assert np.all(curve.p_boson <= 1.0)


def test_single_excitation_statistics_coincide():
    # A 1x1 block has det = perm, so the two curves are identical.
    spec = ChainSpec(n_s=1, n_w=4, j0=0.08)
    curve = scan_transfer(spec, np.linspace(0.0, 120.0, 600), decompose_chain(spec))
    assert np.array_equal(curve.p_fermion, curve.p_boson)


def test_plan_scan_grid_structure():
    spec = ChainSpec(n_s=1, n_w=5, j0=0.1)
    grid, meta = plan_scan_grid(spec, decompose_chain(spec))
    assert grid[0] == 0.0
    assert np.all(np.diff(grid) > 0)
    assert grid[-1] <= meta["horizon"] + 1e-9
    assert meta["delta_slow"] > 0
    assert meta["delta_max"] >= meta["delta_slow"]
    assert meta["fine_step"] < meta["coarse_step"]


def test_find_transfer_peak_on_small_perfect_case():
    report = find_transfer_peak(ChainSpec(n_s=1, n_w=5, j0=0.1))
    assert report.p_fermion >= 0.99
    assert report.p_boson >= 0.99
    # One excitation: the statistics agree, so the peaks coincide.
    assert abs(report.t_fermion - report.t_boson) <= report.coarse_step
    assert 0.0 < report.t_fermion <= report.horizon


def test_scan_max_probability_polishes_grid_maximum():
    spec = ChainSpec(n_s=1, n_w=4, j0=0.1)
    t_best, p_best, curve = scan_max_probability(spec, decompose_chain(spec))
    # The polish step can only improve on the raw grid maximum.
    assert p_best >= float(np.max(curve.p_fermion)) - 1e-15
    assert 0.0 <= p_best <= 1.0
    assert 0.0 <= t_best <= curve.times[-1]
    assert len(curve.times) <= 200_002


def test_scan_max_probability_coarsens_to_200k_steps():
    # the fast splitting would ask for about 653k fine steps over the horizon
    spec = ChainSpec(n_s=3, n_w=5, j0=0.001)
    dec = decompose_chain(spec)
    t_max = NON_PP_HORIZON_FACTOR * (math.pi / (2.0 * scan_scales(spec, dec)[0]))
    _, p_best, curve = scan_max_probability(spec, dec)
    assert len(curve.times) == 200_001
    assert curve.times[1] == t_max / 200_000
    assert curve.times[-1] == t_max
    assert float(np.max(curve.p_fermion)) <= p_best <= 1.0


def test_scan_max_probability_reaches_past_five_slow_half_periods():
    # On this non-PP chain the highest peak up to NON_PP_HORIZON_FACTOR
    # tau* (tau* = pi/(2 delta*), about 1.26e5) sits near 9.3 tau*, and it
    # beats the maximum of an exact dense scan over [0, 5 tau*] by about
    # 9e-3: a horizon of 5 tau* would report that lower peak.
    spec = ChainSpec(n_s=3, n_w=42, j0=0.01)
    dec = decompose_chain(spec)
    tau = math.pi / (2.0 * scan_scales(spec, dec)[0])
    t_best, p_best, _ = scan_max_probability(spec, dec)
    dense = scan_transfer(spec, np.linspace(0.0, 5.0 * tau, 300_001), dec)
    assert p_best >= float(np.max(dense.p_fermion)) + 5e-3
    assert t_best > 5.0 * tau


def sequential_golden_max(f, a, b, iters=GOLDEN_ITERS):
    """The golden-section search one scalar probe at a time: the reference
    the look-ahead polish must reproduce bit for bit."""
    seen = {}

    def probe(t):
        if t not in seen:
            seen[t] = f(t)
        return seen[t]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = probe(x1), probe(x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = probe(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = probe(x1)
        if f1 >= best_f:
            best_x, best_f = x1, f1
        if f2 >= best_f:
            best_x, best_f = x2, f2
    return best_x, best_f


def golden_cases():
    for n_s, n_w, center in ((4, 81, 379138.0), (2, 102, 61837.46)):
        ev = SubmatrixEvaluator(decompose_chain(ChainSpec(n_s=n_s, n_w=n_w, j0=0.01)), n_s)
        step = 2.0 * math.pi / 64
        for f in (ev.p_fermion, ev.p_boson):
            for shift in (0.0, 1.3, 17.0):
                t = np.float64(center + shift)
                yield f, t - step, t + step
    yield lambda t: np.floor(4.0 * t), 0.0, 3.0            # ties f1 == f2
    yield lambda t: np.full(np.shape(t), 0.25), -1.0, 1.0  # constant
    yield lambda t: np.sin(40.0 * t), 0.0, 3.0             # many maxima
    yield lambda t: -(t - 1.0) ** 2, 1.0, math.nextafter(1.0, 2.0)  # adjacent floats


def test_golden_lookahead_matches_sequential_search():
    max_calls = math.ceil((GOLDEN_ITERS + 2) / 3) + 1
    for f, a, b in golden_cases():
        calls = []

        def counted(times):
            assert np.ndim(times) == 1
            calls.append(len(times))
            return f(times)

        t, p = _golden_max(counted, a, b)
        t_ref, p_ref = sequential_golden_max(f, a, b)
        assert (float(t).hex(), float(p).hex()) == (float(t_ref).hex(), float(p_ref).hex())
        assert 1 <= len(calls) <= max_calls


def defect_evaluator():
    """An on-site defect: no sublattice symmetry, so no real surrogate."""
    onsite = np.zeros(11)
    onsite[4] = 0.3
    return SubmatrixEvaluator(diagonalize(CouplingProfile(hop=np.ones(10), onsite=onsite)), 3)


def bound_cases():
    """(evaluator, grid) pairs: n_s 1..4 with h 0, 0.7 and -1.3 on odd and
    even N, windows starting up to t = 1e6, and grid lengths 1, 2, B^2 and
    B^2 + 1 (B = ceil(sqrt(T)))."""
    rng = np.random.default_rng(41)
    evaluators = []
    for n_s in range(1, 5):
        for h in (0.0, 0.7, -1.3):
            spec = ChainSpec(n_s=n_s, n_w=int(rng.integers(1, 40)), j0=0.03, h=h)
            evaluators.append(SubmatrixEvaluator(decompose_chain(spec), n_s))
    assert {ev.dec.n % 2 for ev in evaluators} == {0, 1}
    for ev in evaluators:
        for length in (1, 2, 49, 50):
            start = float(rng.uniform(0.0, 1e6))
            yield ev, start + float(rng.uniform(0.01, 0.2)) * np.arange(length)


def as_propagator(ev, blocks, grid):
    """exp(-i h t) diag((-i)^a) M diag(i^b): the complex blocks that
    `propagator_grid`'s real blocks M stand for."""
    phase = np.exp(-1j * ev.dec.offset * grid)[:, None, None]
    return phase * (-1j) ** ev.rows[:, None] * blocks * 1j ** ev.cols[None, :]


def surrogate_prob(reduce, blocks):
    """The window sweep's surrogate: det(M)^2 through LAPACK, or Ryser on M."""
    p = np.linalg.det(blocks) ** 2 if reduce is fermion_prob else boson_prob(blocks)
    return np.clip(p, 0.0, 1.0)


def test_propagator_grid_stays_within_its_bound():
    # The measured distances stay below half of each bound: here entries
    # reach at most 0.23 of `bound` and probabilities 0.07 of their slack
    # (0.45 and 0.03 on the benchmark's seed-1 peak windows, the entries'
    # worst at n_s = 4 near t = 3.8e5).
    worst_entry = worst_prob = 0.0
    for ev, grid in bound_cases():
        blocks, bound = propagator_grid(ev.dec, ev.rows, ev.cols, grid)
        exact = ev.submatrix(grid)
        assert blocks.dtype == float and blocks.shape == exact.shape
        worst_entry = max(worst_entry, np.max(np.abs(as_propagator(ev, blocks, grid) - exact)) / bound)
        for reduce in (fermion_prob, boson_prob):
            slack = _probability_slack(reduce, blocks, bound)
            assert slack.shape == grid.shape
            ratio = np.abs(surrogate_prob(reduce, blocks) - _checked_prob(reduce(exact))) / slack
            worst_prob = max(worst_prob, np.max(ratio))
    assert worst_entry <= 0.5
    assert worst_prob <= 0.5


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_real_stacks_reduce_to_the_bytes_of_their_complex_cast(n):
    rng = np.random.default_rng(n)
    stack = rng.normal(size=(200, n, n))
    stack[::5, :, 0] = 0.0                      # a zero column
    if n > 1:
        stack[1::5, -1] = 3.0 * stack[1::5, 0]  # two parallel rows
    for reduce in (fermion_prob, boson_prob):
        real = reduce(stack)
        assert real.tobytes() == reduce(stack.astype(complex)).tobytes()
        assert reduce(stack[3]) == reduce(stack[3].astype(complex))
    assert np.all(fermion_prob(stack[::5]) == 0.0)


def test_propagator_grid_chunks_like_one_product(monkeypatch):
    ev = SubmatrixEvaluator(decompose_chain(ChainSpec(n_s=4, n_w=61, j0=0.01, h=0.7)), 4)
    grid = np.arange(378000.0, 378125.0, 2.0 * math.pi / 64)
    chunked, bound = propagator_grid(ev.dec, ev.rows, ev.cols, grid)
    # the anchors' coefficients (16 entries of N/2 levels each) span more
    # than one chunk
    anchors = math.isqrt(len(grid) - 1) + 1
    assert CHUNK_ELEMENTS < anchors * 16 * (ev.dec.n // 2)
    monkeypatch.setattr(amplitudes, "CHUNK_ELEMENTS", 1 << 40)
    whole, whole_bound = propagator_grid(ev.dec, ev.rows, ev.cols, grid)
    assert np.array_equal(chunked, whole) and bound == whole_bound


def test_propagator_grid_rejects_empty_or_nested_times():
    dec = two_site_decomposition()
    for times in ([], np.zeros((2, 2))):
        with pytest.raises(ValueError):
            propagator_grid(dec, [0], [1], times)


def test_certified_argmax_returns_the_exact_first_maximum():
    # The surrogate's own argmax (index 4) is wrong by less than the slack,
    # and indices 1 and 3 tie exactly: the first of them must come back.
    exact = np.array([0.2, 0.9, 0.5, 0.9, 0.9 - 4e-10, 0.1])
    surrogate = exact + np.array([0.0, -8e-10, 0.0, -5e-10, 9e-10, 0.0])
    evaluated = []

    def evaluate(keep):
        evaluated.append(keep.tolist())
        return exact[keep]

    assert _certified_argmax(surrogate, 1e-9, evaluate) == (1, 0.9)
    assert evaluated == [[1, 3, 4]]
    # per-point slack; a tie between the first and the last point
    slack = np.array([1e-9, 0.0, 0.0, 0.0, 0.0, 1e-9])
    assert _certified_argmax(np.array([0.7, 0.1, 0.2, 0.3, 0.4, 0.7 + 5e-10]), slack,
                             lambda keep: np.full(len(keep), 0.7)) == (0, 0.7)
    # a NaN surrogate rules nothing out
    evaluated.clear()
    assert _certified_argmax(np.array([0.3, np.nan, 0.5]), 1e-9, evaluate) == (1, 0.9)
    assert evaluated == [[0, 1, 2]]


def exact_window_max(ev, reduce, center, j):
    """The window sweep evaluated exactly at every point, as before the
    surrogate: the reference `_window_max` must reproduce bit for bit."""
    def exact(times):
        return _checked_prob(reduce(ev.submatrix(times)))

    half_window = PEAK_WINDOW_PERIODS * 2.0 * math.pi / j
    step = 2.0 * math.pi / (j * PEAK_POINTS_PER_PERIOD)
    grid = np.arange(max(0.0, center - half_window), center + half_window, step)
    values = exact(grid)
    k = int(np.argmax(values))
    t, p = _golden_max(exact, grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)])
    if values[k] > p:
        return float(grid[k]), float(values[k])
    return float(t), float(p)


# (evaluator, window centre): the reported fermion peaks of (4,81) and
# (2,41) (odd N) and (2,102) (even N), an h = 0.7 chain of each parity
# near its predicted transfer time, and the unpaired defect chain
WINDOW_CASES = [
    (ChainSpec(4, 81, 0.01), float.fromhex("0x1.7240791aca0f0p+18")),
    (ChainSpec(2, 102, 0.01), float.fromhex("0x1.e31ae95fde40bp+15")),
    (ChainSpec(2, 41, 0.01), float.fromhex("0x1.a0564539354fcp+11")),
    (ChainSpec(2, 61, 0.01, h=0.7), 63023.0),
    (ChainSpec(2, 62, 0.01, h=0.7), 2036.0),
    (None, 250.0),
]


@pytest.mark.parametrize("spec, center", WINDOW_CASES,
                         ids=["4-81", "2-102", "2-41", "2-61-h", "2-62-h", "defect"])
@pytest.mark.parametrize("reduce", [fermion_prob, boson_prob], ids=["fermion", "boson"])
def test_window_max_is_an_exact_sweep(spec, center, reduce):
    ev = defect_evaluator() if spec is None else SubmatrixEvaluator(decompose_chain(spec), spec.n_s)
    j = 1.0 if spec is None else spec.j
    got = _window_max(ev, reduce, center, j)
    want = exact_window_max(ev, reduce, center, j)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("reduce", [fermion_prob, boson_prob], ids=["fermion", "boson"])
def test_window_max_stays_exact_when_the_surrogate_uses_its_whole_bound(monkeypatch, reduce):
    # `propagator_grid` may return any blocks within its bound of the exact
    # ones.  Here they move by up to B = 1e-2 more and the bound grows by B:
    # the blocks of the three points around the exact sweep's maximum
    # shrink and every other block grows, by a common factor that moves no
    # entry by more than B, so that det and perm scale with it and the
    # surrogate's own maximum lands at least two points off.  The certified
    # sweep still returns the exact sweep's (t, p), which it would not
    # without its slack.
    spec, center = WINDOW_CASES[0]
    ev = SubmatrixEvaluator(decompose_chain(spec), spec.n_s)
    want = exact_window_max(ev, reduce, center, spec.j)
    half_window = PEAK_WINDOW_PERIODS * 2.0 * math.pi / spec.j
    step = 2.0 * math.pi / (spec.j * PEAK_POINTS_PER_PERIOD)
    grid = np.arange(max(0.0, center - half_window), center + half_window, step)
    k = int(np.argmax(_checked_prob(reduce(ev.submatrix(grid)))))
    original, moved = amplitudes.propagator_grid, 1e-2

    def inflated(dec, rows, cols, times):
        blocks, bound = original(dec, rows, cols, times)
        assert np.array_equal(times, grid)
        away = np.ones(len(times))
        away[max(0, k - 1):k + 2] = -1.0
        blocks = blocks * (1.0 + moved / np.max(np.abs(blocks)) * away)[:, None, None]
        assert abs(int(np.argmax(surrogate_prob(reduce, blocks))) - k) > 1
        return blocks, bound + moved

    monkeypatch.setattr(amplitudes, "propagator_grid", inflated)
    got = _window_max(ev, reduce, center, spec.j)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n_s=st.integers(1, 3), n_w=st.integers(1, 12), j0=st.sampled_from([0.01, 0.03, 0.08]),
       h=st.sampled_from([0.0, 0.7, -1.3]), center=st.floats(0.0, 2e5),
       reduce=st.sampled_from([fermion_prob, boson_prob]))
def test_certified_window_max_equals_a_full_exact_sweep(n_s, n_w, j0, h, center, reduce):
    spec = ChainSpec(n_s=n_s, n_w=n_w, j0=j0, h=h)
    ev = SubmatrixEvaluator(decompose_chain(spec), n_s)
    got = _window_max(ev, reduce, center, spec.j)
    want = exact_window_max(ev, reduce, center, spec.j)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_single_particle_bound_values():
    assert single_particle_bound(1, 1, 1) == pytest.approx(1.0, abs=1e-15)
    assert single_particle_bound(3, 1, 1) == pytest.approx(1.0, abs=1e-12)
    assert single_particle_bound(3, 2, 2) == pytest.approx(1.0, abs=1e-12)
    assert single_particle_bound(3, 1, 2) == pytest.approx(1.0 / np.sqrt(2), abs=1e-12)
    assert single_particle_bound(3, 1, 2) == single_particle_bound(3, 2, 1)
    # Anti-diagonal pairs (i + j = n_s + 1) also reach 1.
    assert single_particle_bound(3, 1, 3) == pytest.approx(1.0, abs=1e-12)


def test_block_amplitudes_respect_single_particle_bound():
    # Deep in the weak-coupling regime each sender-receiver amplitude stays
    # below its block-mode overlap bound up to O(J0) corrections.  Sampling
    # is two-tier: a coarse sweep of the whole horizon plus a dense patch
    # around the predicted transfer time, where the diagonal entries peak.
    spec = ChainSpec(n_s=3, n_w=13, j0=5e-6)
    rep = perturbation_report(spec)
    tau = rep.predicted_tau
    ev = SubmatrixEvaluator(decompose_chain(spec), 3)
    coarse = np.linspace(0.0, 2.4 * tau, 4001)
    fine = np.linspace(0.98 * tau, 1.02 * tau, 20001)
    bound = np.array(
        [[single_particle_bound(3, a, b) for b in (1, 2, 3)] for a in (1, 2, 3)]
    )
    worst = -np.inf
    best_diag = -np.inf
    for grid in (coarse, fine):
        for t in grid:
            mags = np.abs(ev.submatrix(t))
            worst = max(worst, float((mags - bound).max()))
            best_diag = max(best_diag, float(np.min(np.diag(mags))))
    assert worst <= 1e-6
    # The bound is tight: near the transfer time every diagonal entry
    # simultaneously approaches its limit of 1.
    assert best_diag > 0.99
