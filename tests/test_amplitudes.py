"""Tests for time-evolution amplitudes, many-body probabilities, and peak search."""

import itertools
import math

import numpy as np
import pytest

from ppxfer import (
    ChainSpec,
    NumericalConsistencyError,
    SubmatrixEvaluator,
    find_transfer_peak,
    perturbation_report,
    scan_max_probability,
    scan_transfer,
)
from ppxfer.amplitudes import (
    CHUNK_ELEMENTS,
    GOLDEN_ITERS,
    _checked_prob,
    _golden_max,
    boson_prob,
    fermion_prob,
    plan_scan_grid,
    propagator_block,
    single_particle_bound,
)
from ppxfer.spectral import decompose_chain, diagonalize


def two_site_decomposition():
    # Single bond at coupling 1: H = [[0, 1/2], [1/2, 0]].
    return diagonalize(np.array([[0.0, 0.5], [0.5, 0.0]]))


def three_site_decomposition():
    h = 0.5 * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return diagonalize(h)


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


def test_sr_submatrix_rejects_oversized_block():
    spec = ChainSpec(n_s=2, n_w=2, j0=0.1)
    dec = decompose_chain(spec)
    with pytest.raises(ValueError):
        SubmatrixEvaluator(dec, 4)
    with pytest.raises(ValueError):
        SubmatrixEvaluator(dec, 0)


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


def test_propagator_block_rejects_non_vector_times():
    dec = two_site_decomposition()
    with pytest.raises(ValueError):
        propagator_block(dec, [0], [1], np.zeros((2, 2)))


def test_grid_evaluation_matches_point_by_point():
    # One array call over a grid spanning several chunks against one call
    # per time, for the scan curves and the evaluator's probabilities.
    spec = ChainSpec(n_s=3, n_w=9, j0=0.05, h=0.4)
    dec = decompose_chain(spec)
    ev = SubmatrixEvaluator(dec, 3)
    grid = np.linspace(0.0, 5e4, 3 * CHUNK_ELEMENTS // 9 + 5)
    curve = scan_transfer(spec, grid, dec)
    p_f = np.array([ev.p_fermion(t) for t in grid])
    p_b = np.array([ev.p_boson(t) for t in grid])
    assert np.max(np.abs(curve.p_fermion - p_f)) <= 1e-15
    assert np.max(np.abs(curve.p_boson - p_b)) <= 1e-15
    assert np.max(np.abs(ev.p_fermion(grid) - p_f)) <= 1e-15
    blocks = ev.submatrix(grid)
    for k in (0, 1, len(grid) // 2, len(grid) - 1):
        assert np.max(np.abs(blocks[k] - ev.submatrix(grid[k]))) <= 1e-15


def test_scan_transfer_validates_grid():
    spec = ChainSpec(n_s=1, n_w=2, j0=0.1)
    with pytest.raises(ValueError):
        scan_transfer(spec, np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        scan_transfer(spec, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        scan_transfer(spec, np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        scan_transfer(spec, np.array([0.0, 1.0, np.inf]))
    with pytest.raises(ValueError):
        scan_transfer(spec, np.array([0.0, np.nan, 2.0]))


def test_scan_transfer_starts_at_zero_probability():
    # At t = 0 the sender-receiver block is a corner of the identity, so
    # both probabilities vanish up to eigensolver roundoff raised to 2*n_s.
    spec = ChainSpec(n_s=2, n_w=3, j0=0.05)
    curve = scan_transfer(spec, np.array([0.0, 1.0, 2.0]))
    assert curve.p_fermion[0] < 1e-30
    assert curve.p_boson[0] < 1e-30
    assert np.all(curve.p_fermion <= 1.0)
    assert np.all(curve.p_boson <= 1.0)


def test_single_excitation_statistics_coincide():
    # A 1x1 block has det = perm, so the two curves are identical.
    spec = ChainSpec(n_s=1, n_w=4, j0=0.08)
    curve = scan_transfer(spec, np.linspace(0.0, 120.0, 600))
    assert np.array_equal(curve.p_fermion, curve.p_boson)


def test_plan_scan_grid_structure():
    spec = ChainSpec(n_s=1, n_w=5, j0=0.1)
    grid, meta = plan_scan_grid(spec)
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
    t_best, p_best, curve = scan_max_probability(spec, 300.0)
    # The polish step can only improve on the raw grid maximum.
    assert p_best >= float(np.max(curve.p_fermion)) - 1e-15
    assert 0.0 <= p_best <= 1.0
    assert 0.0 <= t_best <= 300.0
    assert len(curve.times) <= 200_002


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


def test_single_particle_bound_values():
    assert single_particle_bound(1, 1, 1) == pytest.approx(1.0, abs=1e-15)
    assert single_particle_bound(3, 1, 1) == pytest.approx(1.0, abs=1e-12)
    assert single_particle_bound(3, 2, 2) == pytest.approx(1.0, abs=1e-12)
    assert single_particle_bound(3, 1, 2) == pytest.approx(1.0 / np.sqrt(2), abs=1e-12)
    assert single_particle_bound(3, 1, 2) == single_particle_bound(3, 2, 1)
    # Anti-diagonal pairs (i + j = n_s + 1) also reach 1.
    assert single_particle_bound(3, 1, 3) == pytest.approx(1.0, abs=1e-12)


def test_single_particle_bound_rejects_out_of_range():
    with pytest.raises(ValueError):
        single_particle_bound(3, 0, 1)
    with pytest.raises(ValueError):
        single_particle_bound(3, 1, 4)


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
