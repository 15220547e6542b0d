import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from ppxfer import amplitudes, cli, spectral
from ppxfer.amplitudes import find_transfer_peak
from ppxfer.observables import battery_metrics
from ppxfer.perturbation import perturbation_report, predict_transfer_time, ratio_diagnostics
from ppxfer.chain import (ChainSpec, CouplingProfile, NumericalConsistencyError,
                          adjacency_matrix, build_profile)
from ppxfer.spectral import (
    decompose_chain,
    diagonalize,
    sender_spectrum,
    wire_spectrum,
)


def uniform_chain(n, h=0.0):
    return CouplingProfile(hop=np.ones(n - 1), onsite=np.full(n, h))


def random_profile(rng, n):
    """Diagonal d and off-diagonal e as a profile (hoppings 2e)."""
    d = rng.uniform(-1, 1, n)
    e = rng.uniform(0.05, 1, n - 1)
    return CouplingProfile(hop=2.0 * e, onsite=d)


def test_two_site_analytic():
    dec = diagonalize(CouplingProfile(hop=[1.0], onsite=[0.0, 0.0]))
    assert np.allclose(dec.eigenvalues, [-0.5, 0.5], atol=1e-14)
    inv_sqrt2 = 1 / math.sqrt(2)
    # first nonzero component positive
    assert np.allclose(np.abs(dec.eigenvectors), inv_sqrt2, atol=1e-14)
    assert dec.eigenvectors[0, 0] > 0 and dec.eigenvectors[0, 1] > 0


def test_uniform_five_site_closed_form():
    # closed form cos(k pi / 6) for the uniform chain, ascending
    expected = np.array([-math.sqrt(3) / 2, -0.5, 0.0, 0.5, math.sqrt(3) / 2])
    dec = diagonalize(uniform_chain(5))
    assert np.allclose(dec.eigenvalues, expected, atol=1e-13)


def test_eigh_cross_check():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        profile = random_profile(rng, n)
        a = adjacency_matrix(profile)
        dec = diagonalize(profile)
        ref = np.linalg.eigvalsh(a)
        assert np.allclose(dec.eigenvalues, ref, atol=1e-11)


def test_residual_orthonormality_trace():
    rng = np.random.default_rng(12)
    for _ in range(15):
        n = int(rng.integers(2, 40))
        profile = random_profile(rng, n)
        a = adjacency_matrix(profile)
        dec = diagonalize(profile)
        z = dec.eigenvectors
        residual = a @ z - z * dec.eigenvalues
        assert np.max(np.abs(residual)) < 1e-11 * max(1.0, np.max(np.abs(dec.eigenvalues)))
        assert np.max(np.abs(z.T @ z - np.eye(n))) < 1e-11
        assert abs(np.sum(dec.eigenvalues) - np.trace(a)) < 1e-11 * max(1.0, n)


def test_mirror_property_and_parities():
    for n_s, n_w, h in [(1, 4, 0.0), (2, 5, 0.4), (3, 7, 0.0), (4, 6, -0.2)]:
        dec = decompose_chain(ChainSpec(n_s=n_s, n_w=n_w, j0=0.05, h=h))
        z = dec.eigenvectors
        for k in range(dec.n):
            assert dec.parities[k] in (-1.0, 1.0)
            assert np.allclose(z[:, k], dec.parities[k] * z[::-1, k], atol=1e-12)


def test_no_parity_claim_without_mirror_symmetry():
    dec = diagonalize(CouplingProfile(hop=[1.0, 1.0], onsite=[0.3, 0.0, 0.0]))
    assert np.all(dec.parities == 0)


def test_spectral_antisymmetry_about_h():
    for n_s, n_w, h in [(2, 4, 0.0), (2, 5, 0.8), (3, 6, -0.5)]:
        dec = decompose_chain(ChainSpec(n_s=n_s, n_w=n_w, j0=0.07, h=h))
        shifted = np.sort(dec.eigenvalues - h)
        assert np.allclose(shifted, -shifted[::-1], atol=1e-11)
        if dec.n % 2 == 1:
            assert abs(shifted[dec.n // 2]) < 1e-11


def test_h_shift_leaves_eigenvectors_identical():
    base = decompose_chain(ChainSpec(n_s=2, n_w=5, j0=0.03, h=0.0))
    lift = decompose_chain(ChainSpec(n_s=2, n_w=5, j0=0.03, h=0.9))
    assert np.array_equal(base.eigenvectors, lift.eigenvectors)
    assert np.allclose(lift.eigenvalues - base.eigenvalues, 0.9, atol=1e-12)


def test_deterministic_output():
    profile = random_profile(np.random.default_rng(3), 17)
    d1 = diagonalize(profile)
    d2 = diagonalize(profile)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_sign_convention():
    rng = np.random.default_rng(4)
    for _ in range(10):
        dec = diagonalize(random_profile(rng, int(rng.integers(2, 25))))
        for k in range(dec.n):
            col = dec.eigenvectors[:, k]
            first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert first > 0


def rotate_one_at_a_time(n, sweeps, factors):
    """Reference apply pass: each recorded rotation in recording order, the
    sweep (l, m) rotating columns (i, i+1) for i = m-1 down to l."""
    sweeps = list(zip(sweeps[::2], sweeps[1::2]))
    assert sum(m - l for l, m in sweeps) == len(factors) // 2
    columns = [i for l, m in sweeps for i in range(m - 1, l - 1, -1)]
    z = np.eye(n)
    for k, i in enumerate(columns):
        c, s = factors[2 * k], factors[2 * k + 1]
        col = z[:, i + 1].copy()
        z[:, i + 1] = s * z[:, i] + c * col
        z[:, i] = c * z[:, i] - s * col
    return z


def validate_asymmetry_profile():
    """The profile `validate --asymmetry 0.01` diagonalises: no mirror
    symmetry and a nonzero diagonal."""
    profile = build_profile(ChainSpec(n_s=2, n_w=5, j0=0.05, h=0.3))
    onsite = profile.onsite.copy()
    onsite[-1] += 0.01
    return CouplingProfile(hop=profile.hop, onsite=onsite)


def random_zero_diagonal_profile(rng, n):
    return CouplingProfile(hop=random_profile(rng, n).hop, onsite=np.zeros(n))


DECOMPOSITIONS = {
    "2-41": lambda: decompose_chain(ChainSpec(n_s=2, n_w=41, j0=0.01)),
    "4-101": lambda: decompose_chain(ChainSpec(n_s=4, n_w=101, j0=0.01)),
    "3-43-weak": lambda: decompose_chain(ChainSpec(n_s=3, n_w=43, j0=1e-4)),
    "2-5-h": lambda: decompose_chain(ChainSpec(n_s=2, n_w=5, j0=0.03, h=0.9)),
    "asymmetric": lambda: diagonalize(validate_asymmetry_profile()),
    "random": lambda: diagonalize(random_profile(np.random.default_rng(31), 37)),
    "random-zero-diagonal":
        lambda: diagonalize(random_zero_diagonal_profile(np.random.default_rng(32), 36)),
}

# sha256 over the bytes of eigenvalues, bare_eigenvalues, eigenvectors and
# parities, in that order; produced by commit 46990f8 (the QL that recorded
# one column per rotation) with Python 3.11, numpy 2.4 and OpenBLAS on
# x86-64, the same with 1 or 2 OpenBLAS threads
DECOMPOSITION_SHA256 = {
    "2-41": "c9cbe22ac29a898c994085fc39e15a45501a20593f7f0f9301bd5bd78d92498e",
    "4-101": "80812d7d0af96a22f352f2a61f2ef7e9bca4d24278b5d86bf41c6f895dcb57a2",
    "3-43-weak": "b7890dac3096410c54e0c305747d3353c0de0a79304267c33cf15f707450ac8c",
    "2-5-h": "dc5c51ef1a09eb21bf646450bdb71ddabb1d550eb7b14f5246e94aeac0fa21ec",
    "asymmetric": "97d1a43befd08ae68fc52257afdf743c62c3c871892e1f71b027333d6056226d",
    "random": "992129289dd525b80782cdae391c530c1949cc74b6390ba42225bacc692ec7b2",
    "random-zero-diagonal":
        "62f35e406d0077c514ed057f4781083b2458522261582e6e4ce4badd2039fab9",
}


def decomposition_digest(dec):
    digest = hashlib.sha256()
    for values in (dec.eigenvalues, dec.bare_eigenvalues, dec.eigenvectors, dec.parities):
        digest.update(values.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
def test_decompositions_keep_their_bits(name):
    assert decomposition_digest(DECOMPOSITIONS[name]()) == DECOMPOSITION_SHA256[name]


def pinned_bits():
    """The digests above and the peak bits of the three chains
    `test_bitwise_outputs` pins, as computed in this process (JSON-ready)."""
    peaks = {}
    for n_s, n_w in [(2, 41), (3, 41), (4, 101)]:
        report = find_transfer_peak(ChainSpec(n_s=n_s, n_w=n_w, j0=0.01))
        peaks[f"{n_s}-{n_w}"] = [float(x).hex() for x in (
            report.t_fermion, report.p_fermion, report.t_boson, report.p_boson)]
    return {"decompositions": {name: decomposition_digest(build())
                               for name, build in DECOMPOSITIONS.items()},
            "peaks": peaks}


def test_pinned_bits_do_not_depend_on_the_blas_thread_count():
    """One child process with two OpenBLAS threads gives the same bits as
    this process, whose own values the digests above and
    `test_bitwise_outputs` pin."""
    tests = Path(__file__).resolve().parent
    path = [str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": os.pathsep.join(path)}
    child = subprocess.run(
        [sys.executable, "-c",
         "import json, test_spectral; print(json.dumps(test_spectral.pinned_bits()))"],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == pinned_bits()


def test_batched_rotations_are_bitwise_sequential(monkeypatch):
    rng = np.random.default_rng(21)
    profiles = []
    for n in range(1, 61):
        d = rng.uniform(-1, 1, n)
        e = rng.uniform(-1, 1, n - 1)
        if n % 3 == 0:
            d[:] = 0.0
        if n % 4 == 0:
            e[rng.integers(0, n - 1, size=n // 4)] = 0.0
        profiles.append(CouplingProfile(hop=2.0 * e, onsite=d))
    # zero off-diagonals: an empty rotation record at N = 200
    profiles.append(CouplingProfile(hop=np.zeros(199), onsite=rng.uniform(-1, 1, 200)))
    specs = [ChainSpec(n_s=4, n_w=101, j0=0.01), ChainSpec(n_s=2, n_w=102, j0=0.01)]
    batched = [diagonalize(p) for p in profiles] + [decompose_chain(s) for s in specs]
    for dec in batched:   # build the vectors before the patch
        dec.eigenvectors
    monkeypatch.setattr(spectral, "_apply_rotations", rotate_one_at_a_time)
    sequential = [diagonalize(p) for p in profiles] + [decompose_chain(s) for s in specs]
    for got, want in zip(batched, sequential):   # bytes: signed zeros count
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()
        assert got.parities.tobytes() == want.parities.tobytes()


@pytest.fixture
def passes(monkeypatch):
    """Counts of decompositions (`diagonalize` calls, which every
    `decompose_chain` makes) and of eigenvector apply passes."""
    counts = {"decompositions": 0, "applies": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(spectral, "diagonalize", counted("decompositions", spectral.diagonalize))
    monkeypatch.setattr(spectral, "_apply_rotations",
                        counted("applies", spectral._apply_rotations))
    return counts


@pytest.mark.parametrize("run", [
    lambda: perturbation_report(ChainSpec(n_s=3, n_w=43, j0=1e-3)),
    lambda: predict_transfer_time(ChainSpec(n_s=2, n_w=41, j0=0.01)),
    lambda: ratio_diagnostics(ChainSpec(n_s=4, n_w=41, j0=1e-3)),
    cli._check_ratios,
], ids=["perturbation_report", "predict_transfer_time", "ratio_diagnostics", "check_ratios"])
def test_eigenvalue_only_callers_run_no_apply_pass(passes, run):
    run()
    assert passes["decompositions"] > 0
    assert passes["applies"] == 0


def read_parities_then_eigenvectors():
    dec = decompose_chain(ChainSpec(n_s=2, n_w=9, j0=0.05))
    return dec.parities, dec.eigenvectors


@pytest.mark.parametrize("run", [
    lambda: find_transfer_peak(ChainSpec(n_s=1, n_w=5, j0=0.1)),
    read_parities_then_eigenvectors,
], ids=["find_transfer_peak", "parities_then_eigenvectors"])
def test_vector_callers_run_one_apply_pass_per_decomposition(passes, run):
    run()
    assert passes["decompositions"] > 0
    assert passes["applies"] == passes["decompositions"]


def test_battery_runs_no_ql_and_no_apply_pass(passes):
    # its spectrum comes from the two mirror sectors
    battery_metrics(ChainSpec(n_s=2, n_w=8, j0=0.05, h=2.0))
    assert passes == {"decompositions": 0, "applies": 0}


def test_rotation_record_lives_until_the_first_read():
    spec = ChainSpec(n_s=2, n_w=9, j0=0.05)
    dec = decompose_chain(spec)
    assert "_rotations" in vars(dec)
    unread = pickle.loads(pickle.dumps(dec))
    z, parities = dec.eigenvectors, dec.parities
    # once built, a decomposition holds its arrays and no record
    assert set(vars(dec)) == {"bare_eigenvalues", "offset", "eigenvectors", "parities"}
    dec.eigenvalues   # derived from the bare levels and cached on first read
    assert set(vars(dec)) == {"bare_eigenvalues", "offset", "eigenvectors", "parities",
                              "eigenvalues"}
    read = pickle.loads(pickle.dumps(dec))
    assert "_rotations" not in vars(read)
    for copy in (unread, read):
        assert copy.eigenvectors.tobytes() == z.tobytes()
        assert copy.parities.tobytes() == parities.tobytes()
    assert "_rotations" not in vars(unread)


@pytest.mark.parametrize("names", [("eigenvectors", "eigenvectors"),
                                   ("eigenvectors", "parities")])
def test_concurrent_first_reads_build_one_basis(passes, monkeypatch, names):
    apply = spectral._apply_rotations

    def slow_apply(*args):   # hold the build open while the other thread reads
        time.sleep(0.05)
        return apply(*args)

    monkeypatch.setattr(spectral, "_apply_rotations", slow_apply)
    dec = decompose_chain(ChainSpec(n_s=3, n_w=41, j0=0.01))
    start = threading.Barrier(len(names))
    got = [None] * len(names)

    def read(k):
        start.wait()
        got[k] = getattr(dec, names[k])

    threads = [threading.Thread(target=read, args=(k,)) for k in range(len(names))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for name, value in zip(names, got):
        assert value is not None and value is getattr(dec, name)
    assert passes["applies"] == 1
    assert "_rotations" not in vars(dec)


def test_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
    with pytest.raises(RuntimeError, match="failed to converge"):
        diagonalize(uniform_chain(3))


def test_unresolved_mirror_parities_raise():
    # two decoupled mirror-image dimers: a mirror chain of 4 sites has 2
    # even eigenvectors, but each degenerate pair lands on one branch
    dec = diagonalize(CouplingProfile(hop=[1.0, 0.0, 1.0], onsite=np.zeros(4)))
    with pytest.raises(NumericalConsistencyError, match="mirror parities"):
        dec.eigenvectors


@pytest.mark.parametrize("n_s, n_w", [(6, 20), (3, 43)])
def test_near_degenerate_clusters_come_out_orthonormal(n_s, n_w):
    """At J0 = 1e-13 the sender and receiver levels (and the wire levels
    resonant with them) split by less than DEGENERACY_EPS; the cluster
    Gram-Schmidt keeps the basis orthonormal (off by 0.27 and 0.077
    without it)."""
    spec = ChainSpec(n_s=n_s, n_w=n_w, j0=1e-13)
    dec = decompose_chain(spec)
    z = dec.eigenvectors
    assert np.max(np.abs(z.T @ z - np.eye(dec.n))) < 1e-13
    residual = adjacency_matrix(build_profile(spec)) @ z - z * dec.eigenvalues
    assert np.max(np.abs(residual)) < 1e-13


@pytest.mark.parametrize("n_s", [1, 2, 3, 4])
def test_mirror_sectors_pair_and_mirror_exactly(n_s):
    """The battery's mirror-sector decomposition on odd and even N: exact
    level pairs and column parities with no repair pass, the QL's parities,
    levels within the roundoff bound (N + 1) eps max|w| that `find_clusters`
    uses, an orthonormal basis within gamma_2N = N eps / (1 - N eps), and
    vectors that do not depend on h; it pickles with its vectors."""
    eps = np.finfo(float).eps
    for n_w in (1, 2, 7, 8, 40, 43):
        spec = ChainSpec(n_s=n_s, n_w=n_w, j0=0.01, h=2.0)
        dec, ql = decompose_chain(spec, _sectors=True), decompose_chain(spec)
        n, w, z = dec.n, dec.bare_eigenvalues, dec.eigenvectors
        assert np.array_equal(w, -w[::-1]), n_w
        assert all(np.array_equal(z[::-1, k], dec.parities[k] * z[:, k]) for k in range(n))
        assert np.array_equal(dec.parities, ql.parities), n_w
        assert np.max(np.abs(w - ql.bare_eigenvalues)) <= (n + 1) * eps * np.max(np.abs(w))
        assert np.max(np.abs(z.T @ z - np.eye(n))) <= n * eps / (1.0 - n * eps), n_w
        bare = decompose_chain(ChainSpec(n_s=n_s, n_w=n_w, j0=0.01), _sectors=True)
        for name in ("bare_eigenvalues", "eigenvectors", "parities"):
            assert getattr(bare, name).tobytes() == getattr(dec, name).tobytes(), name
        copy = pickle.loads(pickle.dumps(dec))
        assert copy.eigenvectors.tobytes() == z.tobytes() and copy.offset == 2.0


@pytest.mark.parametrize("n_s, n_w", [(6, 20), (3, 43)])
def test_mirror_sectors_need_no_cluster_repair(n_s, n_w):
    """The chains of `test_near_degenerate_clusters_come_out_orthonormal`:
    each near-degenerate doublet splits into one level per sector, so the
    basis is orthonormal and exact to 1e-13 without a Gram-Schmidt."""
    spec = ChainSpec(n_s=n_s, n_w=n_w, j0=1e-13)
    dec = decompose_chain(spec, _sectors=True)
    z = dec.eigenvectors
    assert np.max(np.abs(z.T @ z - np.eye(dec.n))) < 1e-13
    residual = adjacency_matrix(build_profile(spec)) @ z - z * dec.eigenvalues
    assert np.max(np.abs(residual)) < 1e-13


def test_profiles_and_decompositions_compare_by_identity():
    spec = ChainSpec(n_s=2, n_w=5, j0=0.05)
    for build in (build_profile, decompose_chain):
        first, second = build(spec), build(spec)
        assert first == first and first != second
        assert len({first, second, first}) == 2


def test_wire_spectrum_examples():
    assert np.allclose(wire_spectrum(1), [0.0], atol=1e-15)
    assert np.allclose(
        np.sort(wire_spectrum(3)),
        [-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)],
        atol=1e-14,
    )
    dec = diagonalize(uniform_chain(5, h=0.5))
    assert np.allclose(np.sort(wire_spectrum(5, h=0.5)), dec.eigenvalues, atol=1e-11)


def test_sender_spectrum_examples():
    assert np.allclose(sender_spectrum(1, h=0.3), [0.3], atol=1e-15)
    assert np.allclose(
        np.sort(sender_spectrum(3)),
        [-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)],
        atol=1e-14,
    )
    # cos(pi/5) = (sqrt(5)+1)/4, the four-site block constant
    assert math.isclose(max(sender_spectrum(4)), (math.sqrt(5) + 1) / 4, rel_tol=1e-14)
    dec = diagonalize(uniform_chain(4))
    assert np.allclose(np.sort(sender_spectrum(4)), dec.eigenvalues, atol=1e-11)


def kernel_phases(dec, t):
    """`amplitudes._phases` of a scalar or 1-D time, shaped like `direct_phases`."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    return amplitudes._phases(dec, times).reshape(np.shape(t) + (dec.n,))


def direct_phases(dec, t):
    """exp(-i w_k t) on every level directly, times the offset factor."""
    t = np.asarray(t, dtype=float)[..., None]
    base = np.exp(-1j * dec.bare_eigenvalues * t)
    if dec.offset:
        base = base * np.exp(-1j * dec.offset * t)
    return base


PHASE_TIMES = (0.0, 0.3, 61837.46, 1e6, np.linspace(0.0, 1e6, 97))


def assert_same_bits(a, b):
    # the uint64 view makes the sign of a zero count
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("h", [0.0, 0.7, -1.3])
@pytest.mark.parametrize("n_s", [1, 2, 3, 4])
def test_paired_phases_keep_the_bits_of_the_direct_expression(n_s, h):
    for n_w in (1, 2, 5, 8, 41, 102):   # N = 2 n_s + n_w odd and even
        dec = decompose_chain(ChainSpec(n_s=n_s, n_w=n_w, j0=0.01, h=h))
        assert dec._paired
        for t in PHASE_TIMES:
            assert_same_bits(kernel_phases(dec, t), direct_phases(dec, t))


def test_unpaired_phases_keep_the_bits_of_the_direct_expression():
    onsite = np.zeros(7)
    onsite[2] = 0.4      # an on-site defect breaks the +/- pairing
    dec = diagonalize(CouplingProfile(hop=np.ones(6), onsite=onsite))
    assert not dec._paired
    for t in PHASE_TIMES:
        assert_same_bits(kernel_phases(dec, t), direct_phases(dec, t))
