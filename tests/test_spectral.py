import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
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


def branch_profile(n, mirror, zero_diagonal):
    """A seeded random profile of n sites, mirrored and with its diagonal
    zeroed on request."""
    rng = np.random.default_rng(100 * n + 10 * mirror + zero_diagonal)
    hop, onsite = rng.uniform(0.1, 2.0, n - 1), rng.uniform(-1.0, 1.0, n)
    if mirror:
        hop, onsite = hop + hop[::-1], onsite + onsite[::-1]
    return CouplingProfile(hop=hop, onsite=0.0 * onsite if zero_diagonal else onsite)


BRANCH_PROFILES = {
    f"{'mirror' if mirror else 'general'}-{'zero' if zero else 'diagonal'}-{n}":
        branch_profile(n, mirror, zero)
    for mirror in (True, False) for zero in (True, False) for n in (12, 13)
}
BRANCH_PROFILES.update({
    "one-site": CouplingProfile(hop=[], onsite=[0.4]),
    "two-site": CouplingProfile(hop=[1.0], onsite=[0.3, 0.3]),
    "dimers": CouplingProfile(hop=[1.0, 0.0, 1.0], onsite=np.zeros(4)),
})


@pytest.mark.parametrize("name", BRANCH_PROFILES)
def test_diagonalize_matches_a_dense_reference_on_every_branch(name):
    """Mirror sectors (one `eigh` and its S-negation, or two) or one full
    `eigh`, on even and odd N: levels within N eps max|w| of a dense
    `eigvalsh`, an orthonormal basis with a residual at roundoff, exact
    column parities on a mirror profile and exact +/- level pairs on a
    zero diagonal."""
    profile = BRANCH_PROFILES[name]
    dec = diagonalize(profile)
    n, w, z = dec.n, dec.eigenvalues, dec.eigenvectors
    scale = n * np.finfo(float).eps * np.max(np.abs(w))
    assert np.max(np.abs(w - np.linalg.eigvalsh(adjacency_matrix(profile)))) <= scale
    assert np.max(np.abs(z.T @ z - np.eye(n))) <= n * np.finfo(float).eps
    assert np.max(np.abs(adjacency_matrix(profile) @ z - z * w)) <= scale
    if profile.is_mirror_symmetric():
        assert np.array_equal(z[::-1], dec.parities * z)
    else:
        assert not np.any(dec.parities)
    if not np.any(profile.onsite):
        assert np.array_equal(w, -w[::-1])


@pytest.mark.parametrize("h", [0.0, 0.3])
def test_diagonalize_resolves_near_degenerate_mirror_doublets(h):
    """At J0 = 1e-16 the sender and receiver doublets of (2,41) are
    degenerate to roundoff.  The QL that served `diagonalize` before came
    out with max |V^T V - I| = 0.80 and a residual of 0.29 at h = 0, and
    raised on the parity count at h = 0.3; the mirror sectors split each
    doublet into one level per sector."""
    profile = build_profile(ChainSpec(n_s=2, n_w=41, j0=1e-16, h=h))
    dec = diagonalize(profile)
    z = dec.eigenvectors
    assert np.max(np.abs(z.T @ z - np.eye(dec.n))) <= 1e-14
    assert np.max(np.abs(adjacency_matrix(profile) @ z - z * dec.eigenvalues)) <= 1e-14


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
    for ql in (False, True):
        base = decompose_chain(ChainSpec(n_s=2, n_w=5, j0=0.03, h=0.0), _ql=ql)
        lift = decompose_chain(ChainSpec(n_s=2, n_w=5, j0=0.03, h=0.9), _ql=ql)
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
    "2-41": lambda: decompose_chain(ChainSpec(n_s=2, n_w=41, j0=0.01), _ql=True),
    "4-101": lambda: decompose_chain(ChainSpec(n_s=4, n_w=101, j0=0.01), _ql=True),
    "3-43-weak": lambda: decompose_chain(ChainSpec(n_s=3, n_w=43, j0=1e-4), _ql=True),
    "2-5-h": lambda: decompose_chain(ChainSpec(n_s=2, n_w=5, j0=0.03, h=0.9), _ql=True),
    "asymmetric": lambda: diagonalize(validate_asymmetry_profile()),
    "random": lambda: diagonalize(random_profile(np.random.default_rng(31), 37)),
    "random-zero-diagonal":
        lambda: diagonalize(random_zero_diagonal_profile(np.random.default_rng(32), 36)),
}

# sha256 over the bytes of eigenvalues, bare_eigenvalues, eigenvectors and
# parities, in that order.  The four chains come from the QL, through
# `decompose_chain(spec, _ql=True)` as the peak path decomposes them, and
# were produced by commit 46990f8 (the QL that recorded one column per
# rotation).  The three profiles come from `diagonalize`'s LAPACK `eigh`
# (one full solve each: none is mirror symmetric), re-pinned when it
# replaced the QL there: levels moved by at most 2.4e-15, vectors by at
# most 4.2e-14, parities not at all.  With Python 3.11, numpy 2.4 and
# OpenBLAS on x86-64, the same with 1 or 2 OpenBLAS threads
DECOMPOSITION_SHA256 = {
    "2-41": "c9cbe22ac29a898c994085fc39e15a45501a20593f7f0f9301bd5bd78d92498e",
    "4-101": "80812d7d0af96a22f352f2a61f2ef7e9bca4d24278b5d86bf41c6f895dcb57a2",
    "3-43-weak": "b7890dac3096410c54e0c305747d3353c0de0a79304267c33cf15f707450ac8c",
    "2-5-h": "dc5c51ef1a09eb21bf646450bdb71ddabb1d550eb7b14f5246e94aeac0fa21ec",
    "asymmetric": "051f4ec78df829299a61ff19fe383c2272efb258f480e42d63e5e7ac225b2182",
    "random": "6d7f74be5b2c89b2550886bef90e03caefeb996162a3b4f474764f8805d8bc27",
    "random-zero-diagonal":
        "2dfaab9471ee903319676b90df49a3a3ccf18a833f3a05bbde7d00a0d7cf7f56",
}


def decomposition_digest(dec):
    digest = hashlib.sha256()
    for values in (dec.eigenvalues, dec.bare_eigenvalues, dec.eigenvectors, dec.parities):
        digest.update(values.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
def test_decompositions_keep_their_bits(name):
    """The pinned digest, which a pickled copy keeps and a
    `dataclasses.replace` of the offset keeps in its vectors and parities."""
    dec = DECOMPOSITIONS[name]()
    assert decomposition_digest(dec) == DECOMPOSITION_SHA256[name]
    assert decomposition_digest(pickle.loads(pickle.dumps(dec))) == DECOMPOSITION_SHA256[name]
    moved = dataclasses.replace(dec, offset=dec.offset + 0.5)
    assert all(getattr(moved, field) is getattr(dec, field)
               for field in ("bare_eigenvalues", "eigenvectors", "parities"))
    assert moved.eigenvalues.tobytes() == (dec.bare_eigenvalues + moved.offset).tobytes()


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
    for profile in profiles:   # bytes: signed zeros count
        _, sweeps, factors = spectral._ql_implicit(profile.onsite, profile.hop / 2.0)
        batched = spectral._apply_rotations(profile.n_sites, sweeps, factors)
        assert batched.tobytes() == rotate_one_at_a_time(profile.n_sites, sweeps,
                                                         factors).tobytes()
    specs = [ChainSpec(n_s=4, n_w=101, j0=0.01), ChainSpec(n_s=2, n_w=102, j0=0.01)]
    batched = [decompose_chain(s, _ql=True) for s in specs]
    monkeypatch.setattr(spectral, "_apply_rotations", rotate_one_at_a_time)
    sequential = [decompose_chain(s, _ql=True) for s in specs]
    for got, want in zip(batched, sequential):
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()
        assert got.parities.tobytes() == want.parities.tobytes()


@pytest.fixture
def passes(monkeypatch):
    """Counts of QL scalar passes (`_ql_implicit`, one per QL
    decomposition), of `diagonalize` calls reached through the `spectral`
    module and of eigenvector apply passes."""
    counts = {"ql": 0, "lapack": 0, "applies": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    for key, name in (("ql", "_ql_implicit"), ("lapack", "diagonalize"),
                      ("applies", "_apply_rotations")):
        monkeypatch.setattr(spectral, name, counted(key, getattr(spectral, name)))
    return counts


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK


# the QL runs only where pinned bits need it: the peak path
# (`find_transfer_peak` and the `transfer` and `scaling` commands, one chain
# per wire length)
PRODUCERS = {
    "spectrum": (lambda: run_cli(["spectrum", "--ns", "4", "--nw", "101"]), 0),
    "oracle-check": (lambda: run_cli(["oracle-check"]), 0),
    "perturbation": (lambda: run_cli(["perturbation", "--ns", "3", "--nw", "43",
                                      "--j0", "1e-3"]), 0),
    "battery": (lambda: run_cli(["battery", "--nb", "2", "--nw", "8", "--j0", "0.05"]), 0),
    "battery_metrics": (lambda: battery_metrics(ChainSpec(n_s=2, n_w=8, j0=0.05, h=2.0)), 0),
    "perturbation_report":
        (lambda: perturbation_report(ChainSpec(n_s=3, n_w=43, j0=1e-3)), 0),
    "predict_transfer_time":
        (lambda: predict_transfer_time(ChainSpec(n_s=2, n_w=41, j0=0.01)), 0),
    "ratio_diagnostics": (lambda: ratio_diagnostics(ChainSpec(n_s=4, n_w=41, j0=1e-3)), 0),
    "check_ratios": (cli._check_ratios, 0),
    "diagonalize": (lambda: spectral.diagonalize(validate_asymmetry_profile()), 0),
    "validate": (lambda: run_cli(["validate"]), 0),
    "transfer": (lambda: run_cli(["transfer", "--ns", "2", "--nw", "41"]), 1),
    "find_transfer_peak": (lambda: find_transfer_peak(ChainSpec(n_s=1, n_w=5, j0=0.1)), 1),
    "scaling": (lambda: run_cli(["scaling", "--ns", "1", "--lmin", "1", "--lmax", "2"]), 2),
}


@pytest.mark.parametrize("name", PRODUCERS)
def test_each_entry_point_runs_its_producer(passes, name):
    """The QL decompositions an entry point runs, each with its one apply
    pass (the QL builds its vectors before it returns, and none twice);
    one that runs none takes its spectra from `diagonalize`."""
    run, ql = PRODUCERS[name]
    run()
    assert passes["ql"] == passes["applies"] == ql
    assert ql or passes["lapack"] > 0


@pytest.mark.parametrize("name", ["perturbation_report", "predict_transfer_time",
                                  "ratio_diagnostics", "check_ratios"])
def test_eigenvalue_only_callers_run_no_apply_pass(passes, name):
    """Callers that read levels only take them from `diagonalize`."""
    PRODUCERS[name][0]()
    assert passes["lapack"] > 0
    assert passes["ql"] == passes["applies"] == 0


@pytest.mark.parametrize("name", ["find_transfer_peak"])
def test_vector_callers_run_one_apply_pass_per_decomposition(passes, name):
    """The QL builds the vectors before it returns: one apply pass per QL
    scalar pass, none run twice."""
    PRODUCERS[name][0]()
    assert passes["ql"] > 0
    assert passes["applies"] == passes["ql"]


def test_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
    with pytest.raises(RuntimeError, match="failed to converge"):
        decompose_chain(ChainSpec(n_s=1, n_w=1, j0=0.05), _ql=True)


def test_unresolved_mirror_parities_raise():
    # at J0 = 1e-16 the QL's near-degenerate doublets of (2,6) land on the
    # wrong branches: 7 of the 10 eigenvectors come out even, not 5
    with pytest.raises(NumericalConsistencyError, match="7 of 10"):
        decompose_chain(ChainSpec(n_s=2, n_w=6, j0=1e-16), _ql=True)


@pytest.mark.parametrize("n_s, n_w, h, ql", [
    pytest.param(6, 20, 0.0, True, id="6-20"),
    pytest.param(3, 43, 0.0, True, id="3-43"),
    pytest.param(6, 20, 0.5, False, id="6-20-h-diagonalize"),
    pytest.param(3, 43, 0.5, False, id="3-43-h-diagonalize"),
])
def test_near_degenerate_clusters_come_out_orthonormal(n_s, n_w, h, ql):
    """At J0 = 1e-13 the sender and receiver levels (and the wire levels
    resonant with them) split by less than DEGENERACY_EPS.  On the QL the
    cluster Gram-Schmidt keeps the basis orthonormal (off by 0.27 and 0.077
    without it).  `diagonalize` splits each doublet into one level per
    mirror sector; with h on the diagonal (at h = 0 these are the chains of
    `test_mirror_sectors_need_no_cluster_repair`) an even N solves both
    sectors with `eigh`."""
    spec = ChainSpec(n_s=n_s, n_w=n_w, j0=1e-13, h=h)
    dec = decompose_chain(spec, _ql=True) if ql else diagonalize(build_profile(spec))
    z = dec.eigenvectors
    assert np.max(np.abs(z.T @ z - np.eye(dec.n))) < 1e-13
    residual = adjacency_matrix(build_profile(spec)) @ z - z * dec.eigenvalues
    assert np.max(np.abs(residual)) < 1e-13


@pytest.mark.parametrize("n_s", [1, 2, 3, 4])
def test_mirror_sectors_pair_and_mirror_exactly(n_s):
    """The mirror-sector decomposition on odd and even N: exact
    level pairs and column parities with no repair pass, the QL's parities,
    levels within the roundoff bound (N + 1) eps max|w| that `find_clusters`
    uses, an orthonormal basis within gamma_2N = N eps / (1 - N eps), and
    vectors that do not depend on h; it pickles with its vectors."""
    eps = np.finfo(float).eps
    for n_w in (1, 2, 7, 8, 40, 43):
        spec = ChainSpec(n_s=n_s, n_w=n_w, j0=0.01, h=2.0)
        dec, ql = decompose_chain(spec), decompose_chain(spec, _ql=True)
        n, w, z = dec.n, dec.bare_eigenvalues, dec.eigenvectors
        assert np.array_equal(w, -w[::-1]), n_w
        assert all(np.array_equal(z[::-1, k], dec.parities[k] * z[:, k]) for k in range(n))
        assert np.array_equal(dec.parities, ql.parities), n_w
        assert np.max(np.abs(w - ql.bare_eigenvalues)) <= (n + 1) * eps * np.max(np.abs(w))
        assert np.max(np.abs(z.T @ z - np.eye(n))) <= n * eps / (1.0 - n * eps), n_w
        bare = decompose_chain(ChainSpec(n_s=n_s, n_w=n_w, j0=0.01))
        for name in ("bare_eigenvalues", "eigenvectors", "parities"):
            assert getattr(bare, name).tobytes() == getattr(dec, name).tobytes(), name
        copy = pickle.loads(pickle.dumps(dec))
        assert copy.eigenvectors.tobytes() == z.tobytes() and copy.offset == 2.0


@pytest.mark.parametrize("n_s, n_w, j0", [
    (6, 20, 1e-13), (3, 43, 1e-13), (2, 2, 1e-20), (2, 41, 1e-16), (5, 101, 1e-10),
], ids=["6-20", "3-43", "2-2", "2-41", "5-101"])
def test_mirror_sectors_need_no_cluster_repair(n_s, n_w, j0):
    """The chains of `test_near_degenerate_clusters_come_out_orthonormal`,
    and three whose QL basis is far from orthonormal although its parity
    count comes out right (max |V^T V - I| of 0.99999990, 0.80 and 9.2e-7
    through `_ql=True`): each near-degenerate doublet splits into one level
    per sector, so the basis is orthonormal to N eps and exact to 1e-13
    without a Gram-Schmidt."""
    spec = ChainSpec(n_s=n_s, n_w=n_w, j0=j0)
    dec = decompose_chain(spec)
    z = dec.eigenvectors
    assert np.max(np.abs(z.T @ z - np.eye(dec.n))) <= dec.n * np.finfo(float).eps
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
