"""Chain spectra: `diagonalize`, the one public producer; the peak path's
private QL; block spectra.

`diagonalize(profile)` solves with LAPACK `eigh`: a mirror-symmetric
profile in its two half-size mirror sectors, whose parities are exact by
construction (and, for even N on a zero diagonal, its level pairs), and
any other profile in one full `eigh`.  `decompose_chain(spec)` is
`diagonalize` on the chain's profile with h peeled off.

The QL (`_ql_diagonalize`) serves only `decompose_chain(spec, _ql=True)`,
the peak path (`find_transfer_peak` and the `transfer` and `scaling`
commands), whose pinned outputs keep its bits.  It reads the peeled
chain's halved hoppings directly and repairs the two symmetries of such a
chain: exact +/- level pairs (a zero diagonal) and exact parities.
Implicit-shift QL with accumulated eigenvectors, written against float64
and a 30-sweep cap per eigenvalue, in two passes: a scalar pass runs the
recurrence on Python floats, giving the levels, and records every Givens
rotation (one (l, m) pair per sweep, whose rotations act on columns m-1
down to l, and one (c, s) pair per rotation: 16 bytes a rotation); an
apply pass rotates the eigenvector columns in place, in a wavefront that
runs the rotation of sweep j on columns (i, i+1) at step 2j - i, so each
element sees the same arithmetic in the same order as rotating one pair
at a time.  `_ql_diagonalize` runs both passes and the repairs, so every
decomposition comes out whole and the record dies with the call.

Output is deterministic: eigenvalues ascending, each eigenvector's first
nonzero component positive, and for a mirror-symmetric profile every
eigenvector is even or odd bitwise, not just to rounding.  The two
producers agree to roundoff, not bit for bit.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .chain import (ChainSpec, CouplingProfile, NumericalConsistencyError, _size,
                    adjacency_matrix, build_profile)

MACHEP = 2.0 ** -52
MAX_SWEEPS = 30
SIGN_EPS = 1e-12
DEGENERACY_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues ascending; eigenvector k in column k of `eigenvectors`.

    `parities` holds +1/-1 for symmetric/antisymmetric eigenvectors of a
    persymmetric matrix and 0 when the input had no mirror symmetry.

    `bare_eigenvalues` are the eigenvalues less the uniform on-site term
    `offset` (0 unless `decompose_chain` peeled one off), and `eigenvalues`
    is derived from them on first read.  For a chain the bare levels are
    the exact levels of the zero-diagonal hopping part, which come in
    exact +/- pairs.  Folding the offset into each level before multiplying
    by t would round each level differently and break that pairing by
    ~ulp(offset), an error the propagator phases amplify linearly in t; the
    kernel (`amplitudes`) therefore applies the offset as one global factor.

    `diagonalize`, the one public producer, and the peak path's private QL
    both build every field before they construct the record, so it
    pickles and `dataclasses.replace`s like any frozen dataclass.
    """

    bare_eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    parities: np.ndarray
    offset: float = 0.0

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return self.bare_eigenvalues + self.offset

    @property
    def n(self) -> int:
        return len(self.bare_eigenvalues)

    @cached_property
    def _paired(self) -> bool:
        """Whether the bare levels are exact +/- pairs, w_k = -w_{N-1-k}."""
        w = self.bare_eigenvalues
        return bool(np.array_equal(w, -w[::-1]))


def _ql_implicit(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, array, array]:
    """Scalar pass of implicit-shift QL on (diag d, subdiag e): returns the
    eigenvalues unsorted and the record of every Givens rotation, as
    (w, sweeps, factors): `sweeps` holds each sweep's (l, m), interleaved,
    the sweep rotating columns (i, i+1) for i = m-1 down to l; `factors`
    holds each rotation's (c, s), interleaved; both in recording order.

    `_apply_rotations` turns the record into the eigenvectors.
    """
    n = len(d)
    d, e = d.tolist(), e.tolist() + [0.0]
    sweeps, factors = array("l"), array("d")
    record, push = sweeps.extend, factors.append
    sqrt, hypot, copysign = math.sqrt, math.hypot, math.copysign
    for l in range(n):
        for sweep in range(MAX_SWEEPS + 1):
            for m in range(l, n):
                if m == n - 1:
                    break
                if abs(e[m]) <= MACHEP * (abs(d[m]) + abs(d[m + 1])):
                    break
            if m == l:
                break
            if sweep == MAX_SWEEPS:
                raise NumericalConsistencyError(
                    f"tridiagonal QL failed to converge for eigenvalue {l} "
                    f"within {MAX_SWEEPS} sweeps"
                )
            record((l, m))
            p = d[l]
            g = (d[l + 1] - p) / (2.0 * e[l])
            r = hypot(g, 1.0)
            g = d[m] - p + e[l] / (g + copysign(r, g))
            s = 1.0
            c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                # two Givens branches keep |c|,|s| <= 1 without overflow
                if abs(f) >= abs(g):
                    c = g / f
                    r = sqrt(c * c + 1.0)
                    e[i + 1] = f * r
                    s = 1.0 / r
                    c = c * s
                else:
                    s = f / g
                    r = sqrt(s * s + 1.0)
                    e[i + 1] = g * r
                    c = 1.0 / r
                    s = s * c
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                push(c)
                push(s)
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    return np.array(d), sweeps, factors


def _apply_rotations(n: int, sweeps: array, factors: array) -> np.ndarray:
    """The n x n identity with columns (i, i+1) rotated by each recorded
    (c, s), in wavefront order.

    `sweeps` holds (l, m) per QL sweep, whose rotations act on columns
    i = m-1 down to l, and `factors` the matching (c, s) pairs, in recording
    order.  The rotation of sweep j (counted in recording order) on columns
    (i, i+1) runs at step 2j - i.  Column r meets sweep j at steps 2j - r
    and 2j - r + 1, in recording order, and every later sweep at step
    2j - r + 2 or later; two rotations sharing a step come from sweeps
    j != j', so their columns sit 2|j - j'| >= 2 apart.  Each element
    therefore gets the same products and sums in the same order as rotating
    one pair at a time: the result is bitwise identical.
    """
    lm = np.asarray(sweeps, dtype=np.int32).reshape(-1, 2)
    counts = lm[:, 1] - lm[:, 0]
    # rotation k of sweep j = (l, m), whose rotations start at record index
    # k0, acts on column i = m-1 - (k - k0) and runs at step 2j - i
    starts = np.cumsum(counts, dtype=np.int32) - counts
    cols = np.repeat(lm[:, 1] - 1 + starts, counts) - np.arange(len(factors) // 2, dtype=np.int32)
    steps = np.repeat(2 * np.arange(len(lm), dtype=np.int32), counts) - cols
    # stable, so a step keeps recording order: its columns ascend
    order = np.argsort(steps, kind="stable")
    del steps
    cols = cols[order]
    factors = np.asarray(factors).reshape(-1, 2, 1, 1)[order]
    del order
    cosines, sines = factors[:, 0], factors[:, 1]
    signs = np.array([[-1.0], [1.0]])
    # runs of columns 2 apart; a step's columns 2j - step share its parity,
    # so each step starts a new run
    heads = np.flatnonzero(np.diff(cols, prepend=cols[:1] - 1) != 2)
    sizes = np.diff(heads, append=len(cols))
    # rows of zt are the columns of z, and pairs[i] is the (2, n) window of
    # rows (i, i+1): a run's pairs are the basic slice pairs[i:i + 2k:2]
    zt = np.eye(n)
    pairs = np.lib.stride_tricks.as_strided(zt, (n - 1, 2, n), (zt.strides[0],) + zt.strides)
    # one block holds every run's swapped rows: a fresh block per run would
    # fault its pages in again at large n
    block = np.empty((sizes.max(initial=0), 2, n))
    for start, k, i in zip(heads.tolist(), sizes.tolist(), cols[heads].tolist()):
        pair, swapped = pairs[i:i + 2 * k:2], block[:k]
        # (c lo + (-s) hi, c hi + s lo): bitwise (c lo - s hi, s lo + c hi)
        np.multiply(pair[:, ::-1], sines[start:start + k] * signs, out=swapped)
        pair *= cosines[start:start + k]
        pair += swapped
    return zt.T


def _purify_parity(z: np.ndarray) -> np.ndarray:
    """Project each column onto its dominant mirror-parity branch."""
    parities = np.empty(z.shape[1])
    for k in range(z.shape[1]):
        v = z[:, k]
        rev = v[::-1]
        sym = 0.5 * (v + rev)
        anti = 0.5 * (v - rev)
        if np.dot(sym, sym) >= np.dot(anti, anti):
            w, parities[k] = sym, 1.0
        else:
            w, parities[k] = anti, -1.0
        z[:, k] = w / math.sqrt(np.dot(w, w))
    return parities


def _reorthogonalize_clusters(w: np.ndarray, z: np.ndarray) -> None:
    """Gram-Schmidt inside eigenvalue clusters tighter than DEGENERACY_EPS."""
    start = 0
    for stop in range(1, len(w) + 1):
        if stop == len(w) or w[stop] - w[stop - 1] > DEGENERACY_EPS:
            for a in range(start + 1, stop):
                for b in range(start, a):
                    z[:, a] -= np.dot(z[:, b], z[:, a]) * z[:, b]
                z[:, a] /= math.sqrt(np.dot(z[:, a], z[:, a]))
            start = stop


def _fix_signs(z: np.ndarray) -> None:
    """Negate each column whose first entry above SIGN_EPS in magnitude
    (row 0 when there is none) is negative."""
    lead = np.argmax(np.abs(z) > SIGN_EPS, axis=0)
    flip = z[lead, np.arange(z.shape[1])] < 0
    z[:, flip] = -z[:, flip]


def _ql_diagonalize(profile: CouplingProfile) -> SpectralDecomposition:
    """The QL of `decompose_chain(spec, _ql=True)`, on the chain's profile
    with h peeled off (a zero diagonal and mirror symmetric): the scalar
    pass, the O(N^3) apply pass, then the pairing step and the parity,
    cluster and sign repairs."""
    try:
        d, sweeps, factors = _ql_implicit(profile.onsite, profile.hop / 2.0)
    except ZeroDivisionError as exc:
        # products of a tiny coupling underflowed to f = g = 0 in a Givens rotation
        raise NumericalConsistencyError(
            "tridiagonal QL broke down: division by zero in a Givens rotation "
            "(products of a coupling underflowed)"
        ) from exc
    order = np.argsort(d, kind="stable")
    # The zero diagonal makes the chain bipartite, so its levels come in
    # exact +/- pairs.  The QL's pair only to roundoff, a mismatch the
    # propagator phases amplify linearly in t: enforce the pairing.
    w = d[order]
    w = 0.5 * (w - w[::-1])
    z = _apply_rotations(len(w), sweeps, factors)[:, order]
    parities = _purify_parity(z)
    # a mirror chain of N sites has exactly ceil(N/2) even eigenvectors
    even, expected = np.count_nonzero(parities > 0), (len(w) + 1) // 2
    if even != expected:
        raise NumericalConsistencyError(
            f"eigensolver did not resolve the mirror parities: {even} of {len(w)} "
            f"eigenvectors came out even, not {expected}"
        )
    _reorthogonalize_clusters(w, z)
    _fix_signs(z)
    return SpectralDecomposition(w, z, parities)


def diagonalize(profile: CouplingProfile) -> SpectralDecomposition:
    """Spectrum of the chain matrix with `profile.onsite` on the diagonal
    and `profile.hop / 2` off it, with its eigenvectors and parities, from
    LAPACK `eigh`.

    A mirror-symmetric profile of N = 2M or 2M + 1 sites is solved in its
    two mirror sectors.  With T the matrix on sites 0..M-1, c the bond
    that crosses the centre and J the reversal, an even N gives the even
    sector T + c e e^T (e the last unit vector), vectors [u; Ju]/sqrt2,
    and the odd sector T - c e e^T, vectors [v; -Jv]/sqrt2.  On a zero
    diagonal the odd sector is -S (T + c e e^T) S (S = diag((-1)^j)), so
    v = Su at the exactly negated levels, from the same `eigh`.  An odd N
    gives the even sector on sites 0..M with the bond to the centre scaled
    by sqrt2, vectors [u_<M/sqrt2, u_M, J u_<M/sqrt2], and the odd sector
    T, vectors [v/sqrt2, 0, -Jv/sqrt2].  Every column is mirror even or
    odd by construction and the sectors are orthogonal, so no repair
    follows.  Any other profile takes one `eigh` of the full matrix, with
    zero parities.  A zero diagonal (a bipartite chain) then gets exact
    +/- level pairs from the pairing step, and every column `_fix_signs`.
    """
    d, hop = profile.onsite, profile.hop / 2.0
    n, m = len(d), len(d) // 2
    bipartite = not np.any(d)
    if profile.is_mirror_symmetric():
        root2 = math.sqrt(2.0)
        even = np.diag(d[:n - m]) + np.diag(hop[:n - m - 1], -1)
        odd = even[:m, :m].copy()
        if n % 2:
            even[m, m - 1:m] *= root2   # an empty slice for N = 1
        else:
            even[-1, -1] += hop[m - 1]
            odd[-1, -1] -= hop[m - 1]
        lam, u = np.linalg.eigh(even)
        if n % 2 == 0 and bipartite:
            mu, v = -lam, u * (1 - 2 * (np.arange(m) % 2))[:, None]
        else:
            mu, v = np.linalg.eigh(odd)
        x, y = u[:m] / root2, v / root2
        levels = np.concatenate([lam, mu])
        z = np.hstack([np.vstack([x, u[m:], x[::-1]]),
                       np.vstack([y, np.zeros((n - 2 * m, m)), -y[::-1]])])
        parities = np.repeat([1.0, -1.0], [n - m, m])
    else:
        levels, z = np.linalg.eigh(adjacency_matrix(profile))
        parities = np.zeros(n)
    order = np.argsort(levels, kind="stable")
    w, z = levels[order], z[:, order]
    parities = parities[order]
    if bipartite:
        w = 0.5 * (w - w[::-1])
    _fix_signs(z)
    return SpectralDecomposition(w, z, parities)


def decompose_chain(spec: ChainSpec, *, _ql: bool = False) -> SpectralDecomposition:
    """Profile -> decomposition for a chain configuration.

    The uniform on-site energy commutes with the hopping part, so it is
    peeled off the on-site vector (h - h is exactly 0.0) before the
    eigensolve and added back to the eigenvalues; changing h therefore
    leaves the eigenvectors bitwise identical.

    The peeled profile goes to `diagonalize`, whose two mirror sectors
    give exact parities and level pairs.  `_ql=True` runs the private QL
    on it instead, for the peak path (`find_transfer_peak`, `transfer`,
    `scaling`), whose pinned outputs keep the QL's bits: the two producers
    agree to roundoff, not bit for bit.
    """
    profile = build_profile(spec)
    bare = CouplingProfile(hop=profile.hop, onsite=profile.onsite - spec.h)
    return replace((_ql_diagonalize if _ql else diagonalize)(bare), offset=spec.h)


def wire_spectrum(n_w: int, h: float = 0.0) -> np.ndarray:
    """Uncoupled uniform-wire eigenvalues h + cos(q*pi/(n_w+1)), q = 1..n_w."""
    n_w = _size("n_w", n_w)
    q = np.arange(1, n_w + 1)
    return h + np.cos(q * np.pi / (n_w + 1))


def sender_spectrum(n_s: int, h: float = 0.0) -> np.ndarray:
    """Uncoupled sender-block eigenvalues h + cos(k*pi/(n_s+1)), k = 1..n_s."""
    n_s = _size("n_s", n_s)
    k = np.arange(1, n_s + 1)
    return h + np.cos(k * np.pi / (n_s + 1))
