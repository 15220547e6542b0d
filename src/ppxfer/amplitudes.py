"""Transition amplitudes and n-excitation transfer probabilities.

The single-particle propagator F(t) determines everything: the transfer
probability of n excitations is |det|^2 (fermions) or |perm|^2 (bosons)
of the n x n sender-receiver submatrix of F.  Scanning uses two tiers
because the interesting peak sits on a slow envelope (frequency ~ J0^2)
carrying fast structure (from wire-resonant clusters and the J band):
a coarse envelope grid locates the peak region, a fine grid resolves the
cluster-scale alignment factor, and a dense bare-J window sweep with a
golden-section polish nails the maximum through the band-scale ripple.

Every grid (scan, coarse pass, window sweep, battery samples) is evaluated
in array calls along the time axis, not one time point at a time:
`propagator_block` builds the (T, rows, cols) stack of propagator blocks in
chunks of about CHUNK_ELEMENTS complex numbers, and `fermion_prob` /
`boson_prob` reduce a whole stack at once.  The golden polish evaluates
each probe it has not seen together with every probe of its next
GOLDEN_LOOKAHEAD iterations in one array call, and returns the bits of a
one-probe-at-a-time search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .spectral import SpectralDecomposition, decompose_chain
from . import perturbation

DET_DIM_CAP = 64
PERM_DIM_CAP = 12
PROB_TOL = 1e-9
CHUNK_ELEMENTS = 1 << 13            # complex numbers per time chunk of a batched product

COARSE_POINTS_PER_SLOW_PERIOD = 20  # coarse spacing pi/(20 delta*)
FINE_POINTS_PER_FAST_PERIOD = 40    # fine spacing pi/(40 delta_max)
FINE_WINDOW_COARSE_STEPS = 2
HORIZON_FACTOR = 2.4                # in units of pi/(2 delta*)
PEAK_WINDOW_PERIODS = 10            # dense peak-window half-width, in 2*pi/J
PEAK_POINTS_PER_PERIOD = 64
PEAK_WINDOW_HOPS = 8                # max dense-window ascent steps
GOLDEN_ITERS = 60
GOLDEN_LOOKAHEAD = 3                # golden iterations evaluated ahead of a missed probe
REFINE_TOP = 5                      # local maxima polished by scan_max_probability


class NumericalConsistencyError(RuntimeError):
    """A computed probability was non-finite or left [0, 1] beyond tolerance."""


@dataclass(frozen=True)
class TransferCurve:
    times: np.ndarray
    p_fermion: np.ndarray
    p_boson: np.ndarray


@dataclass(frozen=True)
class PeakReport:
    """Result of a two-tier peak search."""

    t_fermion: float
    p_fermion: float
    t_boson: float
    p_boson: float
    curve: TransferCurve
    coarse_step: float
    horizon: float
    delta_slow: float
    delta_max: float


def propagator_block(dec: SpectralDecomposition, rows, cols, times) -> np.ndarray:
    """F(t) on the sites rows x cols for every t in a 1-D time array.

    rows and cols are 0-based site indices; the result has shape
    (T, len(rows), len(cols)) with entry [k, a, b] = f_{rows[a]+1}^{cols[b]+1}(times[k]).
    This is the one place eigenvectors meet phases.  Each time evaluates
    the same expression (V_rows * phases(t)) @ V_cols^T, so a point agrees
    with the same point inside a grid; the (times, rows, N) intermediate is
    built one chunk of about CHUNK_ELEMENTS complex numbers at a time, so
    scratch memory does not grow with the grid.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be one-dimensional")
    left = dec.eigenvectors[rows, :]
    right = dec.eigenvectors[cols, :].T
    out = np.empty((len(times), len(left), right.shape[1]), dtype=complex)
    for part in time_chunks(len(times), left.size):
        out[part] = (left * dec.phases(times[part])[:, None, :]) @ right
    return out


def time_chunks(n_times: int, width: int) -> list[slice]:
    """Consecutive slices of a time axis, each carrying about CHUNK_ELEMENTS
    complex numbers when every time point carries `width` of them."""
    step = max(1, CHUNK_ELEMENTS // max(1, width))
    return [slice(start, start + step) for start in range(0, n_times, step)]


def _square_stack(sub, cap: int, name: str) -> np.ndarray:
    """A (T, n, n) complex copy of one square block or a stack of them."""
    a = np.array(sub, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("submatrix must be square")
    n = a.shape[-1]
    if n > cap:
        raise ValueError(f"{name} capped at {cap}, got {n}")
    return a.reshape(-1, n, n)


def _like_input(p: np.ndarray, sub):
    """A float for one block, the (T,) array for a stack."""
    return float(p[0]) if np.ndim(sub) == 2 else p


def _abs_squared(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """|re + i im|^2 as libm hypot, then pow: the bits of the scalar
    abs(z) ** 2, which numpy's vector complex abs and ** 2 do not always
    reproduce."""
    return np.float_power(np.hypot(re, im), 2)


def fermion_prob(sub):
    """|det|^2 via complex LU with partial pivoting.

    Takes one (n, n) block (returns a float) or a (T, n, n) stack (returns
    a (T,) array); the stack is eliminated in lockstep, each block with its
    own pivots and the rounding of a single block.
    """
    a = _square_stack(sub, DET_DIM_CAP, "determinant")
    count, n = len(a), a.shape[-1]
    # the real and imaginary parts of det, multiplied out pivot by pivot
    # with every real product rounded on its own, as the scalar complex
    # product does (numpy's vector one may fuse them); row swaps only flip
    # the sign of det, which |det|^2 ignores
    re, im = np.ones(count), np.zeros(count)
    singular = np.zeros(count, dtype=bool)
    for k in range(n):
        lead = np.argmax(np.abs(a[:, k:, k]), axis=1)
        swap = np.flatnonzero(lead)
        if len(swap):
            lead = lead[swap] + k
            row_k = a[swap, k]
            a[swap, k] = a[swap, lead]
            a[swap, lead] = row_k
        pivot = a[:, k, k].copy()
        zero = pivot == 0
        if zero.any():
            # a zero pivot (its whole column below is zero too) ends that
            # block at det = 0; dividing by 1 keeps the lockstep finite
            singular |= zero
            pivot[zero] = 1.0
        re, im = re * pivot.real - im * pivot.imag, re * pivot.imag + im * pivot.real
        if k + 1 < n:
            col = a[:, k + 1:, k]
            col /= pivot[:, None]
            a[:, k + 1:, k + 1:] -= col[:, :, None] * a[:, None, k, k + 1:]
    p = _abs_squared(re, im)
    p[singular] = 0.0
    return _like_input(p, sub)


def boson_prob(sub):
    """|perm|^2 via Ryser's formula with Gray-code subset updates.

    Takes one (n, n) block (returns a float) or a (T, n, n) stack (returns
    a (T,) array); every block follows the same subset sequence.
    """
    a = _square_stack(sub, PERM_DIM_CAP, "permanent")
    count, n = len(a), a.shape[-1]
    if n == 0:
        return _like_input(np.ones(count), sub)
    w = np.zeros((count, n), dtype=complex)
    total = np.zeros(count, dtype=complex)
    gray = 0
    for g in range(1, 1 << n):
        new_gray = g ^ (g >> 1)
        j = (new_gray ^ gray).bit_length() - 1
        if new_gray & (1 << j):
            w += a[:, :, j]
        else:
            w -= a[:, :, j]
        gray = new_gray
        if gray.bit_count() % 2:
            total -= np.multiply.reduce(w, axis=1)
        else:
            total += np.multiply.reduce(w, axis=1)
    if n % 2:
        total = -total
    return _like_input(_abs_squared(total.real, total.imag), sub)


def single_particle_bound(n_s: int, i: int, j: int) -> float:
    """Upper bound on max_t |f_i^j(t)| from the block-mode overlaps.

    Equals 1 exactly when i = j or i + j = n_s + 1; below 1 otherwise.
    """
    if not (1 <= i <= n_s and 1 <= j <= n_s):
        raise ValueError(f"need 1 <= i,j <= n_s, got ({i}, {j}), n_s={n_s}")
    k = np.arange(1, n_s + 1)
    terms = np.abs(np.sin(k * np.pi * j / (n_s + 1)) * np.sin(k * np.pi * i / (n_s + 1)))
    return float(2.0 / (n_s + 1) * np.sum(terms))


class SubmatrixEvaluator:
    """Sender-receiver submatrix from one fixed decomposition.

    The n_s x n_s block has entry (a, b) = f_a^{N+1-b} (1-based): mirror-site
    amplitudes land on the main diagonal, and for a mirror-symmetric chain
    the block is symmetric.  A scalar t gives the (n_s, n_s) block and float
    probabilities; a 1-D time array gives the (T, n_s, n_s) stack and (T,)
    probability arrays.
    """

    def __init__(self, dec: SpectralDecomposition, n_s: int):
        n = dec.n
        if not 1 <= n_s <= n // 2:
            raise ValueError(f"need 1 <= n_s <= N/2, got n_s={n_s}, N={n}")
        self.dec = dec
        self.rows = np.arange(n_s)
        # receiver sites ordered N, N-1, ..., N+1-n_s to put mirrors on the diagonal
        self.cols = np.arange(n - 1, n - 1 - n_s, -1)
        self.n_s = n_s

    def submatrix(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        block = propagator_block(self.dec, self.rows, self.cols, t.reshape(-1))
        return block.reshape(t.shape + block.shape[1:])

    def p_fermion(self, t):
        return _checked_prob(fermion_prob(self.submatrix(t)))

    def p_boson(self, t):
        return _checked_prob(boson_prob(self.submatrix(t)))


def _checked_prob(p):
    """Clamp roundoff into [0, 1]; raise on NaN, inf or a real excursion.

    A float gives a float, an array an array.
    """
    p = np.asarray(p, dtype=float)
    bad = ~((p >= -PROB_TOL) & (p <= 1.0 + PROB_TOL))
    if np.any(bad):
        raise NumericalConsistencyError(
            f"probability {p[bad].flat[0]} is not finite or lies outside [0, 1] "
            "beyond tolerance")
    p = np.clip(p, 0.0, 1.0)
    return float(p) if p.ndim == 0 else p


def _checked_grid(t_grid) -> np.ndarray:
    """An explicit time grid as a float array; raise unless it is 1-D,
    finite and strictly increasing."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not np.all(np.isfinite(t_grid)) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must be one-dimensional, finite and strictly increasing")
    return t_grid


def scan_transfer(spec: ChainSpec, t_grid: np.ndarray,
                  dec: SpectralDecomposition | None = None) -> TransferCurve:
    """Fermion and boson transfer probabilities over an explicit time grid."""
    t_grid = _checked_grid(t_grid)
    if dec is None:
        dec = decompose_chain(spec)
    ev = SubmatrixEvaluator(dec, spec.n_s)
    p_f = np.empty(len(t_grid))
    p_b = np.empty(len(t_grid))
    # blocks are made and reduced chunk by chunk, so only the two
    # probability curves grow with the grid
    for part in time_chunks(len(t_grid), spec.n_s ** 2):
        sub = ev.submatrix(t_grid[part])
        p_f[part] = _checked_prob(fermion_prob(sub))
        p_b[part] = _checked_prob(boson_prob(sub))
    return TransferCurve(times=t_grid, p_fermion=p_f, p_boson=p_b)


def _golden_max(f, a: float, b: float) -> tuple[float, float]:
    """Golden-section maximum of f on [a, b]; returns (argmax, max).

    f takes a 1-D time array and returns the values at those times.  Where
    the next probe lands depends only on the bracket and on which way each
    comparison goes, so a probe that is not yet known is evaluated in one
    array call together with every probe the next GOLDEN_LOOKAHEAD
    iterations can ask for, both ways of each comparison.  The loop then
    consumes the same probes as a one-at-a-time search and returns the same
    (t, value), provided f gives a time the same value alone or inside an
    array (as `propagator_block` does).  f sees each distinct t once, which
    also covers the repeats once the bracket has shrunk to adjacent floats.
    """
    seen = {}
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def evaluate(times, a, b, x1, x2):
        # bracket (a, b) with inner probes x1 and x2, as in the loop below
        brackets = [(a, b, x1, x2)]
        for _ in range(GOLDEN_LOOKAHEAD):
            reachable = []
            for a, b, x1, x2 in brackets:
                up = x1 + invphi * (b - x1)       # f1 < f2: a moves to x1
                down = x2 - invphi * (x2 - a)     # otherwise: b moves to x2
                reachable += [(x1, b, x2, up), (a, x2, down, x1)]
                times += [up, down]
            brackets = reachable
        new = [t for t in dict.fromkeys(times) if t not in seen]
        seen.update(zip(new, np.asarray(f(np.array(new))).tolist()))

    def probe(t, *bracket):
        if t not in seen:
            evaluate([t], *bracket)
        return seen[t]

    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    evaluate([x1, x2], a, b, x1, x2)
    f1, f2 = seen[x1], seen[x2]
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    for _ in range(GOLDEN_ITERS):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = probe(x2, a, b, x1, x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = probe(x1, a, b, x1, x2)
        if f1 >= best_f:
            best_x, best_f = x1, f1
        if f2 >= best_f:
            best_x, best_f = x2, f2
    return best_x, best_f


def _window_max(f, center: float, j: float) -> tuple[float, float]:
    """Maximum of f over a dense bare-J window around center.

    The two-tier grid resolves splitting scales only, but the probability
    also ripples with period ~ 2 pi / J, so the final candidate needs a
    sweep dense on that scale.  The golden polish is bracketed by one
    window step, inside which the curve is unimodal; the sampled maximum
    wins if the polish lands lower.  f takes a 1-D time array: the whole
    window, then the polish's look-ahead batches.
    """
    half_window = PEAK_WINDOW_PERIODS * 2.0 * math.pi / j
    step = 2.0 * math.pi / (j * PEAK_POINTS_PER_PERIOD)
    grid = np.arange(max(0.0, center - half_window), center + half_window, step)
    values = f(grid)
    k = int(np.argmax(values))
    t, p = _golden_max(f, grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)])
    if values[k] > p:
        return float(grid[k]), float(values[k])
    return float(t), float(p)


def _window_ascent(f, start: float, j: float) -> tuple[float, float]:
    """Iterate _window_max from start until the best point stops improving.

    A single sweep can return a window-edge point when the true maximum
    sits just outside; re-centering converges in a hop or two because each
    step must strictly raise the probability.
    """
    t, p = start, -1.0
    for _ in range(PEAK_WINDOW_HOPS):
        t_w, p_w = _window_max(f, t, j)
        if p_w <= p:
            break
        t, p = t_w, p_w
    return t, p


def scan_scales(spec: ChainSpec, dec: SpectralDecomposition) -> tuple[float, float]:
    """(delta_slow, delta_max): slowest distinct and fastest cluster splitting."""
    clusters = perturbation.find_clusters(dec, spec)
    values = perturbation.distinct_splittings(clusters)
    delta_slow = values[0][0]
    delta_max = max(c.delta for c in clusters)
    return delta_slow, delta_max


def plan_scan_grid(spec: ChainSpec,
                   dec: SpectralDecomposition | None = None) -> tuple[np.ndarray, dict]:
    """Two-tier grid: coarse envelope samples plus fine patches at peak candidates.

    Patches go around the coarse fermion-probability argmax and around the
    slow-envelope peak times pi/(2 delta_slow) and pi/delta_slow.  The
    coarse grid aliases any faster cluster oscillation, so its argmax alone
    can sit a few steps away from the true peak; the envelope candidates
    cover where a perturbatively-perfect peak must lie (doublet-limited
    transfer peaks at the former, trio-limited at the latter).
    """
    if dec is None:
        dec = decompose_chain(spec)
    delta_slow, delta_max = scan_scales(spec, dec)
    coarse_step = math.pi / (COARSE_POINTS_PER_SLOW_PERIOD * delta_slow)
    horizon = HORIZON_FACTOR * math.pi / (2.0 * delta_slow)
    coarse = np.arange(0.0, horizon + 0.5 * coarse_step, coarse_step)
    ev = SubmatrixEvaluator(dec, spec.n_s)
    p_coarse = ev.p_fermion(coarse)
    centers = {
        float(coarse[int(np.argmax(p_coarse))]),
        min(horizon, math.pi / (2.0 * delta_slow)),
        min(horizon, math.pi / delta_slow),
    }
    fine_step = math.pi / (FINE_POINTS_PER_FAST_PERIOD * delta_max)
    patches = [coarse]
    for center in centers:
        lo = max(0.0, center - FINE_WINDOW_COARSE_STEPS * coarse_step)
        hi = min(horizon, center + FINE_WINDOW_COARSE_STEPS * coarse_step)
        patches.append(np.arange(lo, hi + 0.5 * fine_step, fine_step))
    grid = np.unique(np.concatenate(patches))
    meta = {
        "delta_slow": delta_slow,
        "delta_max": delta_max,
        "coarse_step": coarse_step,
        "fine_step": fine_step,
        "horizon": horizon,
    }
    return grid, meta


def find_transfer_peak(spec: ChainSpec, dec: SpectralDecomposition | None = None) -> PeakReport:
    """Locate the fermion transfer peak and the boson peak in its window."""
    if dec is None:
        dec = decompose_chain(spec)
    grid, meta = plan_scan_grid(spec, dec)
    ev = SubmatrixEvaluator(dec, spec.n_s)
    curve = scan_transfer(spec, grid, dec)
    k = int(np.argmax(curve.p_fermion))
    lo = grid[max(0, k - 1)]
    hi = grid[min(len(grid) - 1, k + 1)]
    t_f, p_f = _golden_max(ev.p_fermion, lo, hi)
    if curve.p_fermion[k] > p_f:
        t_f, p_f = float(grid[k]), float(curve.p_fermion[k])

    # both statistics ripple on the bare-J scale inside the slow envelope,
    # so finish each with a dense window ascent from the best candidate
    t_w, p_w = _window_ascent(ev.p_fermion, t_f, spec.j)
    if p_w > p_f:
        t_f, p_f = t_w, p_w
    t_b, p_b = _window_ascent(ev.p_boson, t_f, spec.j)
    return PeakReport(
        t_fermion=float(t_f),
        p_fermion=float(p_f),
        t_boson=float(t_b),
        p_boson=float(p_b),
        curve=curve,
        coarse_step=meta["coarse_step"],
        horizon=meta["horizon"],
        delta_slow=meta["delta_slow"],
        delta_max=meta["delta_max"],
    )


def scan_max_probability(spec: ChainSpec, t_max: float, dec: SpectralDecomposition | None = None
                         ) -> tuple[float, float, TransferCurve]:
    """Maximum fermion probability over [0, t_max] with local-peak polish.

    Used for infeasible classes, where the curve is slow (all cluster
    amplitudes evolve on splitting time scales) and an envelope-scale grid
    suffices; the REFINE_TOP highest local maxima get a golden-section polish.
    """
    if dec is None:
        dec = decompose_chain(spec)
    _, delta_max = scan_scales(spec, dec)
    step = math.pi / (FINE_POINTS_PER_FAST_PERIOD * delta_max)
    n_points = int(t_max / step) + 2
    if n_points > 200_000:
        step = t_max / 200_000
    grid = np.arange(0.0, t_max + 0.5 * step, step)
    curve = scan_transfer(spec, grid, dec)
    p = curve.p_fermion
    ev = SubmatrixEvaluator(dec, spec.n_s)
    interior = np.nonzero((p[1:-1] >= p[:-2]) & (p[1:-1] >= p[2:]))[0] + 1
    tops = interior[np.argsort(p[interior])][-REFINE_TOP:] if len(interior) else []
    best_t, best_p = float(grid[int(np.argmax(p))]), float(np.max(p))
    for idx in tops:
        t_r, p_r = _golden_max(ev.p_fermion, grid[idx - 1], grid[idx + 1])
        if p_r > best_p:
            best_t, best_p = t_r, p_r
    return best_t, best_p, curve
