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

The dense window sweep is the one place a surrogate is allowed:
`propagator_grid` builds the blocks of a uniform grid from two phase
tables (about 2 sqrt(T) exps per level instead of T) and returns a
rigorous bound on their distance from `propagator_block`'s values.  Its
values only choose which grid points `propagator_block` evaluates: every
point whose bounded surrogate probability could reach the maximum is
evaluated exactly, so the sweep's maximum, its index and everything after
it are those of an exact sweep.  No surrogate value is ever returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, _site, _size, _times
from .spectral import SpectralDecomposition, decompose_chain
from . import perturbation

DET_DIM_CAP = 64
PERM_DIM_CAP = 12
PROB_TOL = 1e-9
CHUNK_ELEMENTS = 1 << 13            # complex numbers per time chunk of a batched product
UNIT_ROUNDOFF = 2.0 ** -53          # float64 round-to-nearest relative error

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
NON_PP_HORIZON_FACTOR = 10.0        # scan_max_probability horizon, in units of pi/(2 delta*)


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


def propagator_block(dec: SpectralDecomposition, rows, cols, times) -> np.ndarray:
    """F(t) on the sites rows x cols: the (len(rows), len(cols)) block for
    a scalar time, the (T, len(rows), len(cols)) stack for a 1-D time array.

    rows and cols are 0-based site indices; entry [k, a, b] of the stack is
    f_{rows[a]+1}^{cols[b]+1}(times[k]).  Times follow `chain._times`.
    This is the one place eigenvectors meet phases.  Each time evaluates
    the same expression (V_rows * phases(t)) @ V_cols^T, so a point agrees
    with the same point inside a grid; the (times, rows, N) intermediate is
    built one chunk of about CHUNK_ELEMENTS complex numbers at a time, so
    scratch memory does not grow with the grid.
    """
    times, scalar = _times(times)
    left = dec.eigenvectors[rows, :]
    right = dec.eigenvectors[cols, :].T
    out = np.empty((len(times), len(left), right.shape[1]), dtype=complex)
    for part in time_chunks(len(times), left.size):
        out[part] = (left * dec._phases(times[part])[:, None, :]) @ right
    return out[0] if scalar else out


def _gamma(m: int) -> float:
    """gamma_m = m u / (1 - m u): the relative error of m float64 roundings."""
    return m * UNIT_ROUNDOFF / (1.0 - m * UNIT_ROUNDOFF)


def propagator_grid(dec: SpectralDecomposition, rows, cols, times) -> tuple[np.ndarray, float]:
    """`propagator_block` on a uniform time grid from two phase tables,
    with a bound on the distance from `propagator_block`'s values.

    Returns (blocks, bound): blocks has the (T, len(rows), len(cols)) shape
    of `propagator_block(dec, rows, cols, times)` and every entry lies
    within bound of it.  With B = ceil(sqrt(T)) and the grid's own step
    d = t_1 - t_0, time t_{aB+b} is split into the anchor t_{aB} and the
    shift b d, and exp(-i w (t_{aB} + b d)) is the product of two
    `dec._phases` rows, so each level takes about 2 sqrt(T) exps instead of
    T.  Entry (r, c) at t_{aB+b} is sum_k [V_rk V_ck phase_k(t_{aB})]
    phase_k(b d): one complex matmul of the (pairs, N) anchor table with
    the (N, B) shift table per anchor, built in chunks of about
    CHUNK_ELEMENTS complex numbers.  Any time array `chain._times` accepts
    is taken as a grid; the less uniform it is, the larger the bound.

    The bound compares both computations with the exact
    G_rc(t) = sum_k V_rk V_ck exp(-i (w_k + h) t), evaluated at the float
    grid values from the float V, w and offset h.  Write u = 2^-53,
    Omega = max_k |w_k| + |h|, S = max_rc sum_k |V_rk V_ck|, t_max =
    max_j |t_j|, and D = max_j |t_j - (t_0 + j d)| (measured on the grid,
    plus the rounding of that measurement).

    - A `_phases` entry rounds its argument once per exp (u |w t| and
      u |h t|), each cos and sin is within one ulp (2u) of the true value
      (libm), and the offset costs one complex product (sqrt(2) gamma_2).
      So it lies within u Omega |t| + 9u of exp(-i (w + h) t).
    - `propagator_block` scales V_r by the phases (u) and sums N products
      with V_c (sqrt(2) gamma_N of sum_k |V_rk V_ck|): its distance from G
      is at most S (u Omega t_max + 10u + sqrt(2) gamma_N).
    - Here the anchor phase carries u Omega t_max + 9u, the shift phase
      u Omega B |d| + 9u, and t_{aB} + b d is within 2D + u B |d| of t_j,
      which moves the phase by Omega times that.  The products
      V_rk V_ck and their scaling by the anchor phase round once each, and
      the complex matmul adds sqrt(2) gamma_{N+2}: at most
      S (u Omega (t_max + B |d|) + Omega (2D + u B |d|) + 20u
      + sqrt(2) gamma_{N+2}) from G.
    - The two add up to the returned
      bound = S (2 Omega (u (t_max + B |d|) + D) + 32u + 2 sqrt(2) gamma_{N+2});
      the 2u beyond the 30u listed covers the second-order terms.
    """
    times, _ = _times(times)
    n_times, n = len(times), dec.n
    span = math.isqrt(n_times - 1) + 1
    step = times[1] - times[0] if n_times > 1 else 0.0
    left = dec.eigenvectors[rows, :]
    right = dec.eigenvectors[cols, :]
    pairs = (left[:, None, :] * right[None, :, :]).reshape(-1, n)
    anchors = dec._phases(times[::span])
    shifts = dec._phases(np.arange(span) * step).T
    out = np.empty((len(anchors) * span, len(pairs)), dtype=complex)
    for part in time_chunks(len(anchors), pairs.size):
        table = (pairs * anchors[part, None, :]) @ shifts
        out[part.start * span:part.stop * span] = table.transpose(0, 2, 1).reshape(-1, len(pairs))
    blocks = out[:n_times].reshape(n_times, len(left), len(right))

    u = UNIT_ROUNDOFF
    from_start = times - times[0]
    line = np.arange(n_times) * step
    # D from the computed differences, plus their three roundings
    drift = np.max(np.abs(from_start - line)) + 4.0 * u * np.max(np.abs(from_start) + np.abs(line))
    weight = np.max(np.abs(left) @ np.abs(right).T) / (1.0 - _gamma(n))
    omega = np.max(np.abs(dec.bare_eigenvalues)) + abs(dec.offset)
    t_max = np.max(np.abs(times))
    bound = weight * (2.0 * omega * (u * (t_max + span * abs(step)) + drift)
                      + 32.0 * u + 2.0 * math.sqrt(2.0) * _gamma(n + 2))
    return blocks, float(bound)


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
    if not n:
        raise ValueError(f"{name} needs a non-empty block")
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
    n_s = _size("n_s", n_s)
    i, j = _site(i, n_s, "i"), _site(j, n_s, "j")
    k = np.arange(1, n_s + 1)
    terms = np.abs(np.sin(k * np.pi * j / (n_s + 1)) * np.sin(k * np.pi * i / (n_s + 1)))
    return float(2.0 / (n_s + 1) * np.sum(terms))


class SubmatrixEvaluator:
    """Sender-receiver submatrix from one fixed decomposition.

    The n_s x n_s block has entry (a, b) = f_a^{N+1-b} (1-based): mirror-site
    amplitudes land on the main diagonal, and for a mirror-symmetric chain
    the block is symmetric.  A scalar t gives the (n_s, n_s) block and float
    probabilities; a 1-D time array gives the (T, n_s, n_s) stack and (T,)
    probability arrays (`chain._times`).
    """

    def __init__(self, dec: SpectralDecomposition, n_s: int):
        n = dec.n
        n_s = _size("n_s", n_s, 1, n // 2)
        self.dec = dec
        self.rows = np.arange(n_s)
        # receiver sites ordered N, N-1, ..., N+1-n_s to put mirrors on the diagonal
        self.cols = np.arange(n - 1, n - 1 - n_s, -1)
        self.n_s = n_s

    def submatrix(self, t) -> np.ndarray:
        return propagator_block(self.dec, self.rows, self.cols, t)

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
    """An explicit time grid as a float array; raise unless it is non-empty,
    1-D, finite and strictly increasing."""
    t_grid = np.asarray(t_grid, dtype=float)
    if (t_grid.ndim != 1 or not len(t_grid) or not np.all(np.isfinite(t_grid))
            or np.any(np.diff(t_grid) <= 0)):
        raise ValueError("time grid must be non-empty, one-dimensional, finite and "
                         "strictly increasing")
    return t_grid


def scan_transfer(spec: ChainSpec, t_grid: np.ndarray, dec: SpectralDecomposition) -> TransferCurve:
    """Fermion and boson transfer probabilities over an explicit time grid."""
    t_grid = _checked_grid(t_grid)
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


def _polish(f, grid: np.ndarray, k: int, p_k: float) -> tuple[float, float]:
    """Golden-section polish of p_k = f(grid[k]) between grid[k]'s two
    neighbours; grid[k] wins only when it is strictly higher."""
    t, p = _golden_max(f, grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)])
    if p_k > p:
        return float(grid[k]), float(p_k)
    return float(t), float(p)


def _probability_slack(reduce, blocks: np.ndarray, bound: float) -> np.ndarray:
    """Per block, a bound on |reduce(blocks) - reduce(exact blocks)|, when
    every entry of the exact blocks lies within bound of blocks.

    reduce is `fermion_prob` or `boson_prob`, and "exact blocks" are the
    ones `propagator_block` returns; both sides are computed in float64.
    Let n be the block size, u = 2^-53, and e the entry distance.

    - Row sizes.  A row of either block is within sqrt(n) e (2-norm) and
      n e (1-norm) of the same row here, whose norms are measured (with
      their own rounding).  Let rho_r bound row r on both sides: 2-norms
      for det, 1-norms for perm.
    - Exact reductions.  det and perm are linear in each row.  Swapping
      the rows one at a time gives
      |x - y| <= c e sum_i prod_{l != i} rho_l, with c = sqrt(n) for det
      and n for perm, while |det| <= prod rho (Hadamard) and
      |perm| <= prod rho (1-norms, expanded term by term).
    - LU.  Partial pivoting computes the LU of A + dA with
      |dA| <= gamma_{16n} |L||U| (Higham Thm 9.3, with 16u per complex
      multiply, Smith division or subtraction), |L| <= 1 and
      |U_kc| <= 2^k max|A|, so each side adds at most
      gamma_{16n} 2^n (max|blocks| + e) to every entry: e grows by twice
      that before the step above.  The product of the pivots, `hypot` and
      the square then add a relative 6(n+1)u to |det|^2.
    - Ryser.  Each row sum w_r is updated 2^n times (u |w_r| each, with
      |w_r| <= rho_r), the n-fold product adds sqrt(2) gamma_2 per factor
      and the signed sum of 2^n terms sqrt(2) gamma_{2^n}: the computed
      perm is within f = 2^n prod(rho) ((1 + 2^n u)^n - 1 + 4nu
      + sqrt(2) gamma_{2^n}) of the exact one on each side; `hypot` and
      the square add a relative 6u to |perm|^2.
    - Squares.  With |x - y| <= m and |x|, |y| <= M,
      ||x|^2 - |y|^2| <= 2 M m, plus the relative rounding on M^2 of each
      side.  Clipping both sides into [0, 1] only shrinks the distance.
    """
    n = blocks.shape[-1]
    u = UNIT_ROUNDOFF
    size = np.abs(blocks)
    if reduce is fermion_prob:
        growth = _gamma(16 * n) * 2.0 ** n * (np.max(size) + bound)
        reach = math.sqrt(n) * (bound + 2.0 * growth)
        rows = np.sqrt(np.sum(size ** 2, axis=-1)) * (1.0 + _gamma(n + 4)) + reach
        ryser = 0.0
        relative = 6.0 * (n + 1) * u
    else:
        reach = n * bound
        rows = np.sum(size, axis=-1) * (1.0 + _gamma(n + 1)) + reach
        ryser = 2.0 ** n * ((1.0 + 2.0 ** n * u) ** n - 1.0 + 4.0 * n * u
                            + math.sqrt(2.0) * _gamma(2 ** n))
        relative = 6.0 * u
    magnitude = np.prod(rows, axis=-1)
    change = reach * magnitude * np.sum(1.0 / rows, axis=-1) + 2.0 * ryser * magnitude
    magnitude = magnitude * (1.0 + ryser)
    return 2.0 * magnitude * change + 2.0 * relative * magnitude ** 2


def _certified_argmax(surrogate: np.ndarray, slack, exact) -> tuple[int, float]:
    """(k, value) of the first largest exact value, from bounded surrogates.

    Every exact value lies within slack (a scalar or one per point) of its
    surrogate, so none exceeds surrogate + slack and the largest is at
    least L = max(surrogate - slack).  A point with surrogate + slack < L
    cannot reach the largest value, or tie with it; exact(indices) returns
    the exact values of all the other points, in index order, and the
    first of their maxima is the first-index argmax of the whole grid.  A
    non-finite surrogate or slack rules nothing out.
    """
    keep = np.flatnonzero(~(surrogate + slack < np.max(surrogate - slack)))
    values = exact(keep)
    i = int(np.argmax(values))
    return int(keep[i]), float(values[i])


def _window_max(ev: SubmatrixEvaluator, reduce, center: float, j: float) -> tuple[float, float]:
    """Maximum of one transfer probability over a dense bare-J window.

    The two-tier grid resolves splitting scales only, but the probability
    also ripples with period ~ 2 pi / J, so the final candidate needs a
    sweep dense on that scale.  reduce is `fermion_prob` or `boson_prob`,
    applied to ev's blocks.  The sweep is a surrogate: `propagator_grid`
    gives the window's blocks with a bound on their distance from the
    exact ones, and `_probability_slack` turns that into a bound on each
    probability.  The surrogate only chooses which points to evaluate
    exactly (those its bound cannot rule out, see `_certified_argmax`), so
    the sampled maximum and its index are those of an exact sweep.  The
    slack scales with the blocks' row norms, so it rules out nearly every
    point even where the probabilities are tiny; it rules out few where
    the determinant or permanent cancels far below that row-norm bound (as
    in some n_s = 8 windows), and such a sweep pays for the surrogate on
    top of the exact evaluations, at most about twice one exact sweep.  The
    golden polish is bracketed by one window step, inside which the curve
    is unimodal; the sampled maximum wins if the polish lands lower.
    """
    half_window = PEAK_WINDOW_PERIODS * 2.0 * math.pi / j
    step = 2.0 * math.pi / (j * PEAK_POINTS_PER_PERIOD)
    grid = np.arange(max(0.0, center - half_window), center + half_window, step)

    def exact(times):
        return _checked_prob(reduce(ev.submatrix(times)))

    blocks, bound = propagator_grid(ev.dec, ev.rows, ev.cols, grid)
    surrogate = np.clip(reduce(blocks), 0.0, 1.0)
    slack = _probability_slack(reduce, blocks, bound)
    k, p_k = _certified_argmax(surrogate, slack, lambda keep: exact(grid[keep]))
    return _polish(exact, grid, k, p_k)


def _window_ascent(ev: SubmatrixEvaluator, reduce, start: float, j: float) -> tuple[float, float]:
    """Iterate _window_max from start until the best point stops improving.

    A single sweep can return a window-edge point when the true maximum
    sits just outside; re-centering converges in a hop or two because each
    step must strictly raise the probability.
    """
    t, p = start, -1.0
    for _ in range(PEAK_WINDOW_HOPS):
        t_w, p_w = _window_max(ev, reduce, t, j)
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


def plan_scan_grid(spec: ChainSpec, dec: SpectralDecomposition) -> tuple[np.ndarray, dict]:
    """Two-tier grid: coarse envelope samples plus fine patches at peak candidates.

    Patches go around the coarse fermion-probability argmax and around the
    slow-envelope peak times pi/(2 delta_slow) and pi/delta_slow.  The
    coarse grid aliases any faster cluster oscillation, so its argmax alone
    can sit a few steps away from the true peak; the envelope candidates
    cover where a perturbatively-perfect peak must lie (doublet-limited
    transfer peaks at the former, trio-limited at the latter).
    """
    delta_slow, delta_max = scan_scales(spec, dec)
    coarse_step = math.pi / (COARSE_POINTS_PER_SLOW_PERIOD * delta_slow)
    horizon = HORIZON_FACTOR * math.pi / (2.0 * delta_slow)
    coarse = np.arange(0.0, horizon + 0.5 * coarse_step, coarse_step)
    ev = SubmatrixEvaluator(dec, spec.n_s)
    p_coarse = ev.p_fermion(coarse)
    centers = {
        float(coarse[int(np.argmax(p_coarse))]),
        math.pi / (2.0 * delta_slow),
        math.pi / delta_slow,
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
    t_f, p_f = _polish(ev.p_fermion, grid, k, curve.p_fermion[k])

    # both statistics ripple on the bare-J scale inside the slow envelope,
    # so finish each with a dense window ascent from the best candidate
    t_w, p_w = _window_ascent(ev, fermion_prob, t_f, spec.j)
    if p_w > p_f:
        t_f, p_f = t_w, p_w
    t_b, p_b = _window_ascent(ev, boson_prob, t_f, spec.j)
    return PeakReport(
        t_fermion=float(t_f),
        p_fermion=float(p_f),
        t_boson=float(t_b),
        p_boson=float(p_b),
        curve=curve,
        coarse_step=meta["coarse_step"],
        horizon=meta["horizon"],
    )


def scan_max_probability(spec: ChainSpec, dec: SpectralDecomposition
                         ) -> tuple[float, float, TransferCurve]:
    """Maximum fermion probability up to NON_PP_HORIZON_FACTOR pi/(2 delta*).

    Used for infeasible classes, where the curve is slow (all cluster
    amplitudes evolve on splitting time scales) and an envelope-scale grid
    suffices; the REFINE_TOP highest local maxima get a golden-section polish.
    """
    delta_slow, delta_max = scan_scales(spec, dec)
    t_max = NON_PP_HORIZON_FACTOR * (math.pi / (2.0 * delta_slow))
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
        t_r, p_r = _polish(ev.p_fermion, grid, idx, p[idx])
        if p_r > best_p:
            best_t, best_p = t_r, p_r
    return best_t, best_p, curve
