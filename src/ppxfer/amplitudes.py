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
chunks of about CHUNK_ELEMENTS complex numbers, one matrix product per
chunk, and `fermion_prob` / `boson_prob` reduce a whole stack at once.  The
battery samples need only sum |F_ab|^2 over one block, which
`_block_weight` takes from the sublattice real form (derived in
`_real_form`), with no complex block and with its time chunks spread over
one thread per usable CPU (the only threads this package starts).  The
golden polish evaluates each probe it has not seen together with every
probe of its next GOLDEN_LOOKAHEAD iterations in one array call, and
returns the bits of a one-probe-at-a-time search.

The dense window sweep is the one place a surrogate is allowed:
`propagator_grid` builds real blocks M of a uniform grid in the sublattice
real form of `_real_form` (F = exp(-i h t) diag((-i)^a) M diag(i^b) on a
paired decomposition), from anchor and shift cos/sin tables combined by
angle addition (about 2 sqrt(T) cos and sin per positive level instead of
T), and returns a rigorous bound on their distance from
`propagator_block`'s values.  |det M| and |perm M| are those of F, so the
surrogate probabilities are det(M)^2 through LAPACK and Ryser on the real
M.  They only choose which grid points `propagator_block` evaluates: every
point whose bounded surrogate probability could reach the maximum is
evaluated exactly, so the sweep's maximum, its index and everything after
it are those of an exact sweep.  No surrogate value is ever returned, and
an unpaired decomposition gets no surrogate (every point is evaluated).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, NumericalConsistencyError, _site, _size, _times
from .spectral import SpectralDecomposition, decompose_chain
from . import perturbation

DET_DIM_CAP = 64
PERM_DIM_CAP = 12
PROB_TOL = 1e-9
CHUNK_ELEMENTS = 1 << 13            # entries per time chunk of a batched product
# `_block_weight`'s chunks, which run on worker threads.  At 2^13 reals a
# ufunc pass is too short to cover the GIL hand-over: two threads ran a
# battery round at 1.12 of one, against 0.85 at 2^14.  2^15 (0.75) cost
# 3.6 MB of peak memory against 1.4 MB at 2^14 (BENCH_29.json).
WEIGHT_CHUNK_ELEMENTS = 1 << 14
UNIT_ROUNDOFF = 2.0 ** -53          # float64 round-to-nearest relative error
# pi/2 as fdlibm's pio2_1 + pio2_2 + pio2_2t; the first two have 31 significant bits
PIO2_PARTS = (1.5707963267341256, 6.077100506303966e-11, 2.0222662487959506e-21)
REDUCTION_CAP = 2.0 ** 20           # quarter turns below which `_cos_sin` reduces exactly
_QUARTER_TURNS = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])  # cos, sin of q pi/2

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
    This is the one complex kernel, and `_block_weight` its real form for
    a block's weight: nothing else evaluates F.  Each time evaluates
    the same expression (V_rows * phases(t)) @ V_cols^T, built one chunk of
    about CHUNK_ELEMENTS complex numbers at a time, so scratch memory does
    not grow with the grid.  The scratch, one (T_chunk, N) phase table and
    one (T_chunk, rows, N) scaled-rows stack, is allocated once per call
    and every chunk is written into it through ufunc `out=` arguments, so
    a long grid frees nothing between chunks (README, Numerical notes).  A
    chunk's scaled rows are folded into one (T_chunk rows, N) matrix and
    multiplied by V_cols^T in one matrix product written straight into the
    output stack, instead of one small product per time.  Blocks with one
    row or one column keep one product per time, because numpy sends those
    to dot/gemv, whose rounding differs from gemm's.  So a point has the
    same bits alone as inside a grid, which
    `test_grid_evaluation_matches_point_by_point` checks byte for byte.
    """
    times, scalar = _times(times)
    left = dec.eigenvectors[rows, :]
    right = dec.eigenvectors[cols, :].T
    n_rows, n_cols = len(left), right.shape[1]
    out = np.empty((len(times), n_rows, n_cols), dtype=complex)
    # A correctness condition on the block's shape, not a tuning knob:
    # folding a one-row or one-column block would turn its per-time
    # dot/gemv into one gemm and give a time other bits inside a grid than
    # alone.  From 2 x 2 up each time is a gemm either way, and a gemm row
    # has the same bits whatever rows sit beside it.
    fold = n_rows > 1 and n_cols > 1
    parts = time_chunks(len(times), left.size)
    phases = np.empty((len(times[parts[0]]), dec.n), dtype=complex)
    scaled = np.empty((len(phases), n_rows, dec.n), dtype=complex)
    for part in parts:
        k = len(times[part])
        np.multiply(left, _phases(dec, times[part], phases[:k])[:, None, :], out=scaled[:k])
        if fold:
            np.matmul(scaled[:k].reshape(-1, dec.n), right, out=out[part].reshape(-1, n_cols))
        else:
            np.matmul(scaled[:k], right, out=out[part])
    return out[0] if scalar else out


def _phases(dec: SpectralDecomposition, times: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(-i (w_k + h) t) for every level and each time of a checked 1-D
    array, written into out (T, N), exact-conjugate over +/- pairs.

    Every row has the same per-element arithmetic, so a row's bits do not
    depend on the other times.  When the bare levels pair exactly, exp is
    evaluated on the upper half only (the middle zero level included) and
    the lower half is its reversed conjugate: the same bits as the direct
    expression, whose sin/cos are odd/even bitwise, once the -0.0
    imaginary parts that conj makes at t = 0 are turned back into +0.0.
    Every step runs in place in out: the same ufuncs, the same bits.
    """
    t = times[:, None]
    w = dec.bare_eigenvalues
    if dec._paired:
        half = len(w) // 2
        upper = out[..., half:]
        np.exp(np.multiply(-1j * w[half:], t, out=upper), out=upper)
        lower = out[..., :half]
        np.conjugate(out[..., len(w) - half:][..., ::-1], out=lower)
        lower.imag += 0.0
    else:
        np.exp(np.multiply(-1j * w, t, out=out), out=out)
    if dec.offset:
        out *= np.exp(-1j * dec.offset * t)
    return out


def _real_form(dec: SpectralDecomposition, rows: np.ndarray, cols: np.ndarray) -> tuple:
    """The sublattice real form of the block rows x cols (0-based site
    arrays): (levels, even, cos_pairs, sin_pairs, zero_level).

    Precondition: `dec` is the decomposition of a `ChainSpec` chain, whose
    bare diagonal is zero once `decompose_chain` peels h off as `offset`.
    Then S H0 S = -H0 for S = diag((-1)^j), so S maps the eigenvector of
    w_k to one of -w_k: V_{a,N-1-k} = +-(-1)^a V_ak, and the levels pair
    exactly (`dec._paired`; ValueError if not).  In
    F_ab = exp(-i h t) sum_k V_ak V_bk exp(-i w_k t) the terms of k and
    N-1-k thus add to 2 V_ak V_bk cos(w_k t) for even a + b and to
    -2i V_ak V_bk sin(w_k t) for odd a + b.  The zero level of odd N is
    S-even or S-odd, so V_a,mid V_b,mid adds to the even class only:

        F_ab = exp(-i h t) [2 sum_{w_k>0} V_ak V_bk cos(w_k t) + V_a,mid V_b,mid]  (a + b even)
        F_ab = -i exp(-i h t) 2 sum_{w_k>0} V_ak V_bk sin(w_k t)                   (a + b odd)

    Each |F_ab|^2 is the square of a real sum, blind to h.  Sites a and a+1
    fall in opposite classes, so a bond product conj(F_sa) F_s,a+1 is
    purely imaginary: the chain's hopping energies vanish exactly.

    levels are the N/2 positive bare levels, ascending; even is the (rows,
    cols) mask of a + b even; cos_pairs and sin_pairs hold 2 V_ak V_bk of
    the even and odd entries (rows in the mask's row-major order, columns
    per level); zero_level, V_a,mid V_b,mid per even entry, is None for even N.
    """
    if not dec._paired:
        raise ValueError("the real form needs a decomposition whose bare levels pair "
                         "exactly (a zero bare diagonal)")
    half = dec.n // 2
    upper = dec.eigenvectors[:, dec.n - half:]
    even = (rows[:, None] + cols[None, :]) % 2 == 0
    pairs = 2.0 * upper[rows][:, None, :] * upper[cols][None, :, :]
    middle = dec.eigenvectors[:, half]
    zero_level = (middle[rows][:, None] * middle[cols][None, :])[even] if dec.n % 2 else None
    return dec.bare_eigenvalues[dec.n - half:], even, pairs[even], pairs[~even], zero_level


def _block_weight(dec: SpectralDecomposition, rows: np.ndarray, cols: np.ndarray,
                  times: np.ndarray) -> np.ndarray:
    """sum_ab |F_ab(t)|^2 over the block rows x cols (0-based site arrays)
    for each time of a checked, non-empty 1-D array, from the sublattice
    real form (`_real_form`, whose precondition it shares).

    Each time chunk (`_weight_chunks`) takes cos and sin of t w_k on the
    N/2 positive levels from `_cos_sin` (within about 2 ulp; a chunk whose
    angles all stay below REDUCTION_CAP quarter turns skips the libm
    branch), one real product with the pair products per class, and sums
    the squares.  The chunks run in contiguous groups, one per CPU this
    process may use (`_chunk_groups`): every group but the last on a
    `ThreadPoolExecutor` worker, the last (which holds a lone last time)
    in the calling thread.  Each group has scratch of its own, sized by
    the (T_chunk, N/2) trig tables and allocated once per call (README,
    Numerical notes), and writes only its own times.  Every worker is
    joined before the return, and an exception in any group is raised
    here.  Every numpy pass releases the GIL, so the groups overlap.  A
    time's arithmetic does not depend on its chunk or group, so the bits
    are those of one serial pass.
    """
    levels, even, cos_pairs, sin_pairs, zero_level = _real_form(dec, rows, cols)
    n_even, half = len(cos_pairs), len(levels)
    weight = np.empty(len(times))
    parts = _weight_chunks(len(times), even.size, dec.n)
    size = max(2, len(times[parts[0]]))

    def run(group: list[slice], buffers: tuple) -> None:
        angles, cos, sin, *work, values, sums = buffers
        for part in group:
            span = times[part]
            # A correctness condition, like `propagator_block`'s fold: the
            # products of one row go to dot/gemv, which round otherwise than
            # the gemm of a longer chunk, so a lone time is broadcast to two
            # rows (and summed as two, so that its row sum has a chunk's shape).
            k = max(2, len(span))
            np.multiply(span[:, None], levels, out=angles[:k])
            # at least every |angle|, since rounding is monotone
            reach = float(np.max(np.abs(span))) * float(levels[-1])
            _cos_sin(angles[:k], reach, cos[:k], sin[:k], *(w[:k] for w in work))
            np.matmul(cos[:k], cos_pairs.T, out=values[:k, :n_even])
            np.matmul(sin[:k], sin_pairs.T, out=values[:k, n_even:])
            if zero_level is not None:
                # (even N has none: adding 0.0 would only turn -0.0 into
                # +0.0, which the square does anyway)
                values[:k, :n_even] += zero_level
            np.square(values[:k], out=values[:k])
            np.sum(values[:k], axis=1, out=sums[:k])
            # the chunk's own times only: a lone time's second row would
            # land on the next group's first time
            weight[part] = sums[:len(span)]

    *others, last = _chunk_groups(parts)
    # One block per scratch kind for all groups, from the calling thread.
    # glibc serves a block above its mmap threshold by mmap and, once it is
    # freed, raises its thresholds to that size, so the next call's block
    # comes from the heap and keeps its pages.  With a block per group (or
    # scratch from a worker's own arena) the freed heap top passed the trim
    # threshold and every call faulted about 350 pages back in, against 2.
    count = len(others) + 1
    buffers = list(zip(*np.empty((6, count, size, half)),
                       np.empty((count, size, half), dtype=np.intp),
                       np.empty((count, size, half), dtype=bool),
                       np.empty((count, size, even.size)), np.empty((count, size))))
    # leaving the block joins every worker, also when the caller's group raises
    with ThreadPoolExecutor(count) as pool:
        futures = [pool.submit(run, group, own) for group, own in zip(others, buffers)]
        run(last, buffers[-1])
        for future in futures:
            future.result()
    return weight


def _weight_chunks(n_times: int, block_size: int, n: int) -> list[slice]:
    """`_block_weight`'s time chunks for a block of block_size site pairs
    on an n-site chain, each time point counted as max(block_size, n/2)
    reals; the one plan its tests take chunk boundaries from."""
    return time_chunks(n_times, max(block_size, n // 2), WEIGHT_CHUNK_ELEMENTS)


def _chunk_groups(parts: list[slice]) -> list[list[slice]]:
    """parts in contiguous groups of near-equal count, one per CPU this
    process may run on (its affinity mask where the OS has one, else the
    machine's CPU count) and at most one per part; the last group ends
    with the last part."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    count = min(cpus, len(parts))
    return [parts[len(parts) * g // count:len(parts) * (g + 1) // count] for g in range(count)]


def _cos_sin(theta, reach, cos, sin, q, aux, tmp, quadrant, above) -> None:
    """cos and sin of theta into cos and sin from one Cody-Waite reduction
    (Cody & Waite 1980); reach is a float with |theta| <= reach for every
    element, and the rest is scratch of theta's shape.

    q = rint(2 theta/pi), r = ((theta - q P1) - q P2) - q P3 (PIO2_PARTS):
    for |q| < REDUCTION_CAP, q P1, q P2 and theta - q P1 (Sterbenz) are
    exact, so |r| <= pi/4 is within 2u|r| + 1e-30 of theta - q pi/2 (u =
    2^-53).  s = sin r adds libm's error; c = sqrt(1 - s^2) >= 1/sqrt(2)
    takes that of s times |s|/c <= 1 plus three roundings.  So both are
    within about 2 ulp after the exact quarter turn (a, b) = (cos, sin) of
    q pi/2: cos theta = a c - b s, sin theta = b c + a s.  Where |q| >=
    REDUCTION_CAP libm's bits are kept: each element depends on its angle only.

    Rounding and rint are monotone and odd, so every |q| is at most
    q* = rint(fl(reach (2/pi))).  When q* < REDUCTION_CAP no element takes
    the libm branch, and its five passes (abs, the cap test, the copy and
    the two masked libm calls), which would change nothing, are skipped.
    """
    np.rint(np.multiply(theta, 2.0 / np.pi, out=q), out=q)
    fallback = np.rint(reach * (2.0 / np.pi)) >= REDUCTION_CAP
    if fallback:
        np.greater_equal(np.abs(q, out=aux), REDUCTION_CAP, out=above)
        np.copyto(q, 0.0, where=above)
    np.bitwise_and(q, 3, out=quadrant, dtype=np.intp, casting="unsafe")
    np.subtract(theta, np.multiply(q, PIO2_PARTS[0], out=aux), out=sin)
    for part in PIO2_PARTS[1:]:
        np.subtract(sin, np.multiply(q, part, out=aux), out=sin)
    np.sin(sin, out=sin)
    np.sqrt(np.subtract(1.0, np.square(sin, out=cos), out=cos), out=cos)
    a = np.take(_QUARTER_TURNS[0], quadrant, mode="clip", out=q)
    b = np.take(_QUARTER_TURNS[1], quadrant, mode="clip", out=aux)
    np.multiply(b, sin, out=tmp)
    np.add(np.multiply(b, cos, out=b), np.multiply(a, sin, out=sin), out=sin)
    np.subtract(np.multiply(a, cos, out=cos), tmp, out=cos)
    if fallback:
        np.cos(theta, out=cos, where=above)
        np.sin(theta, out=sin, where=above)


def _gamma(m: int) -> float:
    """gamma_m = m u / (1 - m u): the relative error of m float64 roundings."""
    return m * UNIT_ROUNDOFF / (1.0 - m * UNIT_ROUNDOFF)


def propagator_grid(dec: SpectralDecomposition, rows, cols, times) -> tuple[np.ndarray, float]:
    """Real surrogate blocks of a paired decomposition on a uniform time
    grid, with a bound on their distance from `propagator_block`'s values.

    Returns (blocks, bound): blocks is a real (T, len(rows), len(cols))
    stack M with F(t) = exp(-i h t) diag((-i)^a) M(t) diag(i^b), a and b
    the 0-based sites of rows and cols, and every entry of that F lies
    within bound of `propagator_block(dec, rows, cols, times)`.  M_ab is
    the real sum of `_real_form` (whose precondition it shares), the
    cosine sum for a + b even and the sine sum for a + b odd, times
    (-1)^floor((a-b)/2), which folds i^(a-b) into M.  The diagonal factors
    have unit modulus, so |det F| = |det M| and |perm F| = |perm M|.

    With B = ceil(sqrt(T)) and the grid's own step d = t_1 - t_0, time
    t_{aB+b} is split into the anchor t_{aB} and the shift b d: cos and
    sin of w (t_{aB} + b d) come by angle addition from an anchor and a
    shift table over the K = floor(N/2) positive levels, about 2 sqrt(T)
    cos and sin per level instead of T.  Each entry's 2K coefficients, its
    pair products times the anchor cos and sin, meet the (2K, B) shift
    table in one real matrix product per chunk of anchors (coefficients
    worth about CHUNK_ELEMENTS complex numbers), whatever the block's
    shape, with the entries in class order and the sign folded into each
    entry's coefficients.  The zero level of odd N is added after the
    product, and the entries are scattered back into the stack.  Surrogate
    values need no bitwise match with `propagator_block`, and the bound
    below holds for any summation order.  Any time array `chain._times`
    accepts is taken as a grid; the less uniform it is, the larger the bound.

    The bound compares both computations with the exact
    G_ab(t) = sum_k V_ak V_bk exp(-i (w_k + h) t), evaluated at the float
    grid values from the float V, w and offset h.  Write u = 2^-53,
    Omega = max_k |w_k| + |h|, S = max_ab sum_k |V_ak V_bk|, t_max =
    max_j |t_j|, and D = max_j |t_j - (t_0 + j d)| (measured on the grid,
    plus the rounding of that measurement).

    - `propagator_block`.  A `_phases` entry rounds its argument once per
      exp (u |w t| and u |h t|), each cos and sin is within one ulp (2u)
      and the offset costs one complex product (sqrt(2) gamma_2), so it is
      within u Omega |t| + 9u of exp(-i (w + h) t).  Scaling V_a by the
      phases (u) and summing N products with V_b (sqrt(2) gamma_N of
      sum_k |V_ak V_bk|) put the block within
      S (u Omega t_max + 10u + sqrt(2) gamma_N) of G.
    - Pairing.  The levels pair exactly, the vectors only to roundoff, so
      the real form R = exp(-i h t) diag((-i)^a) M diag(i^b) of exact
      arithmetic is within P = max_ab (1/2) sum_k |V_ak V_bk
      - (-1)^(a+b) V_a,N-1-k V_b,N-1-k| of G (measured: the computed sum
      over 1 - gamma_{N+1}, plus u S for the rounded products), and its
      coefficients sum in modulus to at most S + P.
    - Here.  Each pair product rounds once (u), as does the zero level's.
      The anchor angle w t_{aB} rounds once (u Omega t_max), the shift b d
      and its angle once each (2u Omega B |d|), and t_{aB} + b d is within
      2D of t_j.  numpy's float64 cos and sin are within one ulp (2u, the
      tolerance of numpy's own accuracy tests), so each table's (cos, sin)
      is within 2 sqrt(2) u of the unit vector at its angle, and the
      angle-addition product within 4 sqrt(2) u + O(u^2) of the one at the
      summed angle.  Scaling by the anchor table rounds once (u).  The
      matrix product over 2K <= N terms, each at most |coefficient|
      (1 + O(u)) by Cauchy-Schwarz, adds gamma_N, and the zero-level add
      of odd N one rounding of a sum at most S + P in modulus: gamma_N + u
      <= gamma_{N+1} together.  The signs are exact, so M is within
      (S + P) (Omega (u (t_max + 2 B |d|) + 2D) + 8u + gamma_{N+1}) of R.
    - The three add up to the returned
      bound = (S + P) (2 Omega (u (t_max + B |d|) + D) + 20u
      + (1 + sqrt(2)) gamma_{N+3}) + P;
      the 2u beyond the 18u listed covers the second-order terms.
    """
    times, _ = _times(times)
    rows, cols = np.asarray(rows), np.asarray(cols)
    levels, even, cos_pairs, sin_pairs, zero_level = _real_form(dec, rows, cols)
    n_times, n, n_even, n_levels = len(times), dec.n, len(cos_pairs), len(levels)
    # (-1)^floor((a-b)/2) = 1 - ((a-b) & 2) on each entry's coefficients,
    # which negates its sums exactly: one pass over the pairs, not the stack
    sign = 1 - ((rows[:, None] - cols[None, :]) & 2)
    cos_pairs, sin_pairs = cos_pairs * sign[even, None], sin_pairs * sign[~even, None]
    span = math.isqrt(n_times - 1) + 1
    step = times[1] - times[0] if n_times > 1 else 0.0
    # an entry's coefficients take (cos, -sin) of the anchor angle for the
    # cosine class and (sin, cos) for the sine class, so that against
    # (cos, sin) of the shift they give cos and sin of the sum
    anchors = np.multiply.outer(times[::span], levels)
    sin = np.sin(anchors)
    trig = np.stack([sin, np.cos(anchors), -sin], axis=1)[:, None]
    shift = np.multiply.outer(np.arange(span) * step, levels)
    shifts = np.concatenate([np.cos(shift), np.sin(shift)], axis=1).T
    out = np.empty((len(anchors), even.size, span))
    parts = time_chunks(len(anchors), even.size * n_levels)
    table = np.empty((len(anchors[parts[0]]), even.size, 2, n_levels))
    for part in parts:
        k = len(anchors[part])
        np.multiply(trig[part, :, 1:], cos_pairs[:, None], out=table[:k, :n_even])
        np.multiply(trig[part, :, :2], sin_pairs[:, None], out=table[:k, n_even:])
        np.matmul(table[:k].reshape(-1, 2 * n_levels), shifts,
                  out=out[part].reshape(-1, span))
    if zero_level is not None:
        out[:, :n_even] += (zero_level * sign[even])[:, None]
    # laid out time-fastest, so that the Ryser updates and the slack's row
    # sums run along contiguous memory
    blocks = np.empty((len(rows), len(cols), len(anchors), span))
    entries = out.transpose(1, 0, 2)
    blocks[even], blocks[~even] = entries[:n_even], entries[n_even:]

    products = dec.eigenvectors[rows][:, None, :] * dec.eigenvectors[cols][None, :, :]
    u = UNIT_ROUNDOFF
    weight = np.max(np.sum(np.abs(products), axis=-1)) / (1.0 - _gamma(n))
    parity = np.where(even, 1.0, -1.0)[..., None]
    unpaired = (0.5 * np.max(np.sum(np.abs(products - parity * products[..., ::-1]), axis=-1))
                / (1.0 - _gamma(n + 1)) + u * weight)
    from_start = times - times[0]
    line = np.arange(n_times) * step
    # D from the computed differences, plus their three roundings
    drift = np.max(np.abs(from_start - line)) + 4.0 * u * np.max(np.abs(from_start) + np.abs(line))
    omega = np.max(np.abs(dec.bare_eigenvalues)) + abs(dec.offset)
    t_max = np.max(np.abs(times))
    bound = (weight + unpaired) * (2.0 * omega * (u * (t_max + span * abs(step)) + drift)
                                   + 20.0 * u + (1.0 + math.sqrt(2.0)) * _gamma(n + 3)) + unpaired
    return blocks.reshape(len(rows), len(cols), -1)[..., :n_times].transpose(2, 0, 1), float(bound)


def time_chunks(n_times: int, width: int, elements: int | None = None) -> list[slice]:
    """Consecutive slices of a time axis, each carrying about `elements`
    entries (CHUNK_ELEMENTS by default) when every time point carries
    `width` of them: complex ones in `propagator_block`'s stacks, reals in
    `propagator_grid`'s tables and `_block_weight`'s."""
    step = max(1, (elements or CHUNK_ELEMENTS) // max(1, width))
    return [slice(start, start + step) for start in range(0, n_times, step)]


def _square_stack(sub, cap: int, name: str) -> np.ndarray:
    """A (T, n, n) copy of one square block or a stack of them: complex for
    a complex input, real for any other."""
    a = np.array(sub, dtype=complex if np.iscomplexobj(sub) else float)
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
    own pivots and the rounding of a single block.  A real input is
    eliminated as its complex cast.
    """
    a = _square_stack(sub, DET_DIM_CAP, "determinant").astype(complex, copy=False)
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
    a (T,) array); every block follows the same subset sequence.  A real
    input stays real and gives the bits of its complex cast: a zero
    imaginary part adds only exact zeros, and |total| is exact either way.
    The sum omits Ryser's global sign (-1)^n, which |perm|^2 does not see.
    """
    a = _square_stack(sub, PERM_DIM_CAP, "permanent")
    count, n = len(a), a.shape[-1]
    w = np.zeros((count, n), dtype=a.dtype)
    total = np.zeros(count, dtype=a.dtype)
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
    """Per block, a bound on |surrogate - reduce(exact blocks)|, when every
    entry of the exact blocks lies within bound of blocks.

    reduce is `fermion_prob` or `boson_prob`, and the exact blocks are the
    ones `propagator_block` returns; blocks are `propagator_grid`'s real M,
    and the surrogate is det(M)^2 from `np.linalg.det` (fermions) or
    `boson_prob(M)`.  All of it is computed in float64.  Let n be the block
    size, u = 2^-53, and e the entry distance.

    - Unit-modulus factors.  `propagator_grid` bounds the distance of the
      exact blocks E from exp(-i h t) diag((-i)^a) M diag(i^b), and
      multiplying an entry by a unit-modulus number keeps its distance:
      E' = exp(i h t) diag(i^a) E diag((-i)^b) is within e of M entry by
      entry, with the row norms, |det| and |perm| of E, and a rounding
      model of reduce(E) (an E + dE below) is one of E' with the same
      |dE'| = |dE|.  So everything below compares M with E'.
    - Row sizes.  A row of either block is within sqrt(n) e (2-norm) and
      n e (1-norm) of the same row here, whose norms are measured (with
      their own rounding).  Let rho_r bound row r on both sides: 2-norms
      for det, 1-norms for perm.
    - Exact reductions.  det and perm are linear in each row.  Swapping
      the rows one at a time gives
      |x - y| <= c e sum_i prod_{l != i} rho_l, with c = sqrt(n) for det
      and n for perm, while |det| <= prod rho (Hadamard) and
      |perm| <= prod rho (1-norms, expanded term by term).
    - LU.  Partial pivoting, complex in `fermion_prob` and real in LAPACK,
      computes the LU of A + dA with |dA| <= gamma_{16n} |L||U| (Higham
      Thm 9.3, with 16u per complex multiply, Smith division or
      subtraction), |L| <= 1 and |U_kc| <= 2^k max|A|, so each side adds
      at most gamma_{16n} G to every entry, G = 2^n (max|blocks| + e): e
      grows by twice that before the step above.  In `fermion_prob` the
      product of the pivots, `hypot` and the square then add a relative
      6(n+1)u to |det|^2.  `np.linalg.det` returns sign exp(sum_i
      log|u_ii|); with log and exp within one ulp (numpy's own tolerance)
      the sum is within gamma_{n+2} sum_i |log|u_ii|| of the exact one,
      and sum_i |log|u_ii|| <= 2n log+ G + log(1/|d|) for d = prod u_ii.
      With exp and the square (5u), det^2 is within a relative
      5u + 4n gamma_{n+2} log+ G plus gamma_{n+2} d^2 log(1/d^2)
      <= gamma_{n+2}/e of d^2.
    - Ryser.  Each row sum w_r is updated 2^n times (u |w_r| each, with
      |w_r| <= rho_r), the n-fold product adds sqrt(2) gamma_2 per factor
      and the signed sum of 2^n terms sqrt(2) gamma_{2^n}: the computed
      perm is within f = 2^n prod(rho) ((1 + 2^n u)^n - 1 + 4nu
      + sqrt(2) gamma_{2^n}) of the exact one on each side; `hypot` and
      the square add a relative 6u to |perm|^2.  Real arithmetic is a
      special case of the complex one.
    - Squares.  With |x - y| <= m and |x|, |y| <= M,
      ||x|^2 - |y|^2| <= 2 M m, plus the relative rounding of each side
      on M^2 and the absolute term above.  Clipping both sides into
      [0, 1] only shrinks the distance.
    """
    n = blocks.shape[-1]
    u = UNIT_ROUNDOFF
    size = np.abs(blocks)
    if reduce is fermion_prob:
        pivot = 2.0 ** n * (np.max(size) + bound)
        growth = _gamma(16 * n) * pivot
        reach = math.sqrt(n) * (bound + 2.0 * growth)
        rows = np.sqrt(np.sum(size ** 2, axis=-1)) * (1.0 + _gamma(n + 4)) + reach
        ryser = 0.0
        relative = 6.0 * (n + 1) * u + 5.0 * u + 4.0 * n * _gamma(n + 2) * max(0.0, math.log(pivot))
        absolute = _gamma(n + 2) / math.e
    else:
        reach = n * bound
        rows = np.sum(size, axis=-1) * (1.0 + _gamma(n + 1)) + reach
        ryser = 2.0 ** n * ((1.0 + 2.0 ** n * u) ** n - 1.0 + 4.0 * n * u
                            + math.sqrt(2.0) * _gamma(2 ** n))
        relative = 12.0 * u
        absolute = 0.0
    magnitude = np.prod(rows, axis=-1)
    change = reach * magnitude * np.sum(1.0 / rows, axis=-1) + 2.0 * ryser * magnitude
    magnitude = magnitude * (1.0 + ryser)
    return 2.0 * magnitude * change + relative * magnitude ** 2 + absolute


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
    gives the window's real blocks M with a bound on their distance from
    the exact ones, the surrogate probability is det(M)^2 through LAPACK
    or `boson_prob(M)`, and `_probability_slack` bounds its distance from
    the exact one.  The surrogate only chooses which points to evaluate
    exactly (those its bound cannot rule out, see `_certified_argmax`), so
    the sampled maximum and its index are those of an exact sweep.  An
    unpaired decomposition has no real form and gets no surrogate: an
    infinite slack evaluates every point.  The slack scales with the
    blocks' row norms, so it rules out nearly every point even where the
    probabilities are tiny; it rules out few where the determinant or
    permanent cancels far below that row-norm bound (as in some n_s = 8
    windows), and such a sweep pays for the surrogate on top of the exact
    evaluations, at most about twice one exact sweep.  The golden polish
    is bracketed by one window step, inside which the curve is unimodal;
    the sampled maximum wins if the polish lands lower.
    """
    half_window = PEAK_WINDOW_PERIODS * 2.0 * math.pi / j
    step = 2.0 * math.pi / (j * PEAK_POINTS_PER_PERIOD)
    grid = np.arange(max(0.0, center - half_window), center + half_window, step)

    def exact(times):
        return _checked_prob(reduce(ev.submatrix(times)))

    surrogate, slack = np.zeros(len(grid)), math.inf
    if ev.dec._paired:
        blocks, bound = propagator_grid(ev.dec, ev.rows, ev.cols, grid)
        surrogate = np.linalg.det(blocks) ** 2 if reduce is fermion_prob else boson_prob(blocks)
        slack = _probability_slack(reduce, blocks, bound)
    k, p_k = _certified_argmax(np.clip(surrogate, 0.0, 1.0), slack,
                               lambda keep: exact(grid[keep]))
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
