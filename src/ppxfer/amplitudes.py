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
golden polish evaluates each probe it has not seen together with every
probe of its next GOLDEN_LOOKAHEAD iterations in one array call, and
returns the bits of a one-probe-at-a-time search.

The sublattice real form (F = exp(-i h t) diag((-i)^a) M diag(i^b) with
M real on a paired decomposition) has one owner, `_lattice`, which
derives it and yields M's sums on a grid chunk by chunk: it splits each
time into an anchor and a shift and builds the sums from anchor and shift
cos/sin tables combined by angle addition, about 2 sqrt(T) cos and sin per
positive level instead of T, in one real matrix product per chunk of
anchors.  Its two callers:

- `_block_weight`, the battery's sum |F_ab|^2 over one block: the squares
  of the sums, on the lattice when the grid is uniform to a few ulp and
  with each time its own anchor (its sums taken row by row, not by the
  product) otherwise, so that a time of a non-uniform grid, and a single
  time, keeps the bits it has alone;
- `propagator_grid`, the dense window sweep's surrogate, with a rigorous
  bound on its distance from `propagator_block`'s values.  |det M| and
  |perm M| are those of F, so the surrogate probabilities are
  `fermion_prob` and `boson_prob` of the real M.  They only choose which
  grid points `propagator_block` evaluates: every point whose bounded
  surrogate probability could reach the maximum is evaluated exactly, so
  the sweep's maximum, its index and everything after it are those of an
  exact sweep.  No surrogate value is ever returned, and an unpaired
  decomposition gets no surrogate (every point is evaluated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, NumericalConsistencyError, _finite_reals, _site, _size, _times
from .spectral import SpectralDecomposition, decompose_chain
from . import perturbation

DET_DIM_CAP = 64
PERM_DIM_CAP = 12
PROB_TOL = 1e-9
CHUNK_ELEMENTS = 1 << 13            # entries per time chunk of a batched product
UNIT_ROUNDOFF = 2.0 ** -53          # float64 round-to-nearest relative error
LATTICE_DRIFT = 16.0                # D / (u max|t|) up to which `_block_weight` takes a grid as uniform

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
    not grow with the grid.  A chunk's phase table and scaled rows are its
    own temporaries, freed before the next chunk makes its own (README,
    Numerical notes).  The scaled rows are folded into one (T_chunk rows,
    N) matrix and multiplied by V_cols^T in one matrix product written
    straight into the output stack, instead of one small product per time.
    Blocks with one row or one column keep one product per time, because
    numpy sends those to dot/gemv, whose rounding differs from gemm's.  So
    a point has the same bits alone as inside a grid, which
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
    for part in time_chunks(len(times), left.size):
        scaled = left * _phases(dec, times[part])[:, None, :]
        if fold:
            np.matmul(scaled.reshape(-1, dec.n), right, out=out[part].reshape(-1, n_cols))
        else:
            np.matmul(scaled, right, out=out[part])
        # freed before the next chunk allocates its own, so that one chunk's
        # rows are live at a time (README, Numerical notes)
        del scaled
    return out[0] if scalar else out


def _phases(dec: SpectralDecomposition, times: np.ndarray) -> np.ndarray:
    """The (T, N) table exp(-i (w_k + h) t) for every level and each time
    of a checked 1-D array, exact-conjugate over +/- pairs.

    Every row has the same per-element arithmetic, so a row's bits do not
    depend on the other times.  When the bare levels pair exactly, exp is
    evaluated on the upper half only (the middle zero level included) and
    the lower half is its reversed conjugate: the same bits as the direct
    expression, whose sin/cos are odd/even bitwise, once the -0.0
    imaginary parts that conj makes at t = 0 are turned back into +0.0.
    """
    t = times[:, None]
    w = dec.bare_eigenvalues
    if dec._paired:
        upper = np.exp(-1j * w[len(w) // 2:] * t)
        lower = np.conjugate(upper[:, len(w) % 2:][:, ::-1])
        lower.imag += 0.0
        table = np.concatenate([lower, upper], axis=1)
    else:
        table = np.exp(-1j * w * t)
    if dec.offset:
        table *= np.exp(-1j * dec.offset * t)
    return table


def _lattice(dec: SpectralDecomposition, rows: np.ndarray, cols: np.ndarray, times: np.ndarray,
             span: int, step: float):
    """The sublattice real sums of the block rows x cols (0-based site
    arrays) on the lattice t_{aB} + b d of a checked 1-D time array
    (B = span, d = step, a an anchor and 0 <= b < B), one chunk of anchors
    times[::B] at a time: a generator of (part, values), part the chunk's
    slice of the anchors and values its (k, E, B) sums, E = len(rows)
    len(cols), in scratch that the next chunk overwrites.

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

    The sums are these: the cosine sum for a + b even, the sine sum for
    a + b odd, the entries in class order (the cosine class first, each
    class row-major) and each times (-1)^floor((a-b)/2), the sign
    `propagator_grid` folds into M.  cos and sin of w (t_{aB} + b d) come
    by angle addition from an anchor table over the chunk's anchors and a
    shift table over b d, both over the K = floor(N/2) positive levels:
    each entry's 2K coefficients, its pair products 2 V_ak V_bk (sign
    folded) times the anchor cos and sin, meet the (2K, B) shift table in
    one real matrix product per chunk (coefficients worth about
    CHUNK_ELEMENTS complex numbers), whatever the block's shape.  The zero
    level of odd N is added after the product.  With B = 1 the one shift
    is b d = 0, whose cos and sin are exactly 1 and 0: each time is its
    own anchor, and each sum is taken row by row (np.sum) from the half of
    its coefficients that meets the shift's cos 1, instead of by the
    product: a product with one column goes to gemv or dot, whose rows
    round by their place in the chunk, so a time would have other bits
    inside a grid than alone.  The scratch is allocated once per call: a
    caller still holds one chunk's values while the generator builds the
    next, so buffers made per chunk would keep two chunks' worth live
    (README, Numerical notes).
    """
    if not dec._paired:
        raise ValueError("the real form needs a decomposition whose bare levels pair "
                         "exactly (a zero bare diagonal)")
    half = dec.n // 2
    levels = dec.bare_eigenvalues[dec.n - half:]
    upper = dec.eigenvectors[:, dec.n - half:]
    even = (rows[:, None] + cols[None, :]) % 2 == 0
    # (-1)^floor((a-b)/2) = 1 - ((a-b) & 2) on each entry's coefficients,
    # which negates its sums exactly: one pass over the pairs, not the sums
    sign = 1 - ((rows[:, None] - cols[None, :]) & 2)
    pairs = 2.0 * upper[rows][:, None, :] * upper[cols][None, :, :] * sign[..., None]
    # against the anchor table (cos, sin) a cosine entry takes (c, -c) and a
    # sine entry (s, s) on the reversed table (sin, cos), so that against
    # (cos, sin) of the shift they give c cos and s sin of the summed angle
    cos_pairs = np.stack([pairs[even], -pairs[even]], axis=1)
    sin_pairs = pairs[~even][:, None]
    n_even = len(cos_pairs)
    if dec.n % 2:
        middle = dec.eigenvectors[:, half]
        zero_level = (middle[rows][:, None] * middle[cols][None, :] * sign)[even][:, None]
    shift = np.multiply.outer(np.arange(span) * step, levels)
    shifts = np.concatenate([np.cos(shift), np.sin(shift)], axis=1).T
    anchors = times[::span]
    parts = time_chunks(len(anchors), even.size * half)
    size = len(anchors[parts[0]])
    angles, trig = np.empty((size, half)), np.empty((size, 2, half))
    table = np.empty((size, even.size, 2, half))
    scratch = np.empty((size, even.size, span))
    for part in parts:
        k = len(anchors[part])
        np.multiply(anchors[part, None], levels, out=angles[:k])
        np.cos(angles[:k], out=trig[:k, 0])
        np.sin(angles[:k], out=trig[:k, 1])
        values = scratch[:k]
        if span == 1:
            # against the one shift (1, 0) only each entry's first half counts
            np.multiply(trig[:k, None, 0], cos_pairs[:, 0], out=table[:k, :n_even, 0])
            np.multiply(trig[:k, None, 1], sin_pairs[:, 0], out=table[:k, n_even:, 0])
            np.sum(table[:k, :, 0], axis=-1, out=values[..., 0])
        else:
            np.multiply(trig[:k, None], cos_pairs, out=table[:k, :n_even])
            np.multiply(trig[:k, None, ::-1], sin_pairs, out=table[:k, n_even:])
            np.matmul(table[:k].reshape(-1, 2 * half), shifts, out=values.reshape(-1, span))
        if dec.n % 2:
            values[:, :n_even] += zero_level
        yield part, values


def _drift(times: np.ndarray) -> tuple[float, float]:
    """(d, D) of a checked 1-D time array: its step d = t_1 - t_0 (0.0 for
    one time) and D >= max_j |t_j - (t_0 + j d)|, the measured distances
    plus the three roundings of each (4u (|t_j - t_0| + |j d|))."""
    step = times[1] - times[0] if len(times) > 1 else 0.0
    from_start = times - times[0]
    line = np.arange(len(times)) * step
    drift = (np.max(np.abs(from_start - line))
             + 4.0 * UNIT_ROUNDOFF * np.max(np.abs(from_start) + np.abs(line)))
    return step, drift


def _block_weight(dec: SpectralDecomposition, rows: np.ndarray, cols: np.ndarray,
                  times: np.ndarray) -> np.ndarray:
    """sum_ab |F_ab(t)|^2 over the block rows x cols (0-based site arrays)
    for each time of a checked, non-empty 1-D array: the squares of
    `_lattice`'s real sums (whose precondition it shares), summed per
    time.  The sign folded into a sum drops out of its square.

    A grid whose drift D (`_drift`) is at most LATTICE_DRIFT u max|t|
    (u = 2^-53) is taken as uniform and runs on the lattice with span
    B = ceil(sqrt(T)), as `propagator_grid` does: about 2 sqrt(T) cos and
    sin per positive level instead of T, and a sample's last bits depend on
    its anchor.  An exactly uniform grid from t_0 = 0 measures D up to
    8u max|t| from `_drift`'s allowance alone (|t_j - t_0| and |j d| are
    each at most max|t|), and np.linspace and np.arange add a rounding or
    two of max|t|; 16u max|t| is 8 to 16 ulp of the grid's largest time.
    Any other grid runs with span 1: each time is its own anchor, so a time
    of such a grid, and a single time, has the bits it has alone.

    Bound.  With G, S, P and d as in `propagator_grid` and Omega = max_k
    |w_k| (the real form does not see h), that docstring's Pairing and
    Here terms put every sum within e of a unit-modulus multiple of its
    G_ab, with
        e = (S + P) (Omega (u (t_max + 2 B |d|) + 2D) + 8u + gamma_{N+1}) + P
    on the lattice and
        e = (S + P) (Omega u t_max + 8u + gamma_{N+1}) + P
    with span 1 (every shift is the exact b d = 0 and every anchor its own
    time).  |G_ab| <= S, so each square is within e (2S + e) of |G_ab|^2,
    and rounding the squares and their sum over the E = len(rows)
    len(cols) entries adds at most gamma_E E (S + e)^2: each weight lies
    within W(e) = E e (2S + e) + gamma_{E+1} E (S + e)^2 of
    sum_ab |G_ab(t)|^2.  `propagator_grid`'s bound for the same block and
    grid is at least either e, and its entries put `propagator_block`'s
    sum_ab |F_ab|^2 (one more rounding, for |F_ab|) within W of it as well,
    so the two weights lie within twice W of `propagator_grid`'s bound of
    each other.
    """
    step, drift = _drift(times)
    uniform = drift <= LATTICE_DRIFT * UNIT_ROUNDOFF * np.max(np.abs(times))
    span = math.isqrt(len(times) - 1) + 1 if uniform else 1
    sums = np.empty((len(times[::span]), span))
    for part, values in _lattice(dec, rows, cols, times, span, step):
        np.sum(np.square(values, out=values), axis=1, out=sums[part])
    return sums.reshape(-1)[:len(times)]


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
    the real sum that `_lattice` derives (and whose precondition it
    shares), the cosine sum for a + b even and the sine sum for a + b odd,
    times (-1)^floor((a-b)/2), which folds i^(a-b) into M.  The diagonal
    factors have unit modulus, so |det F| = |det M| and |perm F| = |perm M|.

    The sums are `_lattice`'s with span B = ceil(sqrt(T)) and the grid's
    own step d = t_1 - t_0: time t_{aB+b} is split into the anchor t_{aB}
    and the shift b d, about 2 sqrt(T) cos and sin per positive level
    instead of T.  Each chunk's entries are scattered from class order
    straight into the stack.  A grid of one time has B = 1, so its sums are
    `_lattice`'s row-by-row ones; on the 12 one-time grids of the tests'
    `bound_cases` these differ from the matrix product's in the last bits
    of 10 (by at most 6.5e-6 of the bound).  Surrogate values need no
    bitwise match with `propagator_block`, and the bound below holds for
    any summation order.  Any time array `chain._times` accepts is taken
    as a grid; the less uniform it is, the larger the bound.

    The bound compares both computations with the exact
    G_ab(t) = sum_k V_ak V_bk exp(-i (w_k + h) t), evaluated at the float
    grid values from the float V, w and offset h.  Write u = 2^-53,
    Omega = max_k |w_k| + |h|, S = max_ab sum_k |V_ak V_bk|, t_max =
    max_j |t_j|, and D = max_j |t_j - (t_0 + j d)| (measured on the grid,
    plus the rounding of that measurement; `_drift`).

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
    n_times, n = len(times), dec.n
    span = math.isqrt(n_times - 1) + 1
    step, drift = _drift(times)
    even = (rows[:, None] + cols[None, :]) % 2 == 0
    n_even = np.count_nonzero(even)
    # laid out time-fastest, so that the Ryser updates and the slack's row
    # sums run along contiguous memory
    blocks = np.empty((len(rows), len(cols), len(times[::span]), span))
    for part, values in _lattice(dec, rows, cols, times, span, step):
        blocks[even, part] = values[:, :n_even].transpose(1, 0, 2)
        blocks[~even, part] = values[:, n_even:].transpose(1, 0, 2)

    products = dec.eigenvectors[rows][:, None, :] * dec.eigenvectors[cols][None, :, :]
    u = UNIT_ROUNDOFF
    weight = np.max(np.sum(np.abs(products), axis=-1)) / (1.0 - _gamma(n))
    parity = np.where(even, 1.0, -1.0)[..., None]
    unpaired = (0.5 * np.max(np.sum(np.abs(products - parity * products[..., ::-1]), axis=-1))
                / (1.0 - _gamma(n + 1)) + u * weight)
    omega = np.max(np.abs(dec.bare_eigenvalues)) + abs(dec.offset)
    t_max = np.max(np.abs(times))
    bound = (weight + unpaired) * (2.0 * omega * (u * (t_max + span * abs(step)) + drift)
                                   + 20.0 * u + (1.0 + math.sqrt(2.0)) * _gamma(n + 3)) + unpaired
    return blocks.reshape(len(rows), len(cols), -1)[..., :n_times].transpose(2, 0, 1), float(bound)


def time_chunks(n_times: int, width: int) -> list[slice]:
    """Consecutive slices of a time axis, each carrying about
    CHUNK_ELEMENTS entries when every time point carries `width` of them:
    complex ones in `propagator_block`'s stacks, reals (counted as half a
    complex number each) in `_lattice`'s coefficient tables."""
    step = max(1, CHUNK_ELEMENTS // max(1, width))
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
    """|det|^2 via LU with partial pivoting.

    Takes one (n, n) block (returns a float) or a (T, n, n) stack (returns
    a (T,) array); the stack is eliminated in lockstep, each block with its
    own pivots and the rounding of a single block.  A real input stays
    real.  Its last bits may differ from its complex cast's: numpy divides
    by a complex pivot with a zero imaginary part as a product with its
    reciprocal, two roundings where the real quotient has one.
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
    1-D, of finite reals and strictly increasing."""
    t_grid = _finite_reals(t_grid)
    if t_grid is None or t_grid.ndim != 1 or not len(t_grid) or np.any(np.diff(t_grid) <= 0):
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
    and the surrogate is reduce(M).  All of it is computed in float64.  Let
    n be the block size, u = 2^-53, and e the entry distance.

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
    - LU.  `fermion_prob`'s partial pivoting computes the LU of A + dA
      with |dA| <= gamma_{16n} |L||U| (Higham Thm 9.3, with 16u per
      complex multiply, Smith division or subtraction), |L| <= 1 and
      |U_kc| <= 2^k max|A|, so each side adds at most gamma_{16n} G to
      every entry, G = 2^n (max|blocks| + e): e grows by twice that
      before the step above.  The product of the pivots, `hypot` and the
      square then add a relative 6(n+1)u to |det|^2 on each side.  Real
      arithmetic (the surrogate side) is a special case of the complex
      one.
    - Ryser.  Each row sum w_r is updated 2^n times (u |w_r| each, with
      |w_r| <= rho_r), the n-fold product adds sqrt(2) gamma_2 per factor
      and the signed sum of 2^n terms sqrt(2) gamma_{2^n}: the computed
      perm is within f = 2^n prod(rho) ((1 + 2^n u)^n - 1 + 4nu
      + sqrt(2) gamma_{2^n}) of the exact one on each side; `hypot` and
      the square add a relative 6u to |perm|^2.  Real arithmetic is a
      special case of the complex one.
    - Squares.  With |x - y| <= m and |x|, |y| <= M,
      ||x|^2 - |y|^2| <= 2 M m, plus the relative rounding of each side
      on M^2.  Clipping both sides into [0, 1] only shrinks the distance.
    """
    n = blocks.shape[-1]
    u = UNIT_ROUNDOFF
    size = np.abs(blocks)
    if reduce is fermion_prob:
        growth = _gamma(16 * n) * 2.0 ** n * (np.max(size) + bound)
        reach = math.sqrt(n) * (bound + 2.0 * growth)
        rows = np.sqrt(np.sum(size ** 2, axis=-1)) * (1.0 + _gamma(n + 4)) + reach
        ryser = 0.0
        relative = 12.0 * (n + 1) * u
    else:
        reach = n * bound
        rows = np.sum(size, axis=-1) * (1.0 + _gamma(n + 1)) + reach
        ryser = 2.0 ** n * ((1.0 + 2.0 ** n * u) ** n - 1.0 + 4.0 * n * u
                            + math.sqrt(2.0) * _gamma(2 ** n))
        relative = 12.0 * u
    magnitude = np.prod(rows, axis=-1)
    change = reach * magnitude * np.sum(1.0 / rows, axis=-1) + 2.0 * ryser * magnitude
    magnitude = magnitude * (1.0 + ryser)
    return 2.0 * magnitude * change + relative * magnitude ** 2


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
    the exact ones, the surrogate probability is reduce(M), and
    `_probability_slack` bounds its distance from the exact one.  The
    surrogate only chooses which points to evaluate exactly (those its
    bound cannot rule out, see `_certified_argmax`), so the sampled
    maximum and its index are those of an exact sweep.  An unpaired
    decomposition has no real form and gets no surrogate: an infinite
    slack evaluates every point.  The slack scales with the blocks' row
    norms, so it rules out nearly every point even where the
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
        surrogate = reduce(blocks)
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
    """Locate the fermion transfer peak and the boson peak in its window.

    Without `dec` the chain is decomposed by the QL, whose bits the pinned
    peaks keep (see `decompose_chain`)."""
    if dec is None:
        dec = decompose_chain(spec, _ql=True)
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
