"""Quasi-degenerate level clusters, splittings, and transfer-time prediction.

At weak block-wire coupling each sender-block eigenvalue turns into a
cluster of 2 perturbed chain levels (3 when a wire mode is resonant with
it).  The cluster half-spread delta is the Rabi frequency of that mode's
sender-receiver oscillation; the slowest distinct delta sets the transfer
time.  Splittings scale as J0 for resonant clusters (first order) and
J0^2 for non-resonant ones (second order).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .chain import ChainSpec, NumericalConsistencyError, WEAK_COUPLING_LIMIT, _real, _times
from .resonance import Feasibility, pp_feasible, resonant_pairs
from .spectral import SpectralDecomposition, decompose_chain, sender_spectrum

RULE_OF_THUMB_THETA = 0.2
SPLIT_GROUP_RTOL = 1e-3
RATIO_COUPLINGS = (1e-3, 1e-4)   # coarse and fine J0 of the ratio extrapolation


class ClusterAmbiguityError(RuntimeError):
    """Two clusters claimed the same chain level (J0 too large)."""

    def __init__(self, message: str, assignments: dict):
        super().__init__(message)
        self.assignments = assignments


class NoTransferPredicted(RuntimeError):
    """The wire-length class admits no PP transfer prediction."""


@dataclass(frozen=True)
class LevelCluster:
    sender_mode: int          # k, 1-based; unperturbed energy h + cos(k*pi/(n_s+1))
    unperturbed_energy: float
    members: tuple            # level indices into the ascending chain spectrum
    multiplicity: int         # 2, or 3 when a wire mode is resonant with k
    delta: float              # half the max-min spread within the cluster
    order: int                # perturbation order: 1 resonant, 2 not


@dataclass(frozen=True)
class RuleOfThumbResult:
    holds: bool
    slow_modes: tuple         # sender modes k in the slowest splitting group


@dataclass(frozen=True)
class RatioEstimate:
    """Splitting ratio extrapolated toward J0 -> 0.

    `value` is measured at the smaller J0, `value_coarse` at the larger;
    their difference is the quoted error bar.
    """

    name: str
    value: float
    value_coarse: float
    error: float


@dataclass(frozen=True)
class CommensurabilityVerdict:
    feasible: bool
    witness: str
    solution: tuple | None    # (n, m) exemplar when feasible


@dataclass(frozen=True)
class PerturbationReport:
    clusters: tuple
    delta_star: float
    rule_of_thumb_holds: bool
    slow_modes: tuple
    predicted_tau: float | None
    tau_alt: float | None     # pi/delta*, the trio-peak location
    feasibility: Feasibility
    ratios: tuple


def find_clusters(dec: SpectralDecomposition, spec: ChainSpec) -> list[LevelCluster]:
    """Assign chain levels to sender-mode clusters by nearest energy.

    A cluster's spread is a difference of computed levels, so it means
    something only above their roundoff.  Both eigensolves of the bare
    chain H0 (LAPACK `eigh` on its two mirror sectors, and the QL) are
    backward stable: the levels are the exact ones of H0 + E with
    ||E||_2 <= p(N) u ||H0||_2 (u = 2^-53; each rotation or reflection adds
    a few u ||H0||, p(N) grows modestly with N, and p(N) = N is taken here).
    By Weyl's inequality each bare level is then within N u ||H0||_2 of an
    exact one, and ||H0||_2 <= max|omega| because the levels pair
    (max|omega| = max|bare| + |h|).  Adding the offset h rounds once more,
    by at most u max|omega|.  A spread at or below twice the sum,
    (N + 1) eps max|omega| with eps = 2^-52, cannot be told from a zero
    splitting, and raises NumericalConsistencyError instead of giving a
    time scale of roundoff.
    """
    if dec.n != spec.n_sites:
        raise ValueError(f"decomposition has {dec.n} levels, chain has {spec.n_sites} sites")
    resonant_modes = {k for k, _ in resonant_pairs(spec.n_s, spec.n_w)}
    energies = sender_spectrum(spec.n_s, spec.h)
    omega = dec.eigenvalues
    resolution = (dec.n + 1) * np.finfo(float).eps * float(np.max(np.abs(omega)))
    clusters = []
    claimed: dict[int, int] = {}
    for k in range(1, spec.n_s + 1):
        e0 = energies[k - 1]
        mult = 3 if k in resonant_modes else 2
        members = tuple(sorted(np.argsort(np.abs(omega - e0))[:mult].tolist()))
        for level in members:
            if level in claimed:
                raise ClusterAmbiguityError(
                    f"level {level} claimed by sender modes {claimed[level]} and {k}; "
                    f"j0={spec.j0} is too large for the perturbative picture",
                    assignments={**claimed, level: (claimed[level], k)},
                )
            claimed[level] = k
        spread = float(omega[members[-1]] - omega[members[0]])
        if spread <= resolution:
            raise NumericalConsistencyError(
                f"sender mode {k}: cluster spread {spread:.3g} is within the levels' "
                f"roundoff ({resolution:.3g}); j0={spec.j0} is too small to resolve it")
        clusters.append(
            LevelCluster(
                sender_mode=k,
                unperturbed_energy=float(e0),
                members=members,
                multiplicity=mult,
                delta=spread / 2.0,
                order=1 if k in resonant_modes else 2,
            )
        )
    return clusters


def distinct_splittings(clusters):
    """Group cluster splittings into distinct values, ascending.

    Mirror-image clusters carry equal deltas by spectral antisymmetry;
    they must count as one value, not two.  Returns a list of
    (value, [sender modes]) with value the group minimum.
    """
    pairs = sorted((c.delta, c.sender_mode) for c in clusters)
    groups = []
    for delta, mode in pairs:
        if groups and delta <= groups[-1][0] * (1.0 + SPLIT_GROUP_RTOL):
            groups[-1][1].append(mode)
        else:
            groups.append([delta, [mode]])
    return [(value, tuple(modes)) for value, modes in groups]


def rule_of_thumb(clusters) -> RuleOfThumbResult:
    """One splitting value far below the rest (theta = 0.2), or only one value."""
    if not clusters:
        raise ValueError("no clusters")
    values = distinct_splittings(clusters)
    if len(values) == 1:
        return RuleOfThumbResult(holds=True, slow_modes=values[0][1])
    slow, runner_up = values[0], values[1]
    holds = slow[0] <= RULE_OF_THUMB_THETA * runner_up[0]
    return RuleOfThumbResult(holds=holds, slow_modes=slow[1])


def _pp_predicted(feasibility: Feasibility, rot: RuleOfThumbResult) -> bool:
    """Whether a PP transfer time is predicted: never for class NONE,
    otherwise when the rule of thumb holds or the class is quasi-PP."""
    return feasibility != Feasibility.NONE and (
        rot.holds or feasibility == Feasibility.QUASI_PP)


def predict_transfer_time(spec: ChainSpec,
                          dec: SpectralDecomposition | None = None) -> float:
    """tau = pi/(2 delta*) with delta* the slowest splitting.

    Raises NoTransferPredicted for wire-length classes where neither the
    rule of thumb nor the quasi-PP classification applies.
    """
    if dec is None:
        dec = decompose_chain(spec)
    clusters = find_clusters(dec, spec)
    if not _pp_predicted(pp_feasible(spec.n_s, spec.n_w), rule_of_thumb(clusters)):
        raise NoTransferPredicted(
            f"no PP transfer predicted for n_s={spec.n_s}, n_w={spec.n_w} "
            f"(class {spec.n_w % (spec.n_s + 1)} mod {spec.n_s + 1})"
        )
    delta_star = distinct_splittings(clusters)[0][0]
    return math.pi / (2.0 * delta_star)


def splitting_scaling(spec: ChainSpec, j0_list) -> dict[int, float]:
    """Log-log slope of delta vs J0 per sender mode."""
    j0_list = sorted(float(x) for x in j0_list)
    if len(j0_list) < 3:
        raise ValueError("need at least 3 coupling values for a slope fit")
    if j0_list[0] <= 0 or j0_list[-1] > WEAK_COUPLING_LIMIT:
        raise ValueError(f"couplings must lie in (0, {WEAK_COUPLING_LIMIT}]")
    if j0_list[-1] / j0_list[0] < 10.0:
        raise ValueError("couplings must span at least one decade")
    deltas: dict[int, list] = {}
    for j0 in j0_list:
        probe = replace(spec, j0=j0)
        for cluster in find_clusters(decompose_chain(probe), probe):
            deltas.setdefault(cluster.sender_mode, []).append(cluster.delta)
    log_j0 = np.log(j0_list)
    return {
        mode: float(np.polyfit(log_j0, np.log(values), 1)[0])
        for mode, values in deltas.items()
    }


def _top_ratio(spec: ChainSpec, j0: float = RATIO_COUPLINGS[-1], own=None) -> float:
    """Top-over-second splitting ratio of `spec`'s chain at coupling j0;
    by default at the coupling whose ratio `RatioEstimate.value` reports.
    `own` are `spec`'s clusters when the caller holds them: the probe at
    j0 = spec.j0 is `spec` itself and takes them instead of a new build."""
    probe = replace(spec, j0=j0)
    if own is None or probe != spec:
        own = find_clusters(decompose_chain(probe), probe)
    # the clusters of the two highest unperturbed energies (modes k=1, k=2)
    top, second = sorted(own, key=lambda c: c.unperturbed_energy, reverse=True)[:2]
    return top.delta / second.delta


def ratio_diagnostics(spec: ChainSpec) -> list[RatioEstimate]:
    """Splitting ratio of the top cluster to the second-from-top.

    For 3-excitation non-resonant classes this is the half-gap of the
    outermost doublet over the central level's shift (limit 1/2); for
    4-excitation classes it is the slow/fast doublet ratio (limits 0.14
    and 0.38 by residue class).
    """
    return _ratio_estimates(spec, None)


def _ratio_estimates(spec: ChainSpec, own) -> list[RatioEstimate]:
    """`ratio_diagnostics`, with `spec`'s own clusters (or None) for
    `_top_ratio`."""
    if spec.n_s < 2:
        return []
    coarse, fine = (_top_ratio(spec, j0, own) for j0 in RATIO_COUPLINGS)
    return [
        RatioEstimate(
            name="splitting_ratio_top_over_second",
            value=fine,
            value_coarse=coarse,
            error=abs(fine - coarse),
        )
    ]


def envelope(spec: ChainSpec, t, dec: SpectralDecomposition):
    """Slow upper envelope of the fermion transfer curve, for any n_s.

    At weak coupling the sender-receiver block is diagonal in the sender
    modes, so p(t) is a product over clusters: sin^2(delta t) for a doublet
    (a two-level Rabi oscillation), sin^4(delta t / 2) for a resonant trio
    (sender, wire and receiver modes; levels e0, e0 +/- delta).  Each
    factor is <= 1, so the product over the clusters of the slowest order
    present, without the faster factors, bounds p from above.
    """
    t, scalar = _times(t)
    clusters = find_clusters(dec, spec)
    slowest = max(c.order for c in clusters)
    env = np.ones_like(t)
    for c in clusters:
        if c.order == slowest:
            env *= (np.sin(c.delta * t) ** 2 if c.multiplicity == 2
                    else np.sin(c.delta * t / 2) ** 4)
    return env[0] if scalar else env


def _solve_off_diagonal(num: int, den: int, off: int):
    """Nonnegative (n, m) with den*(4m+off) = num*(4n+off), if any."""
    c = off * (num - den)
    if c % 4:  # gcd(4*den, 4*num) = 4 for coprime num, den
        return None
    c4 = c // 4  # den*m - num*n = c4
    # the least m >= 0; its n is >= 0 as well, because c4 <= 0 when
    # num <= den and 0 <= c4 < num otherwise
    m = (c4 % num) * pow(den, -1, num) % num
    return ((den * m - c4) // num, m)


def commensurability_check(ratio) -> CommensurabilityVerdict:
    """Can sin waves at frequencies with this ratio peak together?

    Joint peaks need den*(4m+1) = num*(4n+1) or den*(4m+3) = num*(4n+3)
    for integers n, m; exact rational arithmetic decides.  The measured
    limit 1/2 fails both: the congruences reduce to 8m = 4n-1 and
    8m = 4n-3, an even left side against an odd right side.

    An int or Fraction is taken exactly, another real rounded to denominator
    <= 10**6; bools, non-reals, non-finite values and ratios that are not
    positive after rounding raise ValueError.
    """
    if isinstance(ratio, numbers.Rational) and not isinstance(ratio, bool):
        frac = Fraction(ratio)      # exact input stays exact
    else:
        value = _real("ratio", ratio)
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"ratio must be positive and finite, got {ratio!r}")
        frac = Fraction(value).limit_denominator(10**6)
    if not frac > 0:
        raise ValueError(f"ratio must be positive at denominator <= 10**6, got {ratio!r}")
    num, den = frac.numerator, frac.denominator
    for off in (1, 3):
        solution = _solve_off_diagonal(num, den, off)
        if solution is not None:
            n, m = solution
            return CommensurabilityVerdict(
                feasible=True,
                witness=f"{den}*(4*{m}+{off}) = {num}*(4*{n}+{off})",
                solution=(n, m),
            )
    witness = f"4 does not divide {num}-{den} = {num - den}"
    if abs(num - den) % 2 == 1:
        witness += "; left side even, right side odd"
    return CommensurabilityVerdict(feasible=False, witness=witness, solution=None)


def perturbation_report(spec: ChainSpec) -> PerturbationReport:
    # the decomposition (with its eigenvectors) is dropped before the ratio
    # probes; a probe at spec.j0 reuses these clusters
    clusters = find_clusters(decompose_chain(spec), spec)
    rot = rule_of_thumb(clusters)
    delta_star = distinct_splittings(clusters)[0][0]
    feasibility = pp_feasible(spec.n_s, spec.n_w)
    predicted = _pp_predicted(feasibility, rot)
    return PerturbationReport(
        clusters=tuple(clusters),
        delta_star=delta_star,
        rule_of_thumb_holds=rot.holds,
        slow_modes=rot.slow_modes,
        predicted_tau=math.pi / (2.0 * delta_star) if predicted else None,
        tau_alt=math.pi / delta_star if predicted else None,
        feasibility=feasibility,
        ratios=tuple(_ratio_estimates(spec, clusters)),
    )
