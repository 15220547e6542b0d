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
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .chain import ChainSpec, WEAK_COUPLING_LIMIT, _times
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
    """Assign chain levels to sender-mode clusters by nearest energy."""
    if dec.n != spec.n_sites:
        raise ValueError(f"decomposition has {dec.n} levels, chain has {spec.n_sites} sites")
    if spec.j0 > WEAK_COUPLING_LIMIT * spec.j:
        warnings.warn(
            f"j0={spec.j0} is outside the perturbative regime; cluster "
            "assignment may be ambiguous",
            stacklevel=2,
        )
    resonant_modes = {k for k, _ in resonant_pairs(spec.n_s, spec.n_w)}
    energies = sender_spectrum(spec.n_s, spec.h)
    omega = dec.eigenvalues
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


def _top_two_clusters(clusters):
    """Clusters of the two highest unperturbed energies (modes k=1, k=2)."""
    by_energy = sorted(clusters, key=lambda c: c.unperturbed_energy, reverse=True)
    return by_energy[0], by_energy[1]


def ratio_diagnostics(spec: ChainSpec) -> list[RatioEstimate]:
    """Splitting ratio of the top cluster to the second-from-top.

    For 3-excitation non-resonant classes this is the half-gap of the
    outermost doublet over the central level's shift (limit 1/2); for
    4-excitation classes it is the slow/fast doublet ratio (limits 0.14
    and 0.38 by residue class).
    """
    if spec.n_s < 2:
        return []

    def top_ratio(j0: float) -> float:
        probe = replace(spec, j0=j0)
        top, second = _top_two_clusters(find_clusters(decompose_chain(probe), probe))
        return top.delta / second.delta

    coarse, fine = (top_ratio(j0) for j0 in RATIO_COUPLINGS)
    return [
        RatioEstimate(
            name="splitting_ratio_top_over_second",
            value=fine,
            value_coarse=coarse,
            error=abs(fine - coarse),
        )
    ]


def envelope_3ex(spec: ChainSpec, t, dec: SpectralDecomposition):
    """Probability envelope of the 3-excitation transfer curve.

    Resonant wire lengths (n_w = 4l+1): sin^4(delta* t), the square of the
    product of the two slow doublet amplitudes.  Other classes: the square
    of (1/4)(sin(delta_c t) + sin(delta_o t))^2 |sin(delta_o t)| built from
    the central (c) and outer (o) splittings.
    """
    if spec.n_s != 3:
        raise ValueError(f"envelope defined for n_s=3 only, got {spec.n_s}")
    t, scalar = _times(t)
    clusters = find_clusters(dec, spec)
    if any(c.multiplicity == 3 for c in clusters) and spec.n_w % 4 == 1:
        delta_star = distinct_splittings(clusters)[0][0]
        env = np.sin(delta_star * t) ** 4
    else:
        by_mode = {c.sender_mode: c for c in clusters}
        delta_o = by_mode[1].delta
        delta_c = by_mode[2].delta
        amp = 0.25 * (np.sin(delta_c * t) + np.sin(delta_o * t)) ** 2 * np.abs(
            np.sin(delta_o * t)
        )
        env = amp ** 2
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
    """
    if not ratio > 0:
        raise ValueError(f"ratio must be positive, got {ratio!r}")
    frac = ratio if isinstance(ratio, Fraction) else Fraction(ratio).limit_denominator(10**6)
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
    # the decomposition (and its rotation record) is dropped before
    # ratio_diagnostics builds its own two
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
        ratios=tuple(ratio_diagnostics(spec)),
    )
