"""The four benchmark workloads: inputs, calls, and correctness checks.

Each workload turns (seed, round) into a list of call inputs, runs one
input through a stable library entry point, and checks the outputs.  The
library sees only the generated ``ChainSpec``s (or CLI argument lists).
Round r of a run draws its seeded inputs from (seed, r).

Calls go through ``<module>.<name>`` attribute lookups at call time; a
function bound by name at import time would bypass the tracer.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ppxfer import amplitudes, cli, observables, oracle, perturbation, resonance, spectral
from ppxfer.chain import ChainSpec

EPS = float(np.finfo(float).eps)

# peak_sweep: the paper's main run on PP-feasible chains
PEAK_J0 = 0.01
PEAK_NW = (21, 121)
PEAK_NS = (2, 3, 4)
PEAK_SEEDED_NS = 2
ACCEPTANCE = ((2, 41), (3, 41), (4, 101))   # all three are universal lengths
ACCEPTANCE_FLOOR = 0.99          # tests/test_acceptance.py, checks 3 and 4
PEAK_TIME_RTOL = 0.10            # t_fermion vs pi/(2 delta*) or pi/delta*

# long_wire: spectra of long chains
LONG_J0 = 1e-3
LONG_NW = (300, 450)
LONG_NS = (2, 3, 4)
CLOSED_FORM_RTOL = 1e-3

# battery_grid: explicit uniform grids, as `battery --tmax T --samples S`
BATTERY_J0 = 0.01
BATTERY_H = 2.0
BATTERY_NW = (16, 48)
BATTERY_NB = (2, 3, 4)
BATTERY_SAMPLES = 20_000
BATTERY_TMAX = (5e3, 5e4)
SYMMETRY_ZERO = 1e-10            # |E_hop|, |dE_sw| bound of `ppxfer validate`

GATE_COMMANDS = (("validate",), ("oracle-check",))


@dataclass(frozen=True)
class BatteryInput:
    spec: ChainSpec
    t_max: float
    samples: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[int, int], list]      # (seed, round) -> call inputs
    call: Callable[[object], dict]          # input -> outputs
    check: Callable[[object, dict], list]   # (input, outputs) -> problems
    tolerances: Callable[[object, dict], dict]  # reference tolerance per output
    warmup: Callable[[], None]


def label(inp) -> str:
    """Stable name of one call input, the key of the reference file."""
    if isinstance(inp, ChainSpec):
        return f"n_s={inp.n_s} n_w={inp.n_w} j0={inp.j0!r} h={inp.h!r}"
    if isinstance(inp, BatteryInput):
        return f"{label(inp.spec)} tmax={inp.t_max!r} samples={inp.samples}"
    return " ".join(inp)


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _mirrored_lengths(rng: random.Random, lo: int, hi: int) -> list:
    """A seeded wire length in [lo, hi], its mirror image and the middle.

    Call cost grows with the wire length.  Mirroring keeps the round's
    total cost nearly independent of the seed, and the middle length fixes
    which call is the median one.
    """
    n_w = rng.randint(lo, hi)
    return [n_w, lo + hi - n_w, (lo + hi) // 2]


# ---------------------------------------------------------------- peak_sweep

def _peak_pool(n_s: int) -> list:
    lo, hi = PEAK_NW
    return [n_w for n_w in range(lo, hi + 1)
            if resonance.pp_feasible(n_s, n_w) != resonance.Feasibility.NONE]


def peak_inputs(seed: int, round_index: int) -> list:
    """The universal lengths n_w = 20l+1 (l = 1..5) for every n_s, then a
    seeded n_s = 2 pool member and its mirror image in the pool.

    The fixed part holds the acceptance chains and the `scaling` sweeps.
    Only n_s = 2 is seeded: an n_s = 4 call costs 0.6 to 2.2 s across the
    pool (window-ascent hops), so one seeded n_s = 4 chain moved the round
    time by 10% between seeds.  Mirroring cancels the eigensolve's growth
    with n_w.
    """
    rng = _rng("peak_sweep", seed, round_index)
    pool = _peak_pool(PEAK_SEEDED_NS)
    i = rng.randrange(len(pool))
    chains = [(n_s, 20 * l + 1) for n_s in PEAK_NS for l in range(1, 6)]
    chains += [(PEAK_SEEDED_NS, pool[i]), (PEAK_SEEDED_NS, pool[-1 - i])]
    return [ChainSpec(n_s=n_s, n_w=n_w, j0=PEAK_J0) for n_s, n_w in chains]


def peak_call(spec: ChainSpec) -> dict:
    report = amplitudes.find_transfer_peak(spec)
    return {
        "p_fermion": report.p_fermion,
        "p_boson": report.p_boson,
        "t_fermion": report.t_fermion,
        "t_boson": report.t_boson,
    }


def peak_check(spec: ChainSpec, out: dict) -> list:
    problems = []
    for key in ("p_fermion", "p_boson"):
        if not 0.0 <= out[key] <= 1.0:
            problems.append(f"{key}={out[key]!r} outside [0, 1]")
    if (spec.n_s, spec.n_w) in ACCEPTANCE and not out["p_fermion"] >= ACCEPTANCE_FLOOR:
        problems.append(f"p_fermion={out['p_fermion']!r} below the PP floor {ACCEPTANCE_FLOOR}")
    tau = perturbation.predict_transfer_time(spec)
    miss = min(abs(out["t_fermion"] - tau) / tau, abs(out["t_fermion"] - 2 * tau) / (2 * tau))
    if not miss <= PEAK_TIME_RTOL:
        problems.append(f"t_fermion={out['t_fermion']!r} is {miss:.3f} away from "
                        f"tau={tau!r} and 2*tau")
    return problems


def peak_tolerances(spec: ChainSpec, out: dict) -> dict:
    # Each of the n*n block entries sums N phases exp(-i w t); an eigenvalue
    # error of N*eps (Weyl, |H| <= 1) moves each by at most N*eps*t, and a
    # det or perm of a block of norm <= 1 moves by n times that per entry.
    t = max(out["t_fermion"], out["t_boson"], 1.0)
    p_tol = 4.0 * spec.n_s * spec.n_sites * t * EPS
    # near a maximum p(t) ~ p* - (J t)^2 / 2, so t moves by sqrt(2 dp) / J
    t_tol = math.sqrt(2.0 * p_tol) / spec.j
    return {"p_fermion": p_tol, "p_boson": p_tol, "t_fermion": t_tol, "t_boson": t_tol}


def _warm_core(spec: ChainSpec):
    """One tiny call into spectral, perturbation and the det/perm kernels."""
    dec = spectral.decompose_chain(spec)
    perturbation.find_clusters(dec, spec)
    evaluator = amplitudes.SubmatrixEvaluator(dec, spec.n_s)
    evaluator.p_fermion(1.0)
    evaluator.p_boson(1.0)
    return dec


def peak_warmup() -> None:
    spec = ChainSpec(n_s=2, n_w=5, j0=0.05)
    amplitudes.plan_scan_grid(spec, _warm_core(spec))


# ----------------------------------------------------------------- long_wire

def long_inputs(seed: int, round_index: int) -> list:
    rng = _rng("long_wire", seed, round_index)
    blocks = rng.sample(LONG_NS, len(LONG_NS))
    return [ChainSpec(n_s=n_s, n_w=n_w, j0=LONG_J0)
            for n_s, n_w in zip(blocks, _mirrored_lengths(rng, *LONG_NW))]


def long_call(spec: ChainSpec) -> dict:
    report = perturbation.perturbation_report(spec)
    return {
        "delta_star": report.delta_star,
        "deltas": [c.delta for c in report.clusters],
        "orders": [c.order for c in report.clusters],
        "predicted_tau": report.predicted_tau,
        "ratios": [r.value for r in report.ratios],
    }


def closed_form_delta(spec: ChainSpec, k: int) -> float:
    """Second-order half-splitting of sender mode k.

    J0^2 sin^3(theta) / ((n_s+1) |sin((n_w+1) theta)|), theta = k pi/(n_s+1):
    the effective sender-receiver coupling through the wire's end-to-end
    Green's function, derived independently of the eigensolver.
    """
    theta = k * math.pi / (spec.n_s + 1)
    return (spec.j0 ** 2 * math.sin(theta) ** 3
            / ((spec.n_s + 1) * abs(math.sin((spec.n_w + 1) * theta))))


def long_check(spec: ChainSpec, out: dict) -> list:
    problems = []
    resonant = {k for k, _ in resonance.resonant_pairs(spec.n_s, spec.n_w)}
    for k, delta in enumerate(out["deltas"], start=1):
        if k in resonant:
            continue
        expected = closed_form_delta(spec, k)
        if not abs(delta - expected) <= CLOSED_FORM_RTOL * expected:
            problems.append(f"cluster k={k}: delta={delta!r} vs closed form {expected!r}")
    return problems


def long_tolerances(spec: ChainSpec, out: dict) -> dict:
    # eigenvalues move by at most N*eps under an O(eps) relative matrix error
    level = spec.n_sites * EPS
    tau = out["predicted_tau"]
    # the ratios are taken at J0 = 1e-4, where second-order deltas are
    # 100 times smaller than the ones reported at 1e-3
    fine = min(out["deltas"]) * 1e-2
    return {
        "delta_star": level,
        "deltas": level,
        "orders": 0,
        "predicted_tau": None if tau is None else tau * level / out["delta_star"],
        "ratios": [2.0 * abs(r) * level / fine for r in out["ratios"]],
    }


def long_warmup() -> None:
    perturbation.perturbation_report(ChainSpec(n_s=2, n_w=10, j0=LONG_J0))


# -------------------------------------------------------------- battery_grid

def battery_inputs(seed: int, round_index: int) -> list:
    rng = _rng("battery_grid", seed, round_index)
    blocks = rng.sample(BATTERY_NB, len(BATTERY_NB))
    wires = _mirrored_lengths(rng, *BATTERY_NW)
    return [
        BatteryInput(
            spec=ChainSpec(n_s=n_b, n_w=n_w, j0=BATTERY_J0, h=BATTERY_H),
            t_max=rng.uniform(*BATTERY_TMAX),
            samples=BATTERY_SAMPLES,
        )
        for n_b, n_w in zip(blocks, wires)
    ]


def battery_call(inp: BatteryInput) -> dict:
    grid = np.linspace(0.0, inp.t_max, inp.samples)
    report = observables.battery_metrics(inp.spec, grid)
    return {
        "e_bar": report.e_bar,
        "tau_bar": report.tau_bar,
        "p_tilde": report.p_tilde,
        "tau_tilde": report.tau_tilde,
        "e_b_min": float(np.min(report.e_b)),
        "e_hop_max": float(np.max(np.abs(report.e_hop))),
        "delta_e_sw_max": float(np.max(np.abs(report.delta_e_sw))),
    }


def battery_check(inp: BatteryInput, out: dict) -> list:
    problems = []
    for key in ("e_hop_max", "delta_e_sw_max"):
        if not out[key] <= SYMMETRY_ZERO:
            problems.append(f"symmetry-protected {key}={out[key]!r} above {SYMMETRY_ZERO}")
    cap = inp.spec.n_r * inp.spec.h / 2.0
    slack = cap * 64 * EPS
    if not (-cap - slack <= out["e_b_min"] and out["e_bar"] <= cap + slack):
        problems.append(f"E_B range [{out['e_b_min']!r}, {out['e_bar']!r}] "
                        f"outside +-{cap!r}")
    return problems


def battery_tolerances(inp: BatteryInput, out: dict) -> dict:
    spec = inp.spec
    # the phase-error bound of peak_tolerances on each of the n*n entries of
    # the receiver block, whose squared norm times h is the on-site E_B
    e_tol = 2.0 * spec.n_s ** 2 * spec.n_sites * inp.t_max * EPS * spec.h
    step = inp.t_max / (inp.samples - 1)
    return {
        "e_bar": e_tol,
        "tau_bar": step,
        "p_tilde": e_tol / step,
        "tau_tilde": step,
        "e_b_min": e_tol,
        "e_hop_max": SYMMETRY_ZERO,
        "delta_e_sw_max": SYMMETRY_ZERO,
    }


def battery_warmup() -> None:
    observables.battery_metrics(
        ChainSpec(n_s=2, n_w=4, j0=BATTERY_J0, h=BATTERY_H), np.linspace(0.0, 10.0, 5))


# ---------------------------------------------------------------------- gate

def gate_inputs(seed: int, round_index: int) -> list:
    return list(GATE_COMMANDS)


def gate_call(argv: tuple) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    # keep the verdict and check name of each line; the deviations it
    # prints are covered by the library's own tolerances
    verdicts = [line.split(":")[0] for line in buffer.getvalue().splitlines()]
    return {"exit_code": code, "verdicts": verdicts}


def gate_check(argv: tuple, out: dict) -> list:
    if out["exit_code"] != cli.EXIT_OK:
        return [f"`ppxfer {' '.join(argv)}` exited {out['exit_code']}"]
    return []


def gate_tolerances(argv: tuple, out: dict) -> dict:
    return {"exit_code": 0, "verdicts": 0}


def gate_warmup() -> None:
    spec = ChainSpec(n_s=2, n_w=2, j0=0.1)
    observables.interaction_energy(spec, 1.0, _warm_core(spec))
    oracle.oracle_transfer_prob(spec, 1.0)
    cli.build_parser()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("peak_sweep",
                 "find_transfer_peak on n_w = 20l+1 (acceptance chains, scaling sweeps) plus "
                 "seeded PP-feasible chains; time goes to amplitudes: propagator slices, "
                 "det/perm, ascent",
                 peak_inputs, peak_call, peak_check, peak_tolerances, peak_warmup),
        Workload("long_wire",
                 "perturbation_report on chains with 300-450 wire sites; >99% of the "
                 "time is the eigensolve in spectral, amplitudes does nothing",
                 long_inputs, long_call, long_check, long_tolerances, long_warmup),
        Workload("battery_grid",
                 "battery_metrics on explicit 20k-point grids: full-width sender rows "
                 "three times per time point, no det/perm, one small eigensolve",
                 battery_inputs, battery_call, battery_check, battery_tolerances,
                 battery_warmup),
        Workload("gate",
                 "in-process `ppxfer validate` and `ppxfer oracle-check`: many tiny "
                 "chains and the only use of the Fock-space oracle",
                 gate_inputs, gate_call, gate_check, gate_tolerances, gate_warmup),
    )
}

# The workloads BENCHMARK.json lists.  long_wire runs by name only: a round
# is three 5-8 s eigensolves, too long for the calibration ticks between
# calls to follow the host's speed, and its spread over seeds stayed near
# 0.17 after calibration.
BENCHMARKED = ("peak_sweep", "battery_grid", "gate")


def compare(expected: dict, got: dict, tolerances: dict) -> list:
    """Differences between reference and fresh outputs beyond tolerance."""
    problems = []
    for key, want in expected.items():
        have, tol = got.get(key), tolerances.get(key)
        if isinstance(want, list):
            tols = tol if isinstance(tol, list) else [tol] * len(want)
            bad = (not isinstance(have, list) or len(have) != len(want)
                   or any(not _close(w, h, t) for w, h, t in zip(want, have, tols)))
        else:
            bad = not _close(want, have, tol)
        if bad:
            problems.append(f"{key}={have!r} differs from reference {want!r} (tol {tol!r})")
    return problems


def _close(want, have, tol) -> bool:
    if isinstance(want, (str, bool)) or want is None or have is None or not tol:
        return want == have
    return abs(have - want) <= tol
