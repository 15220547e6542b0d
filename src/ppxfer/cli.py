"""Command-line front end.

Subcommands cover spectra, transfer curves, resonance tables, perturbative
reports, battery metrics, wire-length sweeps, the oracle equivalence suite,
and the full validation gate.  Output conventions:

* CSV files open with a ``# config: {...}`` comment naming the exact run
  configuration, so every file is self-describing and reruns are
  byte-identical.
* Floats are printed with ``%.17g`` (round-trip exact).
* With ``-o out.csv`` a JSON summary lands in ``out.json``; on stdout the
  summary trails the data as one ``# summary: {...}`` line.
* Exit codes: 0 success, 1 validation failure, 2 bad configuration,
  3 numerical-consistency error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .amplitudes import (
    NumericalConsistencyError,
    find_transfer_peak,
    plan_scan_grid,
    propagator_block,
    scan_max_probability,
    scan_scales,
    scan_transfer,
)
from .chain import ChainSpec, CouplingProfile, build_profile
from .observables import (
    battery_metrics,
    interaction_energy,
    magnetization_receiver,
    occupation,
    switching_energy,
)
from .oracle import oracle_occupation, oracle_transfer_prob
from .perturbation import (
    ClusterAmbiguityError,
    NoTransferPredicted,
    _top_ratio,
    perturbation_report,
    predict_transfer_time,
)
from .resonance import resonance_report, resonant_pairs
from .spectral import decompose_chain, diagonalize

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

ORACLE_CASES = ((6, 2), (7, 2), (8, 3))   # (sites, excitations)
ORACLE_COUPLINGS = (1.0, 0.1)
ORACLE_TIMES = 5
ORACLE_HORIZON = 50.0
ORACLE_TOL = 1e-10


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _spec_from_args(args) -> tuple[ChainSpec, str]:
    """Merge --config file with flag overrides; returns (spec, statistics).

    The statistics string may be "both", which is a front-end choice and
    never lands in the ChainSpec itself.
    """
    data = {}
    if getattr(args, "config", None):
        data = json.loads(Path(args.config).read_text())
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
    overrides = {
        "n_s": getattr(args, "ns", None),
        "n_w": getattr(args, "nw", None),
        "j0": getattr(args, "j0", None),
        "h": getattr(args, "h", None),
        "statistics": getattr(args, "stats", None),
    }
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    data.setdefault("j0", 0.01)
    if args.command == "battery":
        data.setdefault("h", 2.0)
    stats = str(data.get("statistics", "both" if hasattr(args, "stats") else "fermion"))
    data["statistics"] = "fermion" if stats == "both" else stats
    spec = ChainSpec.from_json(json.dumps(data))
    return spec, stats


def _emit(args, spec: ChainSpec, columns, rows, summary: dict | None) -> None:
    """Write the CSV (file or stdout) and its JSON summary sidecar."""
    lines = ["# config: " + spec.to_json(), ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    out = getattr(args, "output", None)
    if out is None:
        sys.stdout.write(text)
        if summary is not None:
            sys.stdout.write("# summary: " + json.dumps(summary, sort_keys=True) + "\n")
    else:
        path = Path(out)
        sidecar = path.with_suffix(".json")
        if summary is not None and sidecar == path:
            raise ValueError(f"output {path} is its own JSON summary path; "
                             "give the CSV another suffix")
        path.write_text(text)
        if summary is not None:
            sidecar.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _uniform_grid(t_max: float, samples: int) -> np.ndarray:
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"tmax must be positive and finite, got {t_max}")
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    return np.linspace(0.0, t_max, samples)


def cmd_spectrum(args) -> int:
    spec, _ = _spec_from_args(args)
    dec = decompose_chain(spec)
    rows = [
        (k + 1, dec.eigenvalues[k], dec.parities[k])
        for k in range(dec.n)
    ]
    _emit(args, spec, ("k", "omega", "parity"), rows, None)
    return EXIT_OK


def cmd_transfer(args) -> int:
    spec, stats = _spec_from_args(args)
    grid = None if args.tmax is None else _uniform_grid(args.tmax, args.samples)
    # the peak path keeps the QL's bits (see `decompose_chain`)
    dec = decompose_chain(spec, _ql=True)

    summary: dict = {"config": json.loads(spec.to_json())}
    try:
        tau = predict_transfer_time(spec, dec)
    except NoTransferPredicted:
        tau = None
    if tau is not None:
        peak = find_transfer_peak(spec, dec=dec)
        summary.update(
            pp=True,
            predicted_tau=tau,
            peak_time_fermion=peak.t_fermion,
            peak_fermion=peak.p_fermion,
            peak_time_boson=peak.t_boson,
            peak_boson=peak.p_boson,
        )
    else:
        tau_ref = math.pi / (2.0 * scan_scales(spec, dec)[0])
        t_best, p_best, _ = scan_max_probability(spec, dec)
        summary.update(
            pp=False,
            note="no PP",
            predicted_tau=None,
            tau_ref=tau_ref,
            peak_time_fermion=t_best,
            peak_fermion=p_best,
        )
    # without --tmax a PP run's curve is the planned-grid scan of its peak search
    if grid is None and tau is None:
        grid, _ = plan_scan_grid(spec, dec)
    curve = peak.curve if grid is None else scan_transfer(spec, grid, dec)

    if stats == "fermion":
        columns = ("t", "p_fermion")
        rows = zip(curve.times, curve.p_fermion)
    elif stats == "boson":
        columns = ("t", "p_boson")
        rows = zip(curve.times, curve.p_boson)
    else:
        columns = ("t", "p_fermion", "p_boson")
        rows = zip(curve.times, curve.p_fermion, curve.p_boson)
    _emit(args, spec, columns, rows, summary)
    return EXIT_OK


def cmd_resonance(args) -> int:
    nw_min = args.nw if args.nw_min is None else args.nw_min
    nw_max = args.nw if args.nw_max is None else args.nw_max
    if nw_min is None or nw_max is None:
        raise ValueError("give --nw, or both --nw-min and --nw-max")
    if nw_min > nw_max:
        raise ValueError(f"empty wire-length range {nw_min}..{nw_max}")
    reports = [resonance_report(args.ns, n_w) for n_w in range(nw_min, nw_max + 1)]
    if args.format == "json":
        payload = [{**asdict(r), "feasibility": r.feasibility.value} for r in reports]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{'n_w':>5} {'residue':>7} {'n_res':>5} {'feasibility':<12} pairs")
        for r in reports:
            pairs = " ".join(f"(k={k},q={q})" for k, q in r.pairs) or "-"
            print(f"{r.n_w:>5} {r.residue:>7} {r.n_res:>5} {r.feasibility.value:<12} {pairs}")
    return EXIT_OK


def cmd_perturbation(args) -> int:
    spec, _ = _spec_from_args(args)
    report = perturbation_report(spec)
    payload = {
        "config": json.loads(spec.to_json()),
        **asdict(report),
        "feasibility": report.feasibility.value,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "output", None):
        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_battery(args) -> int:
    spec, _ = _spec_from_args(args)
    grid = None
    if args.tmax is not None:
        grid = _uniform_grid(args.tmax, args.samples)
    report = battery_metrics(spec, grid)
    summary = {
        "config": json.loads(spec.to_json()),
        "E_bar": report.e_bar,
        "tau_bar": report.tau_bar,
        "P_tilde": report.p_tilde,
        "tau_tilde": report.tau_tilde,
        "P_bar": report.p_bar,
        "delta_E_sw_max": float(np.max(np.abs(report.delta_e_sw))),
    }
    rows = zip(report.times, report.e_b, report.e_onsite, report.e_hop, report.p_s)
    _emit(args, spec, ("t", "E_B", "E_onsite", "E_hop", "P_s"), rows, summary)
    return EXIT_OK


def cmd_scaling(args) -> int:
    if args.lmin < 1 or args.lmax <= args.lmin:
        raise ValueError("need 1 <= lmin < lmax: the exponent fit takes two or more lengths")
    base = ChainSpec(n_s=args.ns, n_w=20 * args.lmin + args.branch, j0=args.j0)
    lengths = [20 * l + args.branch for l in range(args.lmin, args.lmax + 1)]

    rows = []
    for n_w in lengths:
        spec = replace(base, n_w=n_w)
        dec = decompose_chain(spec, _ql=True)
        tau_pred = predict_transfer_time(spec, dec)
        peak = find_transfer_peak(spec, dec=dec)
        rows.append((n_w, peak.t_fermion, tau_pred))

    log_nw = np.log([r[0] for r in rows])
    exponent_exact = float(np.polyfit(log_nw, np.log([r[1] for r in rows]), 1)[0])
    exponent_pred = float(np.polyfit(log_nw, np.log([r[2] for r in rows]), 1)[0])
    summary = {
        "config": json.loads(base.to_json()),
        "branch": args.branch,
        "exponent_exact": exponent_exact,
        "exponent_predicted": exponent_pred,
    }
    _emit(args, base, ("n_w", "tau_exact", "tau_predicted"), rows, summary)
    return EXIT_OK


def _oracle_suite(decompose) -> float:
    """Worst |det/perm probability - Fock probability| over the small grid;
    `decompose` maps a ChainSpec to its SpectralDecomposition."""
    times = np.linspace(0.0, ORACLE_HORIZON, ORACLE_TIMES)
    worst = 0.0
    with warnings.catch_warnings():
        # the J0 = 1.0 cases lie outside the weak-coupling regime on purpose
        warnings.filterwarnings("ignore", r"j0=\S+ is outside the weak-coupling regime",
                                UserWarning)
        for n_sites, n in ORACLE_CASES:
            for j0 in ORACLE_COUPLINGS:
                spec = ChainSpec(n_s=n, n_w=n_sites - 2 * n, j0=j0)
                curve = scan_transfer(spec, times, decompose(spec))
                for statistics, p_amp in (("fermion", curve.p_fermion), ("boson", curve.p_boson)):
                    p_fock = oracle_transfer_prob(replace(spec, statistics=statistics), times)
                    worst = max(worst, float(np.max(np.abs(p_amp - p_fock))))
    return worst


def cmd_oracle_check(args) -> int:
    worst = _oracle_suite(decompose_chain)
    ok = worst < ORACLE_TOL
    print(f"{'PASS' if ok else 'FAIL'}  oracle equivalence: max deviation {worst:.3e}"
          f" (tolerance {ORACLE_TOL:g})")
    return EXIT_OK if ok else EXIT_FAIL


def _check_structure() -> tuple[bool, str]:
    worst_u = worst_s = worst_c = 0.0
    cases = [
        ChainSpec(n_s=1, n_w=4, j0=0.05),
        ChainSpec(n_s=2, n_w=5, j0=0.08, h=0.3),
        ChainSpec(n_s=3, n_w=7, j0=0.02),
    ]
    for spec in cases:
        dec = decompose_chain(spec)
        sites = np.arange(dec.n)
        eye = np.eye(dec.n)
        for f in propagator_block(dec, sites, sites, [0.9, 7.7, 31.0]):
            worst_u = max(worst_u, float(np.max(np.abs(f @ f.conj().T - eye))))
            worst_s = max(worst_s, float(np.max(np.abs(f - f.T))))
            worst_c = max(worst_c, float(np.max(np.abs(f - f[::-1, ::-1]))))
    ok = worst_u < 1e-10 and worst_s <= 1e-12 and worst_c <= 1e-12
    return ok, (f"unitarity {worst_u:.2e}, symmetry {worst_s:.2e}, "
                f"centrosymmetry {worst_c:.2e}")


def _check_parity_reality() -> tuple[bool, str]:
    spec = ChainSpec(n_s=2, n_w=5, j0=0.08)
    dec = decompose_chain(spec)
    sites = np.arange(dec.n)
    # entries with even index sum are real, odd ones imaginary
    even = np.add.outer(sites, sites) % 2 == 0
    worst = 0.0
    for f in propagator_block(dec, sites, sites, [0.9, 7.7, 31.0]):
        worst = max(worst, float(np.max(np.where(even, np.abs(f.imag), np.abs(f.real)))))
    return worst < 1e-10, f"max off-pattern part {worst:.2e} at h=0"


def _check_table() -> tuple[bool, str]:
    expected = {1: (0, 1), 2: (0, 0, 2), 3: (0, 1, 0, 3), 4: (0, 0, 0, 0, 4)}
    for n_s, row in expected.items():
        for p, count in enumerate(row):
            for l in range(6):
                n_w = (n_s + 1) * l + p
                if n_w < 1:
                    continue
                if len(resonant_pairs(n_s, n_w)) != count:
                    return False, f"n_s={n_s}, n_w={n_w}: expected {count} resonances"
    return True, "resonance counts match for n_s=1..4 over six congruence periods"


def _check_ratios() -> tuple[bool, str]:
    windows = [
        (ChainSpec(n_s=3, n_w=43, j0=1e-3), 0.50),
        (ChainSpec(n_s=4, n_w=41, j0=1e-3), 0.14),
        (ChainSpec(n_s=4, n_w=43, j0=1e-3), 0.38),
    ]
    values = []
    for spec, target in windows:
        value = _top_ratio(spec)
        values.append(f"{value:.4f}")
        if abs(value - target) > 0.02:
            return False, f"n_s={spec.n_s}, n_w={spec.n_w}: ratio {value:.4f} vs {target}"
    return True, "splitting ratios " + ", ".join(values)


def _check_energies(asymmetry: float) -> tuple[bool, str]:
    spec = ChainSpec(n_s=2, n_w=5, j0=0.05, h=0.3)
    profile = build_profile(spec)
    if asymmetry:
        # an on-site defect, not a bond defect: the zeros survive any change
        # of hopping amplitudes (the chain stays bipartite), so only a
        # sublattice-breaking perturbation can expose them
        onsite = profile.onsite.copy()
        onsite[-1] += asymmetry
        profile = CouplingProfile(hop=profile.hop, onsite=onsite)
    dec = diagonalize(profile)
    times = np.array([0.7, 3.1, 12.9, 44.2])
    worst = float(max(np.max(np.abs(interaction_energy(spec, times, dec))),
                      np.max(np.abs(switching_energy(spec, times, dec)))))
    label = f"max |E_I|, |dE_sw| = {worst:.2e}"
    if asymmetry:
        label += f" (asymmetry {asymmetry:g})"
    return worst < 1e-10, label


def _check_statistics_independence(decompose) -> tuple[bool, str]:
    spec = ChainSpec(n_s=2, n_w=2, j0=0.1)
    dec = decompose(spec)
    sites = np.arange(1, spec.n_sites + 1)
    amps = np.array([occupation(spec, 2.0, site, dec) for site in sites])
    worst = 0.0
    for statistics in ("fermion", "boson"):
        fock = oracle_occupation(replace(spec, statistics=statistics), 2.0, sites)
        worst = max(worst, float(np.max(np.abs(amps - fock))))
    return worst < 1e-10, f"occupation vs both oracles, max deviation {worst:.2e}"


def _check_magnetization_identity() -> tuple[bool, str]:
    spec = ChainSpec(n_s=3, n_w=7, j0=0.05)
    dec = decompose_chain(spec)
    times = np.array([0.6, 5.3, 17.0])
    mag = magnetization_receiver(spec, times, dec)
    total = sum(occupation(spec, times, j, dec) for j in spec.receiver_sites())
    worst = float(np.max(np.abs(mag + spec.n_r / 2.0 - total)))
    return worst <= 1e-12, f"Frobenius identity deviation {worst:.2e}"


def _check_oracle(decompose) -> tuple[bool, str]:
    worst = _oracle_suite(decompose)
    return worst < ORACLE_TOL, f"max deviation {worst:.3e}"


def cmd_validate(args) -> int:
    # the oracle suite and the statistics check share the (2,2) J0 = 0.1
    # chain; one decomposition per distinct chain serves both
    decompose = functools.cache(decompose_chain)
    checks = [
        ("propagator structure", _check_structure),
        ("parity reality", _check_parity_reality),
        ("oracle equivalence", lambda: _check_oracle(decompose)),
        ("resonance table", _check_table),
        ("splitting ratios", _check_ratios),
        ("zero energies", lambda: _check_energies(args.asymmetry)),
        ("statistics independence", lambda: _check_statistics_independence(decompose)),
        ("magnetization identity", _check_magnetization_identity),
    ]
    failures = 0
    for name, run in checks:
        ok, detail = run()
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_FAIL
    print("all checks passed")
    return EXIT_OK


def _add_spec_flags(p, ns_flag="--ns"):
    p.add_argument("--config", default=None,
                   help="JSON file with n_s, n_w, j0, h, statistics")
    p.add_argument(ns_flag, dest="ns", type=int, default=None,
                   help="block size (excitation number)")
    p.add_argument("--nw", type=int, default=None, help="wire length")
    p.add_argument("--j0", type=float, default=None,
                   help="block-wire coupling (default 0.01)")
    p.add_argument("--h", type=float, default=None,
                   help="uniform on-site energy (default 0; battery 2.0)")


def _add_output_flag(p):
    p.add_argument("-o", "--output", default=None,
                   help="CSV path (JSON summary lands next to it); stdout if omitted")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppxfer",
        description="Perturbatively-perfect excitation transfer on 1D hopping chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="single-particle eigenvalues and parities")
    _add_spec_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("transfer", help="transfer probability curve and peak")
    _add_spec_flags(p)
    p.add_argument("--tmax", type=float, default=None,
                   help="uniform grid horizon (default: planned two-tier grid)")
    p.add_argument("--samples", type=int, default=2000,
                   help="uniform grid size when --tmax is given")
    p.add_argument("--stats", choices=("fermion", "boson", "both"), default=None,
                   help="which probability columns to write (default both)")
    _add_output_flag(p)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("resonance", help="resonance counts and PP feasibility by wire length")
    p.add_argument("--ns", type=int, required=True)
    p.add_argument("--nw", type=int, default=None)
    p.add_argument("--nw-min", type=int, default=None)
    p.add_argument("--nw-max", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_resonance)

    p = sub.add_parser("perturbation", help="cluster splittings, rule of thumb, predicted time")
    _add_spec_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_perturbation)

    p = sub.add_parser("battery", help="charging energetics of the receiver block")
    _add_spec_flags(p, ns_flag="--nb")
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--samples", type=int, default=2000)
    _add_output_flag(p)
    p.set_defaults(func=cmd_battery)

    p = sub.add_parser("scaling", help="transfer time vs wire length, log-log exponent")
    p.add_argument("--ns", type=int, required=True)
    p.add_argument("--j0", type=float, default=0.01)
    p.add_argument("--lmin", type=int, default=1)
    p.add_argument("--lmax", type=int, default=5)
    p.add_argument("--branch", type=int, choices=(1, 17), default=1,
                   help="wire-length family n_w = 20*l + branch")
    _add_output_flag(p)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("oracle-check", help="det/perm vs Fock-space equivalence suite")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("validate", help="full invariant suite; nonzero exit on failure")
    p.add_argument("--asymmetry", type=float, default=0.0,
                   help="break mirror symmetry by this amount (diagnostic)")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, OSError, NoTransferPredicted, ClusterAmbiguityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
