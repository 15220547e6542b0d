"""ppxfer benchmark: one closed-loop caller, one library call at a time.

    python3 bench/run.py --workload peak_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

With ``--trace 0`` a run measures the end-to-end metrics: it times set-up
in fresh processes, warms up, then runs rounds of fresh seeded inputs until
``--seconds`` would be exceeded.  Times are reported rescaled to a nominal
host by the calibration kernel of ``calibrate.py``, timed before every call;
the raw times are printed beside them.  With ``--trace 1`` it runs round 0 once
untraced and once under the span tracer and reports the per-layer metrics.
Every call's outputs are checked; the last stdout line is the JSON result
and the exit code is nonzero when any call failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import boot
import calibrate

try:
    boot.prepare()
except boot.MissingSource as exc:
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(2)

import tracer  # noqa: E402  (needs the checkout's src on sys.path)
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
OUT_DIR = boot.BENCH_DIR / "out"
REFERENCE = boot.BENCH_DIR / "reference.json"

# The median call time and the raw wall time are printed but not bounded:
# the calls of one round differ in cost by up to 10x (two gate subcommands,
# 17 peak searches), so their median jumps between cost clusters from run to
# run, and the raw times follow the host's speed drift.
END_TO_END = {
    "wall_cal_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "spectral.decompose_chain.calls": "count",
    "spectral.decompose_chain.s": "s",
    "spectral.decompose_chain.unique_frac": "ratio",
    "amplitudes.plan_scan_grid.s": "s",
    "amplitudes.plan_scan_grid.points": "count",
    "amplitudes.scan_transfer.s": "s",
    "amplitudes.scan_transfer.points": "count",
    "amplitudes.find_transfer_peak.self_s": "s",
    "amplitudes.polish_evals": "count",
    "amplitudes.SubmatrixEvaluator.submatrix.calls": "count",
    "amplitudes.SubmatrixEvaluator.submatrix.s": "s",
    "amplitudes.fermion_prob.calls": "count",
    "amplitudes.fermion_prob.s": "s",
    "amplitudes.boson_prob.calls": "count",
    "amplitudes.boson_prob.s": "s",
    "perturbation.find_clusters.calls": "count",
    "perturbation.find_clusters.s": "s",
    "perturbation.perturbation_report.self_s": "s",
    "observables.interaction_energy.calls": "count",
    "observables.interaction_energy.s": "s",
    "observables.switching_energy.calls": "count",
    "observables.switching_energy.s": "s",
    "observables.battery_metrics.self_s": "s",
    "oracle.oracle_transfer_prob.calls": "count",
    "oracle.oracle_transfer_prob.s": "s",
    "oracle.build_sector_hamiltonian.calls": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Ledger:
    """Attempted calls and failures by type; one bad call never stops a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.messages = []

    def fail(self, kind: str, where: str, detail: str) -> None:
        self.failures[kind] += 1
        if len(self.messages) < 20:
            self.messages.append(f"{kind} in {where}: {detail}")

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_calls(workload, inputs, ledger: Ledger, spans=None, clock=None):
    """Call the library once per input; returns (seconds, outputs) per call.

    With a HostClock, the calibration kernel is timed before every call and
    after the last, and each call's (start, seconds) is recorded on it.
    A call that raises leaves None in outputs.  The three domain errors
    (NumericalConsistencyError, ClusterAmbiguityError, NoTransferPredicted)
    are the expected ones; anything else is recorded the same way, with
    its traceback, because the run must keep going.
    """
    times, outputs = [], []
    for inp in inputs:
        if spans is not None:
            spans.call = ledger.attempted
        ledger.attempted += 1
        if clock is not None:
            clock.tick()
        start = time.perf_counter()
        try:
            out = workload.call(inp)
        except Exception as exc:
            out = None
            ledger.fail(type(exc).__name__, workloads.label(inp),
                        traceback.format_exc(limit=3).strip().splitlines()[-1])
        times.append(time.perf_counter() - start)
        outputs.append(out)
        if clock is not None:
            clock.calls.append((start, times[-1]))
    if clock is not None:
        clock.tick()
    return times, outputs


def check_calls(workload, inputs, outputs, ledger: Ledger, reference: dict) -> None:
    """Correctness checks, run outside the timed region and the tracer."""
    for inp, out in zip(inputs, outputs):
        if out is None:
            continue
        where = workloads.label(inp)
        try:
            problems = workload.check(inp, out)
            if where in reference:
                problems += workloads.compare(reference[where], out,
                                              workload.tolerances(inp, out))
        except Exception as exc:
            ledger.fail(type(exc).__name__, where, str(exc))
            continue
        if problems:
            ledger.fail("CheckFailed", where, "; ".join(problems))


def tail(values):
    """(percentile, value) of the highest percentile with 10 samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name: str, values) -> str:
    t = tail(values)
    extra = f"p{t[0]:.0f} {t[1]:.4f} s" if t else "no percentile with 10 samples beyond it"
    return (f"{name}: median {statistics.median(values):.4f} s over {len(values)} "
            f"samples; {extra}")


def probe_setup(workload_name: str, seed: int) -> tuple:
    """(set-up seconds, kernel seconds) of one fresh process, as it measured them."""
    done = subprocess.run(
        [sys.executable, str(boot.BENCH_DIR / "setup_probe.py"), workload_name, str(seed)],
        cwd=boot.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    setup, kernel = done.stdout.split()[-2:]
    return float(setup), float(kernel)


def measure(workload, seed: int, seconds: float, ledger: Ledger, reference: dict):
    """Run rounds until the next one would end after `seconds`.

    Returns the raw and the nominal wall time of each round, the clock, and
    one record per call.
    """
    clock = calibrate.HostClock()
    rounds, labels = [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        inputs = workload.inputs(seed, len(rounds))
        first = len(clock.calls)
        _, outputs = run_calls(workload, inputs, ledger, clock=clock)
        check_calls(workload, inputs, outputs, ledger, reference if not rounds else {})
        rounds.append(clock.calls[first:])
        labels.append([workloads.label(inp) for inp in inputs])
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            break
    raw = [sum(s for _, s in calls) for calls in rounds]
    nominal = [sum(clock.nominal(*call) for call in calls) for calls in rounds]
    records = [{"round": r, "call": name, "raw_s": call[1], "nominal_s": clock.nominal(*call)}
               for r, (calls, names) in enumerate(zip(rounds, labels))
               for call, name in zip(calls, names)]
    return raw, nominal, clock, records


def traced(workload, seed: int, ledger: Ledger, reference: dict):
    """Round 0 untraced, then traced; per-layer metrics and the spans."""
    inputs = workload.inputs(seed, 0)
    plain_times, plain_out = run_calls(workload, inputs, ledger)
    with tracer.Tracer() as spans:
        traced_times, traced_out = run_calls(workload, inputs, ledger, spans)
    check_calls(workload, inputs, plain_out, ledger, reference)
    for inp, a, b in zip(inputs, plain_out, traced_out):
        if a is not None and b is not None and a != b:
            ledger.fail("TraceMismatch", workloads.label(inp), "traced outputs differ")
    stats = spans.stats()
    stats["trace.wall_s"] = sum(traced_times)
    stats["trace.overhead_s"] = sum(traced_times) - sum(plain_times)
    return stats, spans


def machine_facts(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {name: os.environ.get(name) for name in boot.BLAS_ENV},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    head = boot.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = boot.ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (boot.ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    reference = {}
    if args.seed == DEFAULT_SEED and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(workload.name, {})
    ledger = Ledger()
    facts = machine_facts(args)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    lines = [f"workload {workload.name}: {workload.why}"]
    records, clock = [], None

    if args.trace:
        workload.warmup()
        stats, spans = traced(workload, args.seed, ledger, reference)
        spans.write_spans(OUT_DIR / f"{stem}-spans.csv")
        metrics = {name: {"value": stats[name], "unit": unit}
                   for name, unit in PER_LAYER.items() if name in stats}
        if spans.absent:
            lines.append("absent (function no longer in the library): "
                         + ", ".join(spans.absent))
    else:
        probes = [probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES)]
        setups = [setup * calibrate.NOMINAL_S / kernel for setup, kernel in probes]
        workload.warmup()
        round_walls, nominal_walls, clock, records = measure(
            workload, args.seed, args.seconds, ledger, reference)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "wall_cal_s": statistics.median(nominal_walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        kernel_s = statistics.median(s for _, s in clock.samples)
        lines += [describe("wall_cal_s (one round of calls, nominal host)", nominal_walls),
                  describe("wall_s (one round of calls, raw; printed, not bounded)",
                           round_walls),
                  describe("call_p50_s (one call, raw; printed, not bounded)",
                           [s for _, s in clock.calls]),
                  f"calibration kernel: median {kernel_s * 1e3:.2f} ms over "
                  f"{len(clock.samples)} samples (nominal {calibrate.NOMINAL_S * 1e3:.0f} ms)",
                  f"setup_s: median {values['setup_s']:.4f} s (nominal host) over "
                  f"{len(setups)} fresh processes; raw median "
                  f"{statistics.median(s for s, _ in probes):.4f} s",
                  f"peak_rss_mb: {peak_rss_mb:.1f} MB"]

    lines.append(f"fail_frac: {ledger.failed / ledger.attempted:.4f} "
                 f"({ledger.failed} of {ledger.attempted} calls; "
                 f"{dict(ledger.failures) or 'no failures'})")
    lines += ledger.messages
    for name, metric in metrics.items():
        lines.append(f"  {name} = {metric['value']!r} {metric['unit']}")
    lines.append("machine: " + json.dumps(facts, sort_keys=True))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"result": result, "machine": facts, "failures": ledger.messages, "calls": records,
         "kernel": clock.samples if not args.trace else []},
        indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so each gets its own set-up and RSS."""
    worst = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=boot.ROOT)
        worst = max(worst, done.returncode)
    return worst


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="peak_sweep, long_wire, battery_grid, gate, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
