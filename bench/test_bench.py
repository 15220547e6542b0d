"""Tests of the benchmark itself.

    python3 -m pytest bench

Traced runs of the same seeded inputs must give identical exact counts,
and tracing must not change any output.  The inputs are each workload's
own seeded draw, shrunk where a full call takes seconds.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import boot  # noqa: E402
import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ppxfer import amplitudes, spectral  # noqa: E402
from ppxfer.chain import ChainSpec  # noqa: E402

SEED = 7
EXACT = ("spectral.decompose_chain.calls", "spectral.decompose_chain.unique_frac",
         "amplitudes.plan_scan_grid.points", "amplitudes.scan_transfer.points",
         "amplitudes.polish_evals", "amplitudes.fermion_prob.calls",
         "amplitudes.boson_prob.calls", "amplitudes.SubmatrixEvaluator.submatrix.calls",
         "oracle.build_sector_hamiltonian.calls", "oracle.oracle_transfer_prob.calls")


def small_inputs(name):
    inputs = workloads.WORKLOADS[name].inputs(SEED, 0)
    if name == "peak_sweep":
        return inputs[-2:]                     # the seeded n_s = 2 pair
    if name == "long_wire":
        return [dataclasses.replace(spec, n_w=spec.n_w // 8) for spec in inputs]
    if name == "battery_grid":
        return [dataclasses.replace(inp, samples=400) for inp in inputs]
    return inputs


def traced_run(workload, inputs):
    ledger = run.Ledger()
    with tracer.Tracer() as spans:
        _, outputs = run.run_calls(workload, inputs, ledger, spans)
    assert ledger.failed == 0, ledger.messages
    return outputs, spans.stats()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_and_tracing_changes_no_output(name):
    workload = workloads.WORKLOADS[name]
    inputs = small_inputs(name)
    first_out, first = traced_run(workload, inputs)
    second_out, second = traced_run(workload, inputs)
    ledger = run.Ledger()
    _, plain_out = run.run_calls(workload, inputs, ledger)
    assert ledger.failed == 0, ledger.messages
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["spectral.decompose_chain.calls"] > 0
    assert first_out == second_out == plain_out


def test_peak_search_decomposes_each_chain_twice():
    _, stats = traced_run(workloads.WORKLOADS["peak_sweep"], small_inputs("peak_sweep"))
    assert stats["spectral.decompose_chain.unique_frac"] == 0.5
    assert 0 < stats["amplitudes.polish_evals"] < stats["amplitudes.fermion_prob.calls"] \
        + stats["amplitudes.boson_prob.calls"]


def test_tracer_patches_every_binding_and_restores_them():
    original = spectral.decompose_chain
    holders = [m for key, m in sys.modules.items()
               if key.startswith("ppxfer") and vars(m).get("decompose_chain") is original]
    assert len(holders) >= 5     # spectral, amplitudes, perturbation, observables, cli, ...
    with tracer.Tracer():
        assert all(m.decompose_chain is not original for m in holders)
        assert amplitudes.SubmatrixEvaluator.submatrix.__wrapped__ is not None
    assert all(m.decompose_chain is original for m in holders)
    assert not hasattr(amplitudes.SubmatrixEvaluator.submatrix, "__wrapped__")


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("spectral", "gone"),))
    with tracer.Tracer() as spans:
        pass
    assert spans.absent == ["spectral.gone"]
    assert not any(key.startswith("spectral.gone") for key in spans.stats())


def test_reference_compare_flags_only_differences_beyond_tolerance():
    spec = ChainSpec(n_s=2, n_w=41, j0=0.01)
    out = {"p_fermion": 0.99, "p_boson": 0.98, "t_fermion": 1e4, "t_boson": 1e4}
    tol = workloads.peak_tolerances(spec, out)
    near = dict(out, p_fermion=out["p_fermion"] + tol["p_fermion"] / 2)
    far = dict(out, p_fermion=out["p_fermion"] + 2 * tol["p_fermion"])
    assert workloads.compare(out, near, tol) == []
    assert len(workloads.compare(out, far, tol)) == 1
    verdicts = {"exit_code": 0, "verdicts": ["PASS  oracle equivalence"]}
    assert len(workloads.compare(verdicts, dict(verdicts, exit_code=1),
                                 workloads.gate_tolerances(("oracle-check",), verdicts))) == 1


def test_committed_reference_matches_the_library():
    reference = json.loads(run.REFERENCE.read_text())
    for name in ("gate", "peak_sweep"):
        workload = workloads.WORKLOADS[name]
        inputs = workload.inputs(run.DEFAULT_SEED, 0)[:2]
        ledger = run.Ledger()
        _, outputs = run.run_calls(workload, inputs, ledger)
        run.check_calls(workload, inputs, outputs, ledger, reference[name])
        assert ledger.failed == 0, ledger.messages


def test_host_clock_rescales_each_call_by_the_kernel_times_near_it():
    clock = calibrate.HostClock()
    clock.samples = [(0.0, 0.02), (1.0, 0.02), (100.0, 0.005), (101.0, 0.005)]
    assert clock.nominal(0.1, 0.8) == pytest.approx(0.8 * calibrate.NOMINAL_S / 0.02)
    assert clock.nominal(100.1, 0.8) == pytest.approx(0.8 * calibrate.NOMINAL_S / 0.005)


def test_run_calls_ticks_the_clock_around_every_call():
    workload = workloads.WORKLOADS["gate"]
    inputs = workload.inputs(SEED, 0)
    clock = calibrate.HostClock()
    ledger = run.Ledger()
    times, _ = run.run_calls(workload, inputs, ledger, clock=clock)
    assert [seconds for _, seconds in clock.calls] == times
    assert len(clock.samples) == (len(inputs) + 1) * calibrate.TICK_SAMPLES
    for start, seconds in clock.calls:
        assert any(mid < start for mid, _ in clock.samples)
        assert any(mid > start + seconds for mid, _ in clock.samples)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((boot.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workloads.WORKLOADS[name].why for name in workloads.BENCHMARKED}
    assert spec["run_seconds"] == run.parse_args(["--workload", "gate"]).seconds
