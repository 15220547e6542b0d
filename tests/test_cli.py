"""Tests for the command-line interface: formats, exit codes, determinism."""

import functools
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ppxfer import ChainSpec, amplitudes, cli, observables, oracle, perturbation, spectral
from ppxfer.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_NUMERIC, EXIT_OK, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_writes_config_header_and_rows(capsys):
    code, out, _ = run_cli(capsys, ["spectrum", "--ns", "1", "--nw", "2", "--j0", "0.1"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    assert config == {
        "h": 0.0,
        "j0": 0.1,
        "n_s": 1,
        "n_w": 2,
        "statistics": "fermion",
    }
    assert lines[1] == "k,omega,parity"
    assert len(lines) == 2 + 4  # header lines plus one row per site


def test_transfer_stdout_has_summary_line(capsys):
    code, out, _ = run_cli(
        capsys,
        ["transfer", "--ns", "1", "--nw", "5", "--j0", "0.1"],
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[1] == "t,p_fermion,p_boson"
    summary_lines = [l for l in lines if l.startswith("# summary: ")]
    assert len(summary_lines) == 1
    summary = json.loads(summary_lines[0][len("# summary: "):])
    assert summary["pp"] is True
    assert summary["predicted_tau"] > 0
    assert summary["peak_fermion"] >= 0.99
    assert summary["peak_boson"] >= 0.99


def test_transfer_uniform_grid_row_count_and_column_choice(capsys):
    code, out, _ = run_cli(
        capsys,
        ["transfer", "--ns", "1", "--nw", "4", "--j0", "0.1",
         "--tmax", "20", "--samples", "50", "--stats", "fermion"],
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[1] == "t,p_fermion"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 50
    first = data[0].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) < 1e-30


def test_transfer_reports_infeasible_class(capsys):
    code, out, _ = run_cli(
        capsys,
        ["transfer", "--ns", "3", "--nw", "3", "--j0", "0.05",
         "--tmax", "10", "--samples", "20"],
    )
    assert code == EXIT_OK
    summary_line = [l for l in out.strip().split("\n") if l.startswith("# summary: ")][0]
    summary = json.loads(summary_line[len("# summary: "):])
    assert summary["pp"] is False
    assert summary["note"] == "no PP"
    assert summary["predicted_tau"] is None
    assert summary["tau_ref"] > 0
    assert 0.0 <= summary["peak_fermion"] <= 1.0


def test_transfer_file_output_with_json_sidecar(tmp_path, capsys):
    out_csv = tmp_path / "curve.csv"
    code, out, _ = run_cli(
        capsys,
        ["transfer", "--ns", "1", "--nw", "5", "--j0", "0.1",
         "--tmax", "30", "--samples", "40", "-o", str(out_csv)],
    )
    assert code == EXIT_OK
    assert out == ""
    text = out_csv.read_text()
    assert text.startswith("# config: ")
    sidecar = tmp_path / "curve.json"
    summary = json.loads(sidecar.read_text())
    assert summary["pp"] is True
    assert summary["config"]["n_w"] == 5


def test_output_that_is_its_own_summary_path_is_refused(tmp_path, capsys):
    # battery's JSON summary goes to the output path with suffix .json
    path = tmp_path / "run.json"
    code, _, err = run_cli(capsys, ["battery", "--nb", "2", "--nw", "4", "--tmax", "10",
                                    "--samples", "3", "-o", str(path)])
    assert code == EXIT_CONFIG
    assert "summary" in err
    assert not path.exists()


def test_output_with_a_json_suffix_holds_the_csv_when_no_summary_is_due(tmp_path, capsys):
    path = tmp_path / "x.json"
    code, out, _ = run_cli(capsys, ["spectrum", "--ns", "1", "--nw", "2", "--j0", "0.1",
                                    "-o", str(path)])
    assert code == EXIT_OK
    assert out == ""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "k,omega,parity"


def test_output_is_deterministic_across_runs(tmp_path, capsys):
    argv = ["battery", "--nb", "1", "--nw", "4", "--j0", "0.1",
            "--tmax", "10", "--samples", "25"]
    texts = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _, _ = run_cli(capsys, argv + ["-o", str(path)])
        assert code == EXIT_OK
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]


def test_battery_columns_and_summary_keys(capsys):
    code, out, _ = run_cli(
        capsys,
        ["battery", "--nb", "1", "--nw", "4", "--j0", "0.1",
         "--tmax", "10", "--samples", "20"],
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[1] == "t,E_B,E_onsite,E_hop,P_s"
    summary = json.loads(lines[-1][len("# summary: "):])
    assert set(summary) == {
        "config", "E_bar", "tau_bar", "P_tilde", "tau_tilde", "P_bar",
        "delta_E_sw_max",
    }
    assert summary["config"]["h"] == 2.0  # battery default field
    assert summary["delta_E_sw_max"] < 1e-10


def test_resonance_text_table(capsys):
    code, out, _ = run_cli(capsys, ["resonance", "--ns", "3", "--nw", "41"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert "feasibility" in lines[0]
    assert "PP" in lines[1]
    assert "(k=2,q=21)" in lines[1]


def test_resonance_empty_range_is_a_config_error(capsys):
    code, out, err = run_cli(capsys, ["resonance", "--ns", "3", "--nw-min", "44", "--nw-max", "40"])
    assert code == EXIT_CONFIG
    assert out == ""
    assert "empty wire-length range" in err


def test_resonance_json_range(capsys):
    code, out, _ = run_cli(
        capsys,
        ["resonance", "--ns", "3", "--nw-min", "40", "--nw-max", "43",
         "--format", "json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert all(set(entry) == {"n_s", "n_w", "residue", "pairs", "n_res", "feasibility"}
               for entry in payload)
    assert [entry["n_w"] for entry in payload] == [40, 41, 42, 43]
    assert [entry["n_res"] for entry in payload] == [0, 1, 0, 3]
    assert payload[1]["feasibility"] == "PP"
    assert payload[3]["pairs"] == [[1, 11], [2, 22], [3, 33]]


def test_resonance_requires_a_wire_length(capsys):
    code, _, err = run_cli(capsys, ["resonance", "--ns", "3"])
    assert code == EXIT_CONFIG
    assert "error" in err


def test_perturbation_json_payload(capsys):
    code, out, _ = run_cli(capsys, ["perturbation", "--ns", "3", "--nw", "41"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == {"config", "clusters", "delta_star", "rule_of_thumb_holds",
                            "slow_modes", "predicted_tau", "tau_alt", "feasibility",
                            "ratios"}
    assert all(set(c) == {"sender_mode", "unperturbed_energy", "members", "multiplicity",
                          "delta", "order"} for c in payload["clusters"])
    assert all(set(r) == {"name", "value", "value_coarse", "error"}
               for r in payload["ratios"])
    assert len(payload["clusters"]) == 3
    assert payload["feasibility"] == "PP"
    assert payload["rule_of_thumb_holds"] is True
    assert payload["delta_star"] > 0
    assert payload["predicted_tau"] == pytest.approx(
        payload["tau_alt"] / 2.0, rel=1e-12
    )
    multiplicities = sorted(c["multiplicity"] for c in payload["clusters"])
    assert multiplicities == [2, 2, 3]


def test_scaling_small_family(capsys):
    code, out, _ = run_cli(
        capsys,
        ["scaling", "--ns", "1", "--j0", "0.01", "--lmin", "1", "--lmax", "2"],
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[1] == "n_w,tau_exact,tau_predicted"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert [int(float(row.split(",")[0])) for row in data] == [21, 41]
    summary = json.loads(lines[-1][len("# summary: "):])
    assert summary["branch"] == 1
    assert summary["exponent_exact"] > 0
    assert summary["exponent_predicted"] > 0


@pytest.mark.parametrize("lmax", ["1", "0"])
def test_scaling_needs_two_lengths(capsys, lmax):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["scaling", "--ns", "1", "--lmin", "1", "--lmax", lmax])
    assert code == EXIT_CONFIG
    assert out == ""
    assert "two or more lengths" in err


@pytest.mark.parametrize("n_s, n_w", [(5, 41), (6, 21)])
def test_scaling_without_a_transfer_prediction_is_a_config_error(capsys, n_s, n_w):
    # the family's first length has no PP prediction, so there is no tau to fit
    code, out, err = run_cli(capsys, ["scaling", "--ns", str(n_s), "--lmax", "2"])
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith(f"error: no PP transfer predicted for n_s={n_s}, n_w={n_w} ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["transfer", "perturbation"])
def test_overlapping_clusters_are_a_config_error(capsys, command):
    with pytest.warns(UserWarning, match="j0=1.5 is outside"):
        code, out, err = run_cli(capsys, [command, "--ns", "2", "--nw", "1", "--j0", "1.5"])
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error: level ")
    assert err.count("\n") == 1


def count_calls(monkeypatch, owner, name, binders):
    """Record the first argument of every call to owner.name, through every
    ppxfer module that binds it; binders must be among those modules."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    holders = [m for key, m in list(sys.modules.items())
               if key.startswith("ppxfer") and vars(m).get(name) is original]
    assert set(binders) <= set(holders)
    for module in holders:
        monkeypatch.setattr(module, name, counted)
    return calls


def count_decompositions(monkeypatch):
    """Record the spec of every decompose_chain call."""
    return count_calls(monkeypatch, spectral, "decompose_chain",
                       {amplitudes, cli, observables, perturbation})


@pytest.mark.parametrize("argv, chains, summary_pp", [
    (["transfer", "--ns", "2", "--nw", "5", "--j0", "0.05"], [(2, 5)], True),
    (["transfer", "--ns", "3", "--nw", "6", "--j0", "0.05"], [(3, 6)], False),
    (["scaling", "--ns", "1", "--lmin", "1", "--lmax", "2"], [(1, 21), (1, 41)], None),
])
def test_each_chain_is_decomposed_once(monkeypatch, capsys, argv, chains, summary_pp):
    calls = count_decompositions(monkeypatch)
    code, out, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    assert [(spec.n_s, spec.n_w) for spec in calls] == chains
    if summary_pp is not None:
        summary = json.loads(out.strip().split("\n")[-1][len("# summary: "):])
        assert summary["pp"] is summary_pp


def test_validate_decomposes_each_distinct_chain_once(monkeypatch, capsys):
    calls = count_decompositions(monkeypatch)
    code, _, _ = run_cli(capsys, ["validate"])
    assert code == EXIT_OK
    # the ratio check decomposes only the coupling it reports
    assert len(calls) == len(set(calls)) == 14


def test_transfer_plans_and_scans_its_grid_once(monkeypatch, capsys):
    planned = count_calls(monkeypatch, amplitudes, "plan_scan_grid",
                          {amplitudes, cli, observables})
    scanned = count_calls(monkeypatch, amplitudes, "scan_transfer", {amplitudes, cli})
    code, out, _ = run_cli(capsys, ["transfer", "--ns", "2", "--nw", "41"])
    assert code == EXIT_OK
    assert json.loads(out.strip().split("\n")[-1][len("# summary: "):])["pp"] is True
    assert len(planned) == len(scanned) == 1


def test_perturbation_report_finds_each_chains_clusters_once(monkeypatch):
    # the chain itself, then the two couplings of the ratio extrapolation
    calls = count_calls(monkeypatch, perturbation, "find_clusters", {perturbation})
    perturbation.perturbation_report(ChainSpec(n_s=3, n_w=41, j0=0.01))
    assert len(calls) == 3


@pytest.mark.parametrize("argv, searches, pp", [
    # the prediction, then the grid plan
    (["transfer", "--ns", "2", "--nw", "41"], 2, True),
    # the prediction, tau_ref, the non-PP scan horizon, then the grid plan
    (["transfer", "--ns", "3", "--nw", "40"], 4, False),
])
def test_transfer_cluster_searches(monkeypatch, capsys, argv, searches, pp):
    calls = count_calls(monkeypatch, perturbation, "find_clusters", {perturbation})
    code, out, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    assert json.loads(out.strip().split("\n")[-1][len("# summary: "):])["pp"] is pp
    assert len(calls) == searches


@pytest.mark.parametrize("command, builds", [("oracle-check", 12), ("validate", 14)])
def test_gate_builds_each_oracle_sector_once_per_use(monkeypatch, capsys, command, builds):
    # 12 sectors in the oracle suite; validate adds one occupation sector per statistics
    calls = count_calls(monkeypatch, oracle, "build_sector_hamiltonian", {oracle})
    code, _, _ = run_cli(capsys, [command])
    assert code == EXIT_OK
    assert len(calls) == builds


def test_gate_builds_each_oracle_sector_structure_once_per_process(capsys):
    # the 12 oracle-check Hamiltonians come from 6 (N, n, statistics)
    # bases and hop lists; validate's two occupation sectors are the (6, 2) ones
    caches = (oracle._basis, oracle._hops)
    for cache in caches:
        cache.cache_clear()
    for command, misses in (("oracle-check", 6), ("validate", 0)):
        before = [cache.cache_info().misses for cache in caches]
        code, _, _ = run_cli(capsys, [command])
        assert code == EXIT_OK
        after = [cache.cache_info().misses for cache in caches]
        assert [a - b for a, b in zip(after, before)] == [misses, misses], command


def test_oracle_check_builds_one_block_stack_per_chain(monkeypatch, capsys):
    # both statistics of a (case, coupling) reduce the same block stack
    calls = count_calls(monkeypatch, amplitudes, "propagator_block", {amplitudes, cli})
    code, _, _ = run_cli(capsys, ["oracle-check"])
    assert code == EXIT_OK
    assert len(calls) == len({id(dec) for dec in calls}) == 6


def test_oracle_suite_lets_other_warnings_through(monkeypatch, capsys):
    # only the weak-coupling warning of the J0 = 1.0 cases is silenced
    fock = cli.oracle_transfer_prob

    def noisy(spec, times):
        warnings.warn("probe", RuntimeWarning)
        return fock(spec, times)

    monkeypatch.setattr(cli, "oracle_transfer_prob", noisy)
    with pytest.warns(RuntimeWarning, match="probe"):
        code, _, _ = run_cli(capsys, ["oracle-check"])
    assert code == EXIT_OK


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps({"n_s": 1, "n_w": 2, "j0": 0.1, "h": 0.0,
                               "statistics": "fermion"}))
    code, out, _ = run_cli(capsys, ["spectrum", "--config", str(cfg), "--nw", "3"])
    assert code == EXIT_OK
    header = json.loads(out.split("\n")[0][len("# config: "):])
    assert header["n_w"] == 3  # flag wins over the file
    assert header["n_s"] == 1


@pytest.mark.parametrize("config, flags, h", [
    ({"n_s": 2, "n_w": 4, "h": 3.0}, [], 3.0),
    ({"n_s": 2, "n_w": 4, "h": 3.0}, ["--h", "1.5"], 1.5),
    ({"n_s": 2, "n_w": 4}, [], 2.0),
], ids=["file", "flag-over-file", "battery-default"])
def test_battery_takes_h_from_flag_then_file_then_its_default(tmp_path, capsys, config, flags, h):
    cfg = tmp_path / "battery.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, ["battery", "--config", str(cfg),
                                    "--tmax", "10", "--samples", "3"] + flags)
    assert code == EXIT_OK
    assert json.loads(out.split("\n")[0][len("# config: "):])["h"] == h


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 4]")
    code, out, err = run_cli(capsys, ["spectrum", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert out == ""
    assert "config file must hold a JSON object" in err


def test_one_sample_is_a_config_error(capsys):
    code, out, err = run_cli(capsys, ["transfer", "--ns", "1", "--nw", "4", "--j0", "0.1",
                                      "--tmax", "10", "--samples", "1"])
    assert code == EXIT_CONFIG
    assert out == ""
    assert "samples must be at least 2" in err


def test_numerical_inconsistency_exits_with_its_code(monkeypatch, capsys):
    original = amplitudes.fermion_prob
    monkeypatch.setattr(amplitudes, "fermion_prob", lambda sub: original(sub) + 2.0)
    code, out, err = run_cli(capsys, ["transfer", "--ns", "1", "--nw", "4", "--j0", "0.1"])
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("error: probability ")


def test_eigensolver_non_convergence_exits_with_the_numeric_code(monkeypatch, capsys):
    monkeypatch.setattr(spectral, "MAX_SWEEPS", 0)
    code, out, err = run_cli(capsys, ["transfer", "--ns", "2", "--nw", "5"])
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("error: tridiagonal QL failed to converge")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["transfer"])   # `spectrum` takes no QL (see below)
def test_eigensolver_underflow_exits_with_the_numeric_code(capsys, command):
    # products of the junction hop underflow to zero in a Givens rotation of the QL
    code, out, err = run_cli(capsys, [command, "--ns", "1", "--nw", "5", "--j0", "1e-200"])
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("error: tridiagonal QL broke down")
    assert err.count("\n") == 1


def test_unresolved_mirror_parities_exit_with_the_numeric_code(monkeypatch, capsys):
    # `transfer` stops at this chain's cluster spread before it reads the
    # QL's vectors, so `spectrum` runs on the QL here
    monkeypatch.setattr(cli, "decompose_chain", functools.partial(spectral.decompose_chain,
                                                                  _ql=True))
    code, out, err = run_cli(capsys, ["spectrum", "--ns", "2", "--nw", "6", "--j0", "1e-16"])
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err == ("error: eigensolver did not resolve the mirror parities: "
                   "7 of 10 eigenvectors came out even, not 5\n")


@pytest.mark.parametrize("argv, sweeps", [
    (["--ns", "2", "--nw", "5"], 0),
    (["--ns", "1", "--nw", "5", "--j0", "1e-200"], None),
    (["--ns", "2", "--nw", "6", "--j0", "1e-16"], None),
], ids=["non_convergence", "underflow", "unresolved_parities"])
def test_spectrum_solves_the_chains_the_ql_fails_on(monkeypatch, capsys, argv, sweeps):
    """The inputs of the three tests above: `spectrum` takes the mirror
    sectors, not the QL, and gives ceil(N/2) even levels."""
    if sweeps is not None:
        monkeypatch.setattr(spectral, "MAX_SWEEPS", sweeps)
    code, out, _ = run_cli(capsys, ["spectrum", *argv])
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[2:]]
    parities = [float(row[2]) for row in rows]
    assert sorted(set(parities)) == [-1.0, 1.0]
    assert parities.count(1.0) == (len(rows) + 1) // 2


def test_roundoff_splittings_exit_with_the_numeric_code(capsys):
    # at J0 = 1e-20 both clusters of (2,5) come out 1.5 ulp wide: roundoff,
    # not a splitting whose Rabi period could be a transfer time
    code, out, err = run_cli(capsys, ["perturbation", "--ns", "2", "--nw", "5", "--j0", "1e-20"])
    assert code == EXIT_NUMERIC
    assert out == ""
    assert err.startswith("error: sender mode 1: cluster spread ")
    assert err.count("\n") == 1


def test_transfer_boson_column_only(capsys):
    argv = ["transfer", "--ns", "1", "--nw", "4", "--j0", "0.1", "--tmax", "20", "--samples", "5"]
    columns = {}
    for stats in ("boson", "fermion"):
        code, out, _ = run_cli(capsys, argv + ["--stats", stats])
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        columns[stats] = lines[1], [row.split(",")[1] for row in lines[2:-1]]
    assert columns["boson"][0] == "t,p_boson"
    # one excitation: the two statistics agree
    assert len(columns["boson"][1]) == 5
    assert columns["boson"][1] == columns["fermion"][1]


def test_perturbation_file_output_matches_stdout(tmp_path, capsys):
    argv = ["perturbation", "--ns", "2", "--nw", "5", "--j0", "0.05"]
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, argv + ["-o", str(path)])
    assert code == EXIT_OK
    assert out == ""
    code, out, _ = run_cli(capsys, argv)
    assert code == EXIT_OK
    assert path.read_text() == out


def test_missing_geometry_is_a_config_error(capsys):
    code, _, err = run_cli(capsys, ["spectrum", "--ns", "1"])
    assert code == EXIT_CONFIG
    assert "error" in err


def test_malformed_config_file_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, ["spectrum", "--config", str(bad)])
    assert code == EXIT_CONFIG


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "extra.json"
    cfg.write_text(json.dumps({"n_s": 1, "n_w": 2, "j0": 0.1, "bogus": 7}))
    code, _, _ = run_cli(capsys, ["spectrum", "--config", str(cfg)])
    assert code == EXIT_CONFIG


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    code, _, _ = run_cli(capsys, ["spectrum", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_CONFIG


def test_non_finite_onsite_energy_is_a_config_error(capsys):
    code, out, err = run_cli(capsys, ["transfer", "--ns", "1", "--nw", "5", "--h", "nan"])
    assert code == EXIT_CONFIG
    assert out == ""
    assert "h must be finite" in err


@pytest.mark.parametrize("command", [
    ["transfer", "--ns", "1", "--nw", "5", "--j0", "0.1"],
    ["battery", "--nb", "2", "--nw", "16", "--j0", "0.01"],
])
@pytest.mark.parametrize("tmax", ["nan", "inf", "-inf"])
def test_non_finite_tmax_is_a_config_error(capsys, command, tmax):
    code, out, err = run_cli(capsys, command + [f"--tmax={tmax}"])
    assert code == EXIT_CONFIG
    assert out == ""
    assert "tmax must be positive and finite" in err


def test_oracle_check_passes(capsys):
    code, out, _ = run_cli(capsys, ["oracle-check"])
    assert code == EXIT_OK
    assert out.startswith("PASS")


def test_validate_passes_clean(capsys):
    code, out, _ = run_cli(capsys, ["validate"])
    assert code == EXIT_OK
    assert "all checks passed" in out
    assert out.count("PASS") == 8


def test_validate_flags_injected_asymmetry(capsys):
    code, out, _ = run_cli(capsys, ["validate", "--asymmetry", "0.02"])
    assert code == EXIT_FAIL
    assert "FAIL" in out
    assert "zero energies" in out


@pytest.mark.parametrize("target, wrong, line", [
    ("resonant_pairs", lambda n_s, n_w: [],
     "FAIL  resonance table: n_s=1, n_w=1: expected 1 resonances"),
    ("_top_ratio", lambda spec: 0.9,
     "FAIL  splitting ratios: n_s=3, n_w=43: ratio 0.9000 vs 0.5"),
])
def test_validate_reports_a_wrong_table_or_ratio(monkeypatch, capsys, target, wrong, line):
    monkeypatch.setattr(cli, target, wrong)
    code, out, _ = run_cli(capsys, ["validate"])
    assert code == EXIT_FAIL
    assert line in out.splitlines()
    assert out.splitlines()[-1] == "1 check(s) failed"


def pinned_stdout_sha256() -> dict:
    """`STDOUT_SHA256` of `test_bitwise_outputs`, loaded by path so that it
    does not depend on how pytest imports test modules."""
    path = Path(__file__).resolve().parent / "test_bitwise_outputs.py"
    spec = importlib.util.spec_from_file_location("bitwise_pins", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.STDOUT_SHA256


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", ["transfer --ns 2 --nw 41 --j0 0.01",
                                     "battery --nb 4 --nw 32 --j0 0.01",
                                     "spectrum --ns 4 --nw 101 --j0 0.01",
                                     "validate"])
def test_pinned_stdout_does_not_depend_on_the_blas_thread_count(command, threads):
    """Runs `test_bitwise_outputs` pins, in a fresh process whose OpenBLAS
    thread count is set before numpy loads, keep their stdout bytes.  The
    folded propagator products of `transfer` and `battery` are the first
    ones large enough for OpenBLAS to split across threads; `spectrum` and
    `validate` take their levels from LAPACK `eigh` (the mirror sectors)."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(path)}
    child = subprocess.run(
        [sys.executable, "-c", "import sys; from ppxfer.cli import main; sys.exit(main(sys.argv[1:]))",
         *command.split()],
        env=env, capture_output=True, timeout=300)
    assert child.returncode == EXIT_OK, child.stderr.decode()
    assert hashlib.sha256(child.stdout).hexdigest() == pinned_stdout_sha256()[command]
