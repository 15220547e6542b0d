"""Tests for level clustering, splitting scaling, and transfer-time prediction."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ppxfer import (
    ChainSpec,
    ClusterAmbiguityError,
    Feasibility,
    NoTransferPredicted,
    SubmatrixEvaluator,
    amplitudes,
    distinct_splittings,
    perturbation_report,
)
from ppxfer.perturbation import (
    _solve_off_diagonal,
    commensurability_check,
    envelope,
    find_clusters,
    predict_transfer_time,
    ratio_diagnostics,
    rule_of_thumb,
    splitting_scaling,
)
from ppxfer.spectral import decompose_chain


def quiet_spec(**kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ChainSpec(**kwargs)


def clusters_for(spec):
    return find_clusters(decompose_chain(spec), spec)


def test_single_block_off_resonance_gives_one_doublet():
    spec = ChainSpec(n_s=1, n_w=4, j0=0.01)
    clusters = clusters_for(spec)
    assert len(clusters) == 1
    c = clusters[0]
    assert c.sender_mode == 1
    assert c.multiplicity == 2
    assert c.order == 2
    assert len(c.members) == 2
    assert c.unperturbed_energy == pytest.approx(0.0, abs=1e-15)


def test_single_block_on_resonance_gives_one_trio():
    spec = ChainSpec(n_s=1, n_w=5, j0=0.01)
    clusters = clusters_for(spec)
    assert len(clusters) == 1
    assert clusters[0].multiplicity == 3
    assert clusters[0].order == 1


def test_three_block_cluster_structure_and_frozen_splittings():
    # n_w = 41: only the central sender mode is resonant.  Cluster members
    # and splittings are frozen from a cross-checked run.
    spec = ChainSpec(n_s=3, n_w=41, j0=0.01)
    clusters = clusters_for(spec)
    by_mode = {c.sender_mode: c for c in clusters}
    assert [by_mode[k].multiplicity for k in (1, 2, 3)] == [2, 3, 2]
    assert by_mode[1].members == (35, 36)
    assert by_mode[2].members == (22, 23, 24)
    assert by_mode[3].members == (10, 11)
    assert by_mode[2].delta == pytest.approx(1.0910058940718928e-03, rel=1e-9)
    assert by_mode[1].delta == pytest.approx(8.834750877984021e-06, rel=1e-9)
    assert by_mode[3].delta == pytest.approx(8.834750877984021e-06, rel=1e-9)


def test_cluster_members_cover_two_ns_plus_resonances_levels():
    # Total claimed levels = 2*n_s + (number of resonant modes).
    for n_s, n_w, n_res in [(1, 4, 0), (1, 5, 1), (3, 41, 1), (3, 43, 3), (2, 8, 2)]:
        spec = ChainSpec(n_s=n_s, n_w=n_w, j0=0.01)
        clusters = clusters_for(spec)
        members = [m for c in clusters for m in c.members]
        assert len(members) == len(set(members)) == 2 * n_s + n_res


def test_mirror_modes_carry_equal_splittings():
    spec = ChainSpec(n_s=3, n_w=40, j0=0.01)
    by_mode = {c.sender_mode: c for c in clusters_for(spec)}
    assert by_mode[1].delta == pytest.approx(by_mode[3].delta, rel=1e-6)


def test_overlapping_clusters_raise_with_assignments():
    spec = quiet_spec(n_s=2, n_w=1, j0=1.5)
    dec = decompose_chain(spec)
    with pytest.raises(ClusterAmbiguityError) as excinfo:
        find_clusters(dec, spec)
    assert excinfo.value.assignments
    assert any(isinstance(v, tuple) for v in excinfo.value.assignments.values())


def test_a_decomposition_of_another_chain_size_is_refused():
    dec = decompose_chain(ChainSpec(3, 10, 0.05))                  # 16 levels
    spec = ChainSpec(2, 3, 0.05)                                    # 7 sites
    calls = [
        lambda: find_clusters(dec, spec),
        lambda: predict_transfer_time(spec, dec),
        lambda: amplitudes.plan_scan_grid(spec, dec),
        lambda: amplitudes.scan_max_probability(spec, dec),
        lambda: amplitudes.find_transfer_peak(spec, dec),
        lambda: envelope(spec, 1.0, dec),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="16 levels, chain has 7 sites"):
            call()


def test_distinct_splittings_groups_mirror_pairs():
    spec = ChainSpec(n_s=3, n_w=41, j0=0.01)
    groups = distinct_splittings(clusters_for(spec))
    assert len(groups) == 2
    slow, fast = groups
    assert set(slow[1]) == {1, 3}
    assert fast[1] == (2,)
    assert slow[0] < fast[0]


def test_splitting_scaling_orders():
    j0_list = [1e-3, 3e-3, 1e-2]
    slopes = splitting_scaling(ChainSpec(n_s=1, n_w=40, j0=0.01), j0_list)
    assert slopes[1] == pytest.approx(2.0, abs=0.05)
    slopes = splitting_scaling(ChainSpec(n_s=1, n_w=41, j0=0.01), j0_list)
    assert slopes[1] == pytest.approx(1.0, abs=0.05)
    slopes = splitting_scaling(ChainSpec(n_s=3, n_w=41, j0=0.01), j0_list)
    assert slopes[2] == pytest.approx(1.0, abs=0.05)
    assert slopes[1] == pytest.approx(2.0, abs=0.05)
    assert slopes[3] == pytest.approx(2.0, abs=0.05)


def test_splitting_scaling_validates_inputs():
    spec = ChainSpec(n_s=1, n_w=4, j0=0.01)
    with pytest.raises(ValueError):
        splitting_scaling(spec, [1e-3, 1e-2])
    with pytest.raises(ValueError):
        splitting_scaling(spec, [1e-3, 3e-3, 5e-3])
    with pytest.raises(ValueError):
        splitting_scaling(spec, [0.02, 0.08, 0.2])
    with pytest.raises(ValueError):
        splitting_scaling(spec, [0.0, 1e-3, 1e-2])


def test_halving_coupling_scales_splitting_by_order():
    # First-order splittings halve with J0; second-order ones quarter.
    for n_w, factor in [(41, 2.0), (40, 4.0)]:
        deltas = {}
        for j0 in (0.01, 0.005):
            spec = ChainSpec(n_s=1, n_w=n_w, j0=j0)
            deltas[j0] = clusters_for(spec)[0].delta
        assert deltas[0.01] / deltas[0.005] == pytest.approx(factor, rel=0.1)


def test_rule_of_thumb_cases():
    rot = rule_of_thumb(clusters_for(ChainSpec(n_s=3, n_w=41, j0=0.01)))
    assert rot.holds
    assert set(rot.slow_modes) == {1, 3}
    rot = rule_of_thumb(clusters_for(ChainSpec(n_s=3, n_w=40, j0=0.01)))
    assert not rot.holds
    rot = rule_of_thumb(clusters_for(ChainSpec(n_s=1, n_w=6, j0=0.01)))
    assert rot.holds
    assert rot.slow_modes == (1,)
    with pytest.raises(ValueError):
        rule_of_thumb([])


def test_predict_transfer_time_resonant_beats_off_resonant():
    tau_res = predict_transfer_time(ChainSpec(n_s=1, n_w=41, j0=0.01))
    tau_off = predict_transfer_time(ChainSpec(n_s=1, n_w=40, j0=0.01))
    assert tau_res < tau_off / 10.0


def test_predict_transfer_time_frozen_value():
    tau = predict_transfer_time(ChainSpec(n_s=3, n_w=41, j0=0.01))
    assert tau == pytest.approx(math.pi / (2.0 * 8.834750877984021e-06), rel=1e-9)


def test_predict_transfer_time_quasi_perfect_class():
    tau = predict_transfer_time(ChainSpec(n_s=4, n_w=32, j0=0.01))
    assert tau > 0


def test_predict_transfer_time_refuses_infeasible_class():
    with pytest.raises(NoTransferPredicted):
        predict_transfer_time(ChainSpec(n_s=3, n_w=40, j0=0.01))


@pytest.mark.parametrize(
    "n_s,n_w,expected",
    [
        (3, 40, 0.50),
        (3, 42, 0.50),
        (3, 43, 0.50),
        (4, 41, 0.1459),
        (4, 42, 0.1459),
        (4, 43, 0.3820),
        (4, 44, 0.3820),
    ],
)
def test_ratio_diagnostics_limits(n_s, n_w, expected):
    estimates = ratio_diagnostics(ChainSpec(n_s=n_s, n_w=n_w, j0=0.01))
    assert len(estimates) == 1
    est = estimates[0]
    assert est.value == pytest.approx(expected, abs=0.02)
    assert est.error < 0.01
    assert est.error == pytest.approx(abs(est.value - est.value_coarse), rel=1e-12)


def test_ratio_diagnostics_empty_for_single_block():
    assert ratio_diagnostics(ChainSpec(n_s=1, n_w=5, j0=0.01)) == []


def test_report_at_a_ratio_coupling_decomposes_each_coupling_once(monkeypatch):
    # J0 = 1e-3 is the coarse ratio coupling: the report's own clusters
    # serve that probe, so only the fine probe builds another chain
    from ppxfer import perturbation

    spec = ChainSpec(n_s=3, n_w=41, j0=1e-3)
    want = ratio_diagnostics(spec)
    built = []
    original = perturbation.decompose_chain

    def recorder(chain):
        built.append(chain.j0)
        return original(chain)

    monkeypatch.setattr(perturbation, "decompose_chain", recorder)
    report = perturbation_report(spec)
    assert built == [1e-3, 1e-4]
    assert len(report.ratios) == len(want) == 1
    for got, ref in zip(report.ratios, want):
        assert got.name == ref.name
        for field in ("value", "value_coarse", "error"):
            assert getattr(got, field).hex() == getattr(ref, field).hex(), field


def test_envelope_resonant_class_is_quartic_sine():
    spec = ChainSpec(n_s=3, n_w=41, j0=0.01)
    dec = decompose_chain(spec)
    delta_star = distinct_splittings(clusters_for(spec))[0][0]
    tau = math.pi / (2.0 * delta_star)
    assert envelope(spec, 0.0, dec) == pytest.approx(0.0, abs=1e-30)
    assert envelope(spec, tau, dec) == pytest.approx(1.0, rel=1e-9)
    t = np.linspace(0.0, tau, 7)
    env = envelope(spec, t, dec)
    assert env.shape == (7,)
    assert np.allclose(env, np.sin(delta_star * t) ** 4, atol=1e-12)


@pytest.mark.parametrize("n_s, n_w", [(n_s, n_w) for n_s in range(2, 6)
                                      for n_w in range(40, 41 + n_s)])
def test_envelope_bounds_the_curve_and_meets_its_peak(n_s, n_w):
    # one wire length per residue class of n_w mod (n_s + 1); the margin is J0
    spec = ChainSpec(n_s=n_s, n_w=n_w, j0=0.01)
    dec = decompose_chain(spec)
    ev = SubmatrixEvaluator(dec, n_s)
    delta_slow = distinct_splittings(clusters_for(spec))[0][0]
    t = np.linspace(0.0, 3.0 * math.pi / delta_slow, 3001)
    p = ev.p_fermion(t)
    assert np.max(p - envelope(spec, t, dec)) <= spec.j0
    # p's argmax on a bare-J-resolving window of +/-2 coarse steps
    k = int(np.argmax(p))
    window = np.arange(t[max(k - 2, 0)], t[min(k + 2, len(t) - 1)], 2.0 * math.pi / 64)
    p_window = ev.p_fermion(window)
    best = int(np.argmax(p_window))
    assert envelope(spec, window[best], dec) - p_window[best] <= spec.j0


def test_commensurability_half_is_infeasible_by_parity():
    verdict = commensurability_check(Fraction(1, 2))
    assert not verdict.feasible
    assert verdict.solution is None
    assert "even" in verdict.witness and "odd" in verdict.witness


def test_commensurability_third_is_infeasible():
    verdict = commensurability_check(Fraction(1, 3))
    assert not verdict.feasible
    assert "4 does not divide" in verdict.witness


def test_commensurability_unity_and_fifth_are_feasible():
    verdict = commensurability_check(Fraction(1, 1))
    assert verdict.feasible
    assert verdict.solution == (0, 0)
    verdict = commensurability_check(Fraction(1, 5))
    assert verdict.feasible
    n, m = verdict.solution
    # Witness equation must hold for one of the two phase offsets.
    assert any(5 * (4 * m + off) == 1 * (4 * n + off) for off in (1, 3))


def test_commensurability_accepts_floats():
    assert not commensurability_check(0.5).feasible
    assert commensurability_check(0.2).feasible
    # a Fraction is not rounded to denominator 10**6
    assert "10000000" in commensurability_check(Fraction(1, 10**7)).witness


def test_commensurability_refuses_a_ratio_that_is_not_positive():
    for ratio in (-11, Fraction(-1, 2), 0, 0.0, math.nan):
        with pytest.raises(ValueError, match="ratio must be positive"):
            commensurability_check(ratio)


@pytest.mark.parametrize("ratio", [True, "1/2", 1j, None, math.inf, -math.inf, 1e-300])
def test_commensurability_refuses_what_is_not_a_positive_finite_real(ratio):
    with pytest.raises(ValueError, match="ratio must be"):
        commensurability_check(ratio)


def test_off_diagonal_solver_agrees_with_brute_force():
    # the solver gives the least m >= 0, or None when no (n, m) exists
    for num in range(1, 13):
        for den in range(1, 13):
            if math.gcd(num, den) != 1:
                continue
            for off in (1, 3):
                right = {num * (4 * n + off): n for n in range(200)}
                brute = [(right[den * (4 * m + off)], m) for m in range(200)
                         if den * (4 * m + off) in right]
                assert _solve_off_diagonal(num, den, off) == (brute[0] if brute else None), (
                    num, den, off)


def test_perturbation_report_bundles_prediction():
    rep = perturbation_report(ChainSpec(n_s=3, n_w=41, j0=0.01))
    assert rep.delta_star == pytest.approx(8.834750877984021e-06, rel=1e-9)
    assert rep.rule_of_thumb_holds
    assert set(rep.slow_modes) == {1, 3}
    assert rep.predicted_tau == pytest.approx(math.pi / (2 * rep.delta_star), rel=1e-12)
    assert rep.tau_alt == pytest.approx(2 * rep.predicted_tau, rel=1e-12)
    assert rep.feasibility is Feasibility.PP
    assert len(rep.ratios) == 1


def test_perturbation_report_infeasible_class_has_no_tau():
    rep = perturbation_report(ChainSpec(n_s=3, n_w=40, j0=0.01))
    assert rep.predicted_tau is None
    assert rep.tau_alt is None
    assert rep.feasibility is Feasibility.NONE
    assert not rep.rule_of_thumb_holds


def test_perturbation_report_single_block_has_no_ratios():
    rep = perturbation_report(ChainSpec(n_s=1, n_w=5, j0=0.01))
    assert rep.ratios == ()
    assert rep.predicted_tau is not None
