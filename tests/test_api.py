"""The public names exported by the package."""

import inspect

import ppxfer
from ppxfer import amplitudes, cli, observables, perturbation, spectral

REMOVED = ("AmplitudeMatrix", "amplitude", "amplitude_matrix", "sr_submatrix")


def test_public_names_resolve_once():
    assert len(ppxfer.__all__) == len(set(ppxfer.__all__))
    for name in ppxfer.__all__:
        assert getattr(ppxfer, name) is not None, name


def test_propagator_api_is_the_kernel_and_the_evaluator():
    assert {"propagator_block", "SubmatrixEvaluator"} <= set(ppxfer.__all__)
    for name in REMOVED:
        assert name not in ppxfer.__all__
        assert not hasattr(ppxfer, name)
        assert not hasattr(ppxfer.amplitudes, name)


def test_single_valued_options_are_not_parameters():
    retired = [
        (amplitudes.find_transfer_peak, "horizon"),
        (amplitudes.plan_scan_grid, "horizon"),
        (amplitudes.scan_max_probability, "refine_top"),
        (amplitudes._golden_max, "iters"),
        (perturbation.distinct_splittings, "rtol"),
        (perturbation.ratio_diagnostics, "j0_pair"),
        (amplitudes.scan_max_probability, "t_max"),
        (cli._add_spec_flags, "h_default"),
    ]
    for func, name in retired:
        assert name not in inspect.signature(func).parameters, (func.__name__, name)


def test_only_the_two_entry_points_decompose_on_their_own():
    kernels = [
        amplitudes.scan_transfer, amplitudes.plan_scan_grid, amplitudes.scan_max_probability,
        perturbation.envelope_3ex,
        observables.occupation, observables.occupation_profile,
        observables.magnetization_receiver, observables.interaction_energy,
        observables.switching_energy,
    ]
    for func in kernels:
        dec = inspect.signature(func).parameters["dec"]
        assert dec.default is inspect.Parameter.empty, func.__name__
    for func in (amplitudes.find_transfer_peak, perturbation.predict_transfer_time):
        assert inspect.signature(func).parameters["dec"].default is None, func.__name__


def test_eigensolver_reads_the_profile_not_a_matrix():
    assert list(inspect.signature(spectral.diagonalize).parameters) == ["profile"]
    assert not hasattr(spectral, "_is_tridiagonal")
