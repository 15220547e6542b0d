"""The public names exported by the package."""

import inspect

import ppxfer
from ppxfer import amplitudes, perturbation

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
    ]
    for func, name in retired:
        assert name not in inspect.signature(func).parameters, (func.__name__, name)
