"""The public names exported by the package, and the time-argument and
count/position rules every one of them follows."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ppxfer
from ppxfer import ChainSpec
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


TIME_PARAMETERS = ("t", "tau", "times")


def time_callables():
    """(label, function, time parameter) for every public callable taking a
    time: the functions in `ppxfer.__all__` and the methods of its classes."""
    found = []
    for name in ppxfer.__all__:
        obj = getattr(ppxfer, name)
        if inspect.isclass(obj):
            members = [(f"{name}.{m}", f) for m, f in vars(obj).items()
                       if inspect.isfunction(f) and not m.startswith("_")]
        else:
            members = [(name, obj)] if inspect.isfunction(obj) else []
        for label, func in members:
            found += [(label, func, p) for p in inspect.signature(func).parameters
                      if p in TIME_PARAMETERS]
    return found


TIME_CALLABLES = time_callables()

# what each non-time parameter (and each method's instance) is built from
ARGUMENTS = {
    "spec": lambda spec, dec: spec,
    "dec": lambda spec, dec: dec,
    "rows": lambda spec, dec: np.arange(spec.n_s),
    "cols": lambda spec, dec: np.arange(dec.n),
    "site": lambda spec, dec: spec.n_sites,
}
INSTANCES = {
    "SpectralDecomposition": lambda spec, dec: dec,
    "SubmatrixEvaluator": lambda spec, dec: ppxfer.SubmatrixEvaluator(dec, spec.n_s),
}
BLOCK_SIZES = {"envelope_3ex": [3]}   # defined for n_s = 3 only


def sector_dim(spec):
    n = spec.n_sites + (spec.n_s - 1 if spec.statistics == "boson" else 0)
    return math.comb(n, spec.n_s)


def call_with_time(func, time_name, spec, dec, t):
    args = []
    for name, param in inspect.signature(func).parameters.items():
        if name == "self":
            args.append(INSTANCES[func.__qualname__.split(".")[0]](spec, dec))
        elif name == time_name:
            args.append(t)
        elif param.default is inspect.Parameter.empty:
            args.append(ARGUMENTS[name](spec, dec))
    return func(*args)


def test_the_time_registry_sees_the_public_time_arguments():
    labels = {label for label, _, _ in TIME_CALLABLES}
    assert {"propagator_block", "SubmatrixEvaluator.submatrix", "SubmatrixEvaluator.p_fermion",
            "SubmatrixEvaluator.p_boson", "SpectralDecomposition.phases", "occupation",
            "occupation_profile", "magnetization_receiver", "interaction_energy",
            "switching_energy", "envelope_3ex", "oracle_transfer_prob",
            "oracle_occupation"} == labels


@pytest.mark.parametrize("label, func, time_name", TIME_CALLABLES,
                         ids=[label for label, _, _ in TIME_CALLABLES])
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_time_argument_takes_a_scalar_or_a_1d_array(label, func, time_name, data):
    spec = ChainSpec(n_s=data.draw(st.sampled_from(BLOCK_SIZES.get(label, [1, 2, 3])), "n_s"),
                     n_w=data.draw(st.integers(1, 4), "n_w"),
                     j0=data.draw(st.sampled_from([0.01, 0.05, 0.1]), "j0"),
                     h=data.draw(st.sampled_from([0.0, 0.7]), "h"),
                     statistics=data.draw(st.sampled_from(["fermion", "boson"]), "statistics"))
    dec = ppxfer.decompose_chain(spec)
    length = data.draw(st.sampled_from([1, 2, spec.n_s, spec.n_sites, sector_dim(spec)]), "T")
    times = np.array(data.draw(st.lists(st.floats(-1e3, 1e5), min_size=length,
                                        max_size=length), "times"))

    stack = call_with_time(func, time_name, spec, dec, times)
    for k in sorted({0, length - 1, data.draw(st.integers(0, length - 1), "k")}):
        alone = call_with_time(func, time_name, spec, dec, float(times[k]))
        assert np.shape(stack) == (length,) + np.shape(alone)
        assert np.asarray(stack[k]).tobytes() == np.asarray(alone).tobytes(), (label, k)
        if not np.shape(alone):
            assert isinstance(alone, float)

    bad = times.copy()
    bad[data.draw(st.integers(0, length - 1), "bad")] = data.draw(
        st.sampled_from([np.nan, np.inf, -np.inf]), "non-finite")
    for t in (times.reshape(1, -1), times.reshape(-1, 1), [], np.nan, np.inf, -np.inf, bad):
        with pytest.raises(ValueError, match="times must be finite"):
            call_with_time(func, time_name, spec, dec, t)


COUNT_PARAMETERS = ("n_s", "n_w", "n_sites", "n_particles", "l_max", "p")
POSITION_PARAMETERS = ("site", "i", "j")


def size_callables():
    """(label, callable, parameter) for every public count or 1-based
    position: in the functions of `ppxfer.__all__`, the methods of its
    classes and the constructors of `ChainSpec` and `SubmatrixEvaluator`."""
    found = []
    for name in ppxfer.__all__:
        obj = getattr(ppxfer, name)
        if inspect.isclass(obj):
            members = [(f"{name}.{m}", f) for m, f in vars(obj).items()
                       if inspect.isfunction(f) and not m.startswith("_")]
            if name in ("ChainSpec", "SubmatrixEvaluator"):
                members.append((name, obj))
        else:
            members = [(name, obj)] if inspect.isfunction(obj) else []
        for label, func in members:
            found += [(label, func, p) for p in inspect.signature(func).parameters
                      if p in COUNT_PARAMETERS + POSITION_PARAMETERS]
    return found


SIZE_CALLABLES = size_callables()
SIZE_SPEC = ChainSpec(n_s=2, n_w=3, j0=0.05)                     # N = 7
SIZE_BASIS = ppxfer.enumerate_basis(4, 2, "boson")
# every argument's value while another one is under test
SIZE_ARGUMENTS = {
    "n_s": 2, "n_w": 3, "j0": 0.05, "p": 1, "l_max": 2, "n_sites": 4, "n_particles": 2,
    "statistics": "fermion", "i": 1, "j": 2, "site": 3, "t": 1.0, "state": (1, 0, 0, 1),
    "spec": SIZE_SPEC, "dec": ppxfer.decompose_chain(SIZE_SPEC),
}
# the allowed range of each parameter with the arguments above (None: no upper end)
SIZE_RANGES = {
    ("ChainSpec", "n_s"): (1, None), ("ChainSpec", "n_w"): (1, None),
    ("wire_spectrum", "n_w"): (1, None), ("sender_spectrum", "n_s"): (1, None),
    ("SubmatrixEvaluator", "n_s"): (1, 3),
    ("single_particle_bound", "n_s"): (1, None),
    ("single_particle_bound", "i"): (1, 2), ("single_particle_bound", "j"): (1, 2),
    ("resonant_pairs", "n_s"): (1, None), ("resonant_pairs", "n_w"): (1, None),
    ("resonance_count", "n_s"): (1, None), ("resonance_count", "p"): (0, 2),
    ("pp_feasible", "n_s"): (1, None), ("pp_feasible", "n_w"): (1, None),
    ("universal_lengths", "l_max"): (0, None),
    ("resonance_report", "n_s"): (1, None), ("resonance_report", "n_w"): (1, None),
    ("SectorBasis.occupation_of", "site"): (1, 4),
    ("enumerate_basis", "n_sites"): (1, None), ("enumerate_basis", "n_particles"): (0, 4),
    ("oracle_occupation", "site"): (1, 7), ("occupation", "site"): (1, 7),
}


def call_with_size(func, size_name, value):
    args = []
    for name, param in inspect.signature(func).parameters.items():
        if name == "self":
            args.append(SIZE_BASIS)
        elif name == size_name:
            args.append(value)
        elif param.default is inspect.Parameter.empty:
            args.append(SIZE_ARGUMENTS[name])
    return func(*args)


def fingerprint(result):
    """What a call returned, in a form that compares equal only bit for bit."""
    if isinstance(result, ppxfer.SubmatrixEvaluator):
        result = result.submatrix(1.0)
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    return repr(result)


def test_the_size_registry_sees_the_public_counts_and_positions():
    assert {(label, name) for label, _, name in SIZE_CALLABLES} == set(SIZE_RANGES)


@pytest.mark.parametrize("label, func, name", SIZE_CALLABLES,
                         ids=[f"{label}-{name}" for label, _, name in SIZE_CALLABLES])
def test_every_count_and_position_has_one_contract(label, func, name):
    low, high = SIZE_RANGES[(label, name)]
    valid = SIZE_ARGUMENTS[name]
    bad = [True, False, np.True_, 2.5, "2", low - 1] + ([] if high is None else [high + 1])
    same = [np.int64(valid), np.int32(valid)]
    # a count may come as an integral float (JSON gives one); a position may not
    (same if name in COUNT_PARAMETERS else bad).extend([float(valid), np.float64(valid)])
    for value in bad:
        with pytest.raises(ValueError, match=rf"^{name} must"):
            call_with_size(func, name, value)
    expected = fingerprint(call_with_size(func, name, valid))
    for value in same:
        assert fingerprint(call_with_size(func, name, value)) == expected, value


def test_a_site_list_is_checked_site_by_site():
    # a bool, fraction or out-of-range entry may not pass beside a good one
    for sites in ([1, True], [1, 2.5], [1, 8], [1, 0]):
        with pytest.raises(ValueError, match="site must lie in"):
            ppxfer.oracle_occupation(SIZE_SPEC, 1.0, sites)
    assert np.array_equal(ppxfer.oracle_occupation(SIZE_SPEC, 1.0, [1, np.int64(3)]),
                          ppxfer.oracle_occupation(SIZE_SPEC, 1.0, [1, 3]))
