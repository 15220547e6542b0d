import json
import math

import numpy as np
import pytest

from ppxfer.chain import ChainSpec, CouplingProfile, adjacency_matrix, build_profile


def test_spec_basic_fields():
    spec = ChainSpec(n_s=2, n_w=41, j0=0.01)
    assert spec.n_r == spec.n_s == 2
    assert spec.n_sites == 45
    assert list(spec.sender_sites()) == [1, 2]
    assert list(spec.receiver_sites()) == [44, 45]


# n_s and n_w are counts, checked with every other count by the size registry
# in tests/test_api.py; the ids keep the numbers these rows have always run under
@pytest.mark.parametrize("bad", [
    dict(n_s=2, n_w=5, j0=0.0),
    dict(n_s=2, n_w=5, j0=-0.5),
    dict(n_s=2, n_w=5, j0=0.01, statistics="anyon"),
    dict(n_s=2, n_w=5, j0=math.inf),
    dict(n_s=2, n_w=5, j0=math.nan),
    dict(n_s=2, n_w=5, j0=0.01, h=math.nan),
    dict(n_s=2, n_w=5, j0=0.01, h=-math.inf),
    dict(n_s=2, n_w=5, j0=True),
    dict(n_s=2, n_w=5, j0="0.01"),
    dict(n_s=2, n_w=5, j0=0.01, h=False),
    dict(n_s=2, n_w=5, j0=0.01, h="0.5"),
    dict(n_s=2, n_w=5, j0=0.01, h=None),
], ids=[f"bad{k}" for k in (3, 4, 5, *range(9, 18))])
def test_spec_rejects_invalid(bad):
    with pytest.raises(ValueError):
        ChainSpec(**bad)


def test_bulk_hopping_is_a_constant_not_a_field():
    spec = ChainSpec(n_s=2, n_w=5, j0=0.01)
    assert spec.j == ChainSpec.j == 1.0
    with pytest.raises(TypeError):
        ChainSpec(2, 5, 0.01, j=2.0)


def test_spec_warns_outside_weak_coupling():
    with pytest.warns(UserWarning) as record:
        ChainSpec(n_s=1, n_w=3, j0=0.5)
    # the warning names the line that built the spec
    assert record[0].filename == __file__
    with pytest.warns(UserWarning):
        ChainSpec(n_s=1, n_w=3, j0=0.11)


def test_json_round_trip():
    spec = ChainSpec(n_s=3, n_w=41, j0=0.01, h=0.25, statistics="boson")
    assert ChainSpec.from_json(spec.to_json()) == spec


def test_json_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError):
        ChainSpec.from_json(json.dumps({"n_s": 1, "n_w": 1, "j0": 0.01, "nr": 1}))
    with pytest.raises(ValueError):
        ChainSpec.from_json(json.dumps({"n_s": 1, "j0": 0.01}))


@pytest.mark.parametrize("text, name", [
    ('{"n_s": 2.7, "n_w": 5, "j0": 0.01}', "n_s"),
    ('{"n_s": 2, "n_w": true, "j0": 0.01}', "n_w"),
    ('{"n_s": 2, "n_w": 5, "j0": Infinity}', "j0"),
    ('{"n_s": 2, "n_w": 5, "j0": 0.01, "h": NaN}', "h"),
    ('{"n_s": 2, "n_w": 5, "j0": true}', "j0"),
    ('{"n_s": 2, "n_w": 5, "j0": "0.01"}', "j0"),
    ('{"n_s": 2, "n_w": 5, "j0": 0.01, "h": false}', "h"),
])
def test_json_rejects_silent_values(text, name):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        ChainSpec.from_json(text)


def test_json_takes_integral_float_sizes():
    spec = ChainSpec.from_json('{"n_s": 2.0, "n_w": 5, "j0": 0.01}')
    assert spec == ChainSpec(n_s=2, n_w=5, j0=0.01)
    assert type(spec.n_s) is int


def test_spec_stores_couplings_as_floats():
    spec = ChainSpec(n_s=2, n_w=5, j0=np.float64(0.01), h=1)
    assert type(spec.j0) is float and type(spec.h) is float
    assert spec.to_json() == ('{"h": 1.0, "j0": 0.01, "n_s": 2, "n_w": 5, '
                              '"statistics": "fermion"}')


def test_json_defaults():
    spec = ChainSpec.from_json(json.dumps({"n_s": 2, "n_w": 3, "j0": 0.05}))
    assert spec.h == 0.0 and spec.statistics == "fermion" and spec.n_r == 2


def test_profile_smallest_chain():
    prof = build_profile(ChainSpec(n_s=1, n_w=1, j0=0.01))
    assert np.array_equal(prof.hop, [0.01, 0.01])
    assert np.array_equal(prof.onsite, [0.0, 0.0, 0.0])


def test_profile_junction_positions():
    prof = build_profile(ChainSpec(n_s=2, n_w=41, j0=0.01))
    assert prof.n_sites == 45
    assert prof.hop[1] == 0.01 and prof.hop[42] == 0.01
    others = np.delete(prof.hop, [1, 42])
    assert np.all(others == 1.0)
    assert build_profile(ChainSpec(n_s=3, n_w=41, j0=0.01)).n_sites == 47


def test_profile_mirror_symmetric():
    for n_s, n_w in [(1, 1), (2, 5), (3, 8), (4, 11)]:
        prof = build_profile(ChainSpec(n_s=n_s, n_w=n_w, j0=0.03, h=0.7))
        assert prof.is_mirror_symmetric()
        assert int(np.sum(prof.hop == 0.03)) == 2


def test_profile_shape_validation():
    with pytest.raises(ValueError):
        CouplingProfile(hop=np.ones(3), onsite=np.zeros(3))


BAD_PROFILES = {
    **{f"hop-{bad}": ([1.0, bad], [0.0, 0.0, 0.0]) for bad in (math.nan, math.inf, -math.inf)},
    **{f"onsite-{bad}": ([1.0], [bad, 0.0]) for bad in (math.nan, math.inf, -math.inf)},
    "too-few-onsite": ([1.0, 1.0], [0.0, 0.0]),
    "too-many-onsite": ([1.0], [0.0, 0.0, 0.0]),
}


@pytest.mark.parametrize("hop, onsite", BAD_PROFILES.values(), ids=BAD_PROFILES.keys())
def test_profile_refuses_non_finite_or_mismatched_values(hop, onsite):
    with pytest.raises(ValueError):
        CouplingProfile(hop=hop, onsite=onsite)


def test_adjacency_two_sites():
    a = adjacency_matrix(CouplingProfile(hop=np.array([1.0]), onsite=np.zeros(2)))
    assert np.array_equal(a, [[0.0, 0.5], [0.5, 0.0]])


def test_adjacency_three_sites_uniform():
    a = adjacency_matrix(CouplingProfile(hop=np.ones(2), onsite=np.full(3, 0.4)))
    assert np.array_equal(np.diag(a), [0.4, 0.4, 0.4])
    assert a[0, 1] == a[1, 0] == a[1, 2] == a[2, 1] == 0.5
    assert a[0, 2] == 0.0


def test_adjacency_persymmetric():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_s = int(rng.integers(1, 5))
        n_w = int(rng.integers(1, 12))
        spec = ChainSpec(n_s=n_s, n_w=n_w, j0=float(rng.uniform(0.005, 0.1)),
                         h=float(rng.uniform(-1, 1)))
        a = adjacency_matrix(build_profile(spec))
        assert np.array_equal(a, a[::-1, ::-1].T)


def test_onsite_shift_only_moves_diagonal():
    lo = adjacency_matrix(build_profile(ChainSpec(n_s=2, n_w=5, j0=0.02, h=0.0)))
    hi = adjacency_matrix(build_profile(ChainSpec(n_s=2, n_w=5, j0=0.02, h=1.3)))
    n = len(lo)
    assert np.array_equal(hi - lo, 1.3 * np.eye(n))
