import json
import math

import numpy as np
import pytest

import kduncert as kd
from kduncert import serialize


def test_matrix_round_trip():
    m = kd.haar_random_unitary(3, seed=70)
    obj = serialize.matrix_to_json(m)
    back = serialize.matrix_from_json(obj)
    assert np.array_equal(m, back)
    text = serialize.dumps(obj)
    again = serialize.matrix_from_json(json.loads(text))
    assert np.array_equal(m, again)


def test_float_formatting_round_trips():
    values = [1 / 3, np.sqrt(2) - 1, 1e-17, 123456.789, 5e-324, 1e300, 1.0, -0.0]
    back = json.loads(serialize.dumps(values))
    assert back == values
    assert all(type(x) is float for x in back)
    assert math.copysign(1.0, back[-1]) == -1.0
    assert serialize.dumps([0.1, 1.0, -0.0]) == "[0.1, 1.0, -0.0]"


class _Half(float):
    pass


def test_dumps_rejects_non_finite():
    for x in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(kd.ValidationError):
            serialize.dumps(x)
    with pytest.raises(kd.ValidationError):
        serialize.dumps({"a": [np.float64("inf")]})
    # numpy scalars and float subclasses are numbers; an array is not
    assert serialize.dumps([np.float32(0.5), np.int64(7), _Half(0.5), np.float64(0.1)]) == "[0.5, 7, 0.5, 0.1]"
    with pytest.raises(kd.ValidationError, match="cannot serialize ndarray"):
        serialize.dumps({"m": np.zeros(2)})
    with pytest.raises(kd.ValidationError, match="keys must be"):
        serialize.dumps({(0, 1): 1.0})


def test_povm_round_trip():
    povm = kd.random_povm(2, 3, seed=71)
    back = serialize.povm_from_json(serialize.povm_to_json(povm))
    assert back.labels == povm.labels
    for a, b in zip(back.stack, povm.stack):
        assert np.abs(a - b).max() == 0.0


def test_matrix_from_json_errors_name_fields():
    with pytest.raises(kd.ValidationError, match="re_im"):
        serialize.matrix_from_json({"d": 2})
    with pytest.raises(kd.ValidationError, match="'d'"):
        serialize.matrix_from_json({"re_im": []})
    with pytest.raises(kd.ValidationError, match="entry 0"):
        serialize.matrix_from_json({"d": 1, "re_im": [[1.0]]})
    # a d below 1 is named as such, even when re_im holds d * d pairs
    for d, entries in ((0, []), (-2, [[0.0, 0.0]] * 4)):
        with pytest.raises(kd.ValidationError, match=rf"^state: field 'd' must be >= 1, got {d}$"):
            serialize.matrix_from_json({"d": d, "re_im": entries}, where="state")
    with pytest.raises(kd.ValidationError, match="effects"):
        serialize.povm_from_json({"d": 2})


def test_decomposition_json_shape():
    rho = kd.random_density(2, 2, seed=72)
    povm = kd.random_povm(2, 2, seed=73)
    dec = kd.decompose(rho, povm, kd.Flavor.NCL)
    obj = serialize.decomposition_to_json(dec)
    assert set(obj) == {"flavor", "total", "quantum", "classical", "probs", "diagnostics"}
    assert obj["flavor"] == "NCl"
    assert "best_basis" in obj["diagnostics"]
    dec_nre = kd.decompose(rho, povm, kd.Flavor.NRE)
    assert "diagnostics" not in serialize.decomposition_to_json(dec_nre)


def test_witness_report_json_shape():
    zero = kd.validate_density([[1, 0], [0, 0]])
    x = kd.rank_one_pvm(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    rep = kd.contextuality_witness(zero, x)
    obj = serialize.witness_report_to_json(rep)
    assert set(obj) == {"contextual", "nre", "ncl", "witness", "flavors_agree", "threshold"}
    assert obj["flavors_agree"] is True and obj["threshold"] == 1e-7
    assert set(obj["witness"]) == {"a", "b", "weak_value", "basis"}


def test_kdtable_json_is_a_major():
    rho = kd.validate_density([[1, 0], [0, 0]])
    povm = kd.random_povm(2, 3, seed=74)
    basis = kd.rank_one_pvm(np.eye(2))
    t = kd.kd_table(rho, povm, basis)
    obj = serialize.kdtable_to_json(t)
    assert obj["n_a"] == 3 and obj["n_b"] == 2
    flat = [complex(re, im) for re, im in obj["values"]]
    assert np.array_equal(np.array(flat).reshape(3, 2), t.values)


def test_flavor_from_name():
    assert serialize.flavor_from_name("nre") is kd.Flavor.NRE
    assert serialize.flavor_from_name("NCl") is kd.Flavor.NCL
    with pytest.raises(kd.ValidationError):
        serialize.flavor_from_name("shannon")


def test_load_measurement_dispatch():
    povm = kd.random_povm(2, 2, seed=75)
    loaded = serialize.load_measurement(serialize.povm_to_json(povm))
    assert isinstance(loaded, kd.Povm)
    basis = serialize.load_measurement(serialize.matrix_to_json(np.eye(2)))
    assert isinstance(basis, kd.RankOnePvm)
    with pytest.raises(kd.ValidationError):
        serialize.load_measurement({"nope": 1})
