"""Scenario file parsing and validation."""

import json

import pytest

from coverlab import InputError
from coverlab.scenario import load_scenario, parse_scenario


def minimal_transfer():
    return {
        "name": "t",
        "task": "transfer",
        "seed": 0,
        "base": {
            "mu": ["1", "1", "1"],
            "edges": [[0, 1, "1"], [0, 2, "1"], [1, 2, "1"]],
        },
        "potential": ["-0.05", "-0.05", "-0.05"],
        "fiber": {"kind": "lattice", "dimension": 1},
        "voltages": [[0, 1, [1]]],
        "params": {"a": "1", "alpha": 2},
    }


def test_parse_minimal_transfer():
    scn = parse_scenario(minimal_transfer())
    assert scn.name == "t"
    assert scn.task == "transfer"
    assert scn.cover is not None
    assert scn.cover.voltages == {(0, 1): (1,)}
    assert scn.potential == (-0.05, -0.05, -0.05)
    assert scn.params["a"] == 1.0
    assert scn.params["alpha"] == 2


def test_raw_float_rejected():
    obj = minimal_transfer()
    obj["base"]["mu"] = [1.0, "1", "1"]
    with pytest.raises(InputError) as info:
        parse_scenario(obj)
    assert "base.mu[0]" in str(info.value)


def test_raw_float_rejected_from_text(tmp_path):
    path = tmp_path / "raw.json"
    obj = minimal_transfer()
    obj["potential"] = ["-0.05", -0.05, "-0.05"]
    path.write_text(json.dumps(obj))
    with pytest.raises(InputError) as info:
        load_scenario(path)
    assert "potential[1]" in str(info.value)
    assert "decimal string" in str(info.value)


def test_unknown_key_rejected():
    obj = minimal_transfer()
    obj["extra"] = 1
    with pytest.raises(InputError) as info:
        parse_scenario(obj)
    assert "extra" in str(info.value)


def test_missing_field_rejected():
    obj = minimal_transfer()
    del obj["potential"]
    with pytest.raises(InputError):
        parse_scenario(obj)


def test_bad_task():
    obj = minimal_transfer()
    obj["task"] = "sing"
    with pytest.raises(InputError) as info:
        parse_scenario(obj)
    assert "task" in str(info.value)


def test_bad_name():
    obj = minimal_transfer()
    obj["name"] = "bad name!"
    with pytest.raises(InputError):
        parse_scenario(obj)


def test_bad_seed():
    obj = minimal_transfer()
    obj["seed"] = -1
    with pytest.raises(InputError):
        parse_scenario(obj)
    obj["seed"] = True
    with pytest.raises(InputError):
        parse_scenario(obj)


def test_bad_fiber_kind():
    obj = minimal_transfer()
    obj["fiber"] = {"kind": "modular", "dimension": 1}
    with pytest.raises(InputError) as info:
        parse_scenario(obj)
    assert "fiber" in str(info.value)


def test_duplicate_voltage():
    obj = minimal_transfer()
    obj["voltages"] = [[0, 1, [1]], [1, 0, [1]]]
    with pytest.raises(InputError) as info:
        parse_scenario(obj)
    assert "voltages" in str(info.value)


def test_voltage_on_missing_edge():
    obj = minimal_transfer()
    obj["voltages"] = [[0, 5, [1]]]
    with pytest.raises(InputError):
        parse_scenario(obj)


def test_potential_length_mismatch():
    obj = minimal_transfer()
    obj["potential"] = ["-0.05", "-0.05"]
    with pytest.raises(InputError) as info:
        parse_scenario(obj)
    assert "potential" in str(info.value)


def test_folner_shape():
    scn = parse_scenario(
        {
            "name": "f",
            "task": "folner",
            "seed": 3,
            "fiber": {"kind": "lattice", "dimension": 2},
            "params": {"epsilon": "0.1"},
        }
    )
    assert scn.base is None and scn.cover is None
    assert scn.fiber.generator_count == 2
    from fractions import Fraction

    # single epsilon is normalized into the epsilons tuple
    assert scn.params["epsilons"] == (Fraction(1, 10),)


def test_folner_rejects_base():
    obj = {
        "name": "f",
        "task": "folner",
        "seed": 0,
        "base": minimal_transfer()["base"],
        "fiber": {"kind": "lattice", "dimension": 1},
        "params": {"epsilon": "0.1"},
    }
    with pytest.raises(InputError):
        parse_scenario(obj)


def test_epsilon_and_epsilons_conflict():
    obj = {
        "name": "f",
        "task": "folner",
        "seed": 0,
        "fiber": {"kind": "lattice", "dimension": 1},
        "params": {"epsilon": "0.1", "epsilons": ["0.1"]},
    }
    with pytest.raises(InputError):
        parse_scenario(obj)


def test_corollary_rejects_fiber():
    obj = {
        "name": "c",
        "task": "corollary",
        "seed": 0,
        "base": minimal_transfer()["base"],
        "potential": ["1", "-1", "0"],
        "fiber": {"kind": "lattice", "dimension": 1},
        "params": {},
    }
    with pytest.raises(InputError):
        parse_scenario(obj)


def test_quotient_fiber():
    scn = parse_scenario(
        {
            "name": "q",
            "task": "folner",
            "seed": 0,
            "fiber": {"kind": "quotient", "vectors": [[1], [0]]},
            "params": {"epsilon": "0.25"},
        }
    )
    assert scn.fiber.generator_count == 2
    assert scn.fiber.translation_vectors == ((1,), (0,))


def test_finite_permutation_fiber():
    scn = parse_scenario(
        {
            "name": "p",
            "task": "folner",
            "seed": 0,
            "fiber": {
                "kind": "finite_permutation",
                "degree": 3,
                "generators": [[1, 0, 2], [1, 2, 0]],
            },
            "params": {"epsilon": "0.9"},
        }
    )
    assert scn.fiber.generator_count == 2


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",}')
    with pytest.raises(InputError) as info:
        load_scenario(path)
    assert "line" in str(info.value)


def test_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_scenario(tmp_path / "absent.json")


def test_budget_parsing():
    obj = minimal_transfer()
    obj["params"]["budget"] = {"max_radius": 4, "subset_size_cap": 9}
    scn = parse_scenario(obj)
    budget = scn.params["budget"]
    assert budget.max_radius == 4
    assert budget.subset_size_cap == 9


@pytest.mark.parametrize("key, value, ok", [
    ("max_points", 1, True),
    ("max_points", 0, False),
    ("max_points", -5, False),
    ("subset_size_cap", 0, False),
    ("max_subsets", 0, False),
    ("max_radius", 0, True),
    ("max_radius", -1, False),
    ("max_box_doublings", 0, True),
    ("max_box_doublings", -1, False),
])
def test_budget_limits(key, value, ok):
    obj = minimal_transfer()
    obj["params"]["budget"] = {key: value}
    if ok:
        assert getattr(parse_scenario(obj).params["budget"], key) == value
    else:
        with pytest.raises(InputError, match=rf"params\.budget\.{key}"):
            parse_scenario(obj)


def test_bundled_scenarios_parse():
    import pathlib

    bundled = sorted(pathlib.Path("scenarios").glob("*.json"))
    assert len(bundled) == 8
    for path in bundled:
        scn = load_scenario(path)
        assert scn.name == path.stem
