"""Scenario file parsing and validation."""

import json
import pathlib
import re
import time
from fractions import Fraction

import pytest

from coverlab import InputError
from coverlab.scenario import TASKS, load_scenario, parse_scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def budgeted(budget):
    """minimal_transfer() as the counterexample task, which takes a search budget."""
    obj = minimal_transfer()
    obj["task"] = "counterexample"
    obj["params"].update(radii=[1], budget=budget)
    return obj


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


@pytest.mark.parametrize("value", [
    " 1_0 ", "\u0661", "\uff11", "1/3", "inf", "nan", "1e", ".", "",
], ids=["underscore-and-blanks", "arabic-indic-digit", "fullwidth-digit", "ratio", "inf", "nan",
        "bare-exponent", "bare-point", "empty"])
def test_real_that_is_not_an_ascii_decimal_is_refused(value):
    # float() read " 1_0 " as 10.0 and both digits as 1.0
    obj = minimal_transfer()
    obj["params"]["a"] = value
    with pytest.raises(InputError) as info:
        parse_scenario(obj)
    assert str(info.value) == f"scenario.params.a: expected a decimal string, got {value!r}"


def test_decimal_strings_read_as_their_exact_value():
    # one grammar, so the float read is the exact decimal, correctly rounded
    for text in ("1", "-1.", "+.5", "0.1", "1e-3", "2.5E+2", "-0.144", "1e-320",
                 "12345678901234567890"):
        obj = minimal_transfer()
        obj["params"]["a"] = text
        assert parse_scenario(obj).params["a"] == float(Fraction(text))


def test_raw_float_rejected_from_text(tmp_path):
    path = tmp_path / "raw.json"
    obj = minimal_transfer()
    obj["potential"] = ["-0.05", -0.05, "-0.05"]
    path.write_text(json.dumps(obj))
    with pytest.raises(InputError) as info:
        load_scenario(path)
    assert "potential[1]" in str(info.value)
    assert "decimal string" in str(info.value)


# (text of minimal_transfer() to repeat a key in, the same with the key
# repeated, exact message); the last value would win without the check
DUPLICATE_KEYS = [
    ('"task": "transfer"', '"task": "transfer", "task": "folner"',
     "scenario: duplicate field 'task'"),
    ('"a": "1"', '"a": "1", "a": "-1"', "scenario.params: duplicate field 'a'"),
    ('"max_subsets": 10', '"max_subsets": 10, "max_subsets": 5',
     "scenario.params.budget: duplicate field 'max_subsets'"),
    ('"dimension": 1', '"dimension": 1, "dimension": 2',
     "scenario.fiber: duplicate field 'dimension'"),
]


@pytest.mark.parametrize("once, twice, message", DUPLICATE_KEYS)
def test_duplicate_key_rejected(tmp_path, once, twice, message):
    # the transfer task takes no budget, so the budget's row is a counterexample
    obj = budgeted({"max_subsets": 10}) if "max_subsets" in once else minimal_transfer()
    text = json.dumps(obj)
    assert text.count(once) == 1
    path = tmp_path / "dup.json"
    path.write_text(text.replace(once, twice))
    with pytest.raises(InputError) as info:
        load_scenario(path)
    assert str(info.value) == f"{path}: {message}"


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


@pytest.mark.parametrize("name, valid", [
    ("n" * 200, True),
    ("n" * 201, False),
    ("t\n", False),  # a trailing newline is not part of an identifier
], ids=["200-characters", "201-characters", "trailing-newline"])
def test_name_fits_a_file_name(name, valid):
    obj = minimal_transfer()
    obj["name"] = name
    if valid:
        assert parse_scenario(obj).name == name
    else:
        with pytest.raises(InputError, match="^scenario.name: .* is not a valid identifier$"):
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
    assert str(info.value) == "scenario.voltages: voltage 1 repeats edge (0, 1)"


def test_voltage_on_missing_edge():
    obj = minimal_transfer()
    obj["base"]["edges"] = [[0, 1, "1"], [1, 2, "1"]]
    obj["voltages"] = [[2, 0, [1]]]
    with pytest.raises(InputError) as info:
        parse_scenario(obj)
    assert str(info.value) == "scenario.voltages: voltage on nonexistent edge (0, 2)"


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


def test_zero_epsilon_parses():
    # epsilon 0 asks for an invariant set, which is searched
    obj = valid_scenario("folner")
    obj["params"] = {"epsilons": ["0", "-0"]}
    assert parse_scenario(obj).params["epsilons"] == (0, 0)


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
    obj = budgeted({"max_radius": 4, "subset_size_cap": 9})
    scn = parse_scenario(obj)
    budget = scn.params["budget"]
    assert budget.max_radius == 4
    assert budget.subset_size_cap == 9


@pytest.mark.parametrize("key, value, ok", [
    ("subset_size_cap", 0, False),
    ("max_subsets", 0, False),
    ("max_radius", 0, True),
    ("max_radius", -1, False),
])
def test_budget_limits(key, value, ok):
    obj = budgeted({key: value})
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


DROP = object()
TRIANGLE = minimal_transfer()["base"]
DEFAULT_PARAMS = {
    "folner": {"epsilon": "0.1", "budget": {"max_subsets": 10}},
    "spectrum": {"a_samples": ["1"], "radii": [1]},
    "interval": {"a_samples": ["1"], "radius": 1, "alpha": 2},
    "transfer": {"a": "1", "alpha": 2, "radius": 1},
    "counterexample": {"a": "1", "alpha": 2, "radii": [1], "budget": {"max_subsets": 10}},
    "corollary": {},
}


def valid_scenario(task):
    """A scenario of the task with every section and params field it takes."""
    obj = {"name": "s", "task": task}
    if task != "folner":
        obj["base"] = TRIANGLE
        obj["potential"] = ["-0.05", "-0.05", "-0.05"]
    if task != "corollary":
        obj["fiber"] = {"kind": "lattice", "dimension": 1}
    if task not in ("folner", "corollary"):
        obj["voltages"] = [[0, 1, [1]]]
    obj["params"] = json.loads(json.dumps(DEFAULT_PARAMS[task]))
    return obj


@pytest.mark.parametrize("task", sorted(DEFAULT_PARAMS))
def test_valid_scenario_parses(task):
    assert parse_scenario(valid_scenario(task)).task == task


# (task, params field, bad value, exact message); messages recorded on the
# per-task parser that the field table replaced
PARAM_FAULTS = [
    ("folner", "epsilon", "1/0", "scenario.params.epsilon: expected a decimal string, got '1/0'"),
    ("folner", "epsilon", DROP, "scenario.params: give exactly one of 'epsilon' or 'epsilons'"),
    ("folner", "epsilons", ["0.1"], "scenario.params: give exactly one of 'epsilon' or 'epsilons'"),
    # settings that no scenario set left the schema, so each is refused
    ("folner", "budget", {"max_points": 10}, "scenario.params.budget: unknown field 'max_points'"),
    ("spectrum", "a_samples", [], "scenario.params.a_samples: must be nonempty"),
    ("spectrum", "radii", ["1"], "scenario.params.radii[0]: expected an integer, got '1'"),
    ("spectrum", "radii", DROP, "scenario.params: missing required field 'radii'"),
    ("interval", "a_samples", ["1", 2],
     "scenario.params.a_samples[1]: expected a decimal string, got 2"),
    ("interval", "radius", "1", "scenario.params.radius: expected an integer, got '1'"),
    ("interval", "alpha", True, "scenario.params.alpha: expected an integer, got True"),
    ("interval", "tolerance", "1e-6", "scenario.params: unknown field 'tolerance'"),
    ("counterexample", "budget", [], "scenario.params.budget: expected an object, got list"),
    ("transfer", "a", 1, "scenario.params.a: expected a decimal string, got 1"),
    ("transfer", "a", DROP, "scenario.params: missing required field 'a'"),
    ("transfer", "alpha", "2", "scenario.params.alpha: expected an integer, got '2'"),
    ("transfer", "radius", 1.5, "scenario.params.radius: expected an integer, got 1.5"),
    # the halving budget is a module constant, so a scenario cannot name it
    ("transfer", "max_halvings", 1, "scenario.params: unknown field 'max_halvings'"),
    ("counterexample", "budget", {"max_subsets": "3"},
     "scenario.params.budget.max_subsets: expected an integer, got '3'"),
    ("counterexample", "a", "one", "scenario.params.a: expected a decimal string, got 'one'"),
    ("counterexample", "alpha", None, "scenario.params.alpha: expected an integer, got None"),
    ("counterexample", "radii", 3, "scenario.params.radii: expected a list, got int"),
    ("counterexample", "budget", {"depth": 1}, "scenario.params.budget: unknown field 'depth'"),
    ("corollary", "a_samples", ["1"], "scenario.params: unknown field 'a_samples'"),
    ("corollary", "tolerance", "1e-6", "scenario.params: unknown field 'tolerance'"),
    ("corollary", "radius", 1, "scenario.params: unknown field 'radius'"),
    # non-finite reals, which are not decimal strings or read past float
    # range, and out-of-range numbers, refused with their field path
    ("transfer", "a", "nan", "scenario.params.a: expected a decimal string, got 'nan'"),
    ("counterexample", "a", "-inf", "scenario.params.a: expected a decimal string, got '-inf'"),
    ("spectrum", "a_samples", ["1e400"],
     "scenario.params.a_samples[0]: must be finite, got inf"),
    ("interval", "a_samples", ["1", "inf"],
     "scenario.params.a_samples[1]: expected a decimal string, got 'inf'"),
    ("interval", "alpha", DROP, "scenario.params: missing required field 'alpha'"),
    # only the tasks whose bundled scenarios set a budget take one
    ("interval", "budget", {"max_subsets": 10}, "scenario.params: unknown field 'budget'"),
    ("folner", "epsilon", "inf", "scenario.params.epsilon: expected a decimal string, got 'inf'"),
    ("transfer", "alpha", 0, "scenario.params.alpha: must be at least 1, got 0"),
    ("interval", "alpha", -2, "scenario.params.alpha: must be at least 1, got -2"),
    ("transfer", "radius", -1, "scenario.params.radius: must be at least 0, got -1"),
    ("spectrum", "radii", [2, -1], "scenario.params.radii[1]: must be at least 0, got -1"),
    ("folner", "epsilon", "-0.5", "scenario.params.epsilon: must be at least 0, got '-0.5'"),
    ("transfer", "budget", {"max_subsets": 10}, "scenario.params: unknown field 'budget'"),
]

# the folner epsilon list, given on its own
EPSILONS_FAULTS = [
    ([], "scenario.params.epsilons: must be nonempty"),
    (["0.1", 1], "scenario.params.epsilons[1]: expected a decimal string, got 1"),
    (["0.1", "x"], "scenario.params.epsilons[1]: expected a decimal string, got 'x'"),
    ("0.1", "scenario.params.epsilons: expected a list, got str"),
    (["0.5", "-0.1"], "scenario.params.epsilons[1]: must be at least 0, got '-0.1'"),
]

# (task, top-level section, bad value, exact message)
SECTION_FAULTS = [
    ("spectrum", "base", {"mu": ["1"]}, "scenario.base: missing required field 'edges'"),
    ("spectrum", "potential", ["1", "x", "1"],
     "scenario.potential[1]: expected a decimal string, got 'x'"),
    ("spectrum", "fiber", {"kind": "torus"},
     "scenario.fiber.kind: expected one of lattice, free_group, finite_permutation, "
     "quotient; got 'torus'"),
    ("spectrum", "voltages", {"0": 1}, "scenario.voltages: expected a list, got dict"),
    ("interval", "voltages", DROP, "scenario.voltages: required for the interval task"),
    ("transfer", "fiber", DROP, "scenario.fiber: required for the transfer task"),
    ("counterexample", "base", DROP, "scenario.base: required for the counterexample task"),
    ("counterexample", "potential", DROP,
     "scenario.potential: required for the counterexample task"),
    ("corollary", "potential", [], "scenario.potential: must be nonempty"),
    ("corollary", "base", DROP, "scenario.base: required for the corollary task"),
    ("corollary", "potential", DROP, "scenario.potential: required for the corollary task"),
    ("corollary", "fiber", {"kind": "lattice", "dimension": 1},
     "scenario.fiber: not used by the corollary task"),
    ("corollary", "voltages", [], "scenario.voltages: not used by the corollary task"),
    ("folner", "fiber", DROP, "scenario.fiber: required for the folner task"),
    ("folner", "base", TRIANGLE, "scenario.base: not used by the folner task"),
    ("folner", "potential", ["1"], "scenario.potential: not used by the folner task"),
    ("folner", "voltages", [], "scenario.voltages: not used by the folner task"),
    ("folner", "params", DROP, "scenario.params: give exactly one of 'epsilon' or 'epsilons'"),
    ("spectrum", "potential", ["1", "nan", "1"],
     "scenario.potential[1]: expected a decimal string, got 'nan'"),
    ("spectrum", "base", {"mu": ["1", "inf", "1"], "edges": TRIANGLE["edges"]},
     "scenario.base.mu[1]: expected a decimal string, got 'inf'"),
    # one past the largest lattice whose basis fits the default point budget
    ("folner", "fiber", {"kind": "lattice", "dimension": 1001},
     "scenario.fiber: lattice dimension: must be at most 1000, got 1001"),
    ("folner", "fiber", {"kind": "lattice", "dimension": 0},
     "scenario.fiber: lattice dimension: must be at least 1, got 0"),
    ("folner", "fiber", {"kind": "free_group", "rank": 0},
     "scenario.fiber: free group rank: must be at least 1, got 0"),
    # the same bound holds for a free group's rank
    ("folner", "fiber", {"kind": "free_group", "rank": 1001},
     "scenario.fiber: free group rank: must be at most 1000, got 1001"),
    # [u, v, x] rows and integer lists, item by item
    ("spectrum", "base", {"mu": ["1", "1"], "edges": [[0, 1]]},
     "scenario.base.edges[0]: expected [u, v, weight]"),
    ("spectrum", "base", {"mu": ["1", "1"], "edges": [[0, "1", "1"]]},
     "scenario.base.edges[0][1]: expected an integer, got '1'"),
    ("spectrum", "base", {"mu": ["1", "1"], "edges": [[0, 1, 1]]},
     "scenario.base.edges[0][2]: expected a decimal string, got 1"),
    ("spectrum", "voltages", [[0, 1]], "scenario.voltages[0]: expected [u, v, word]"),
    ("spectrum", "voltages", [[0, 1, ["1"]]],
     "scenario.voltages[0][2][0]: expected an integer, got '1'"),
    ("spectrum", "voltages", [[0, 1, [1]], [0, 1, [1]]],
     "scenario.voltages: voltage 1 repeats edge (0, 1)"),
    # every row is read before duplicates are looked for
    ("spectrum", "voltages", [[0, 1, [1]], [0, 1, [1]], [0]],
     "scenario.voltages[2]: expected [u, v, word]"),
    ("folner", "fiber", {"kind": "finite_permutation", "degree": 2, "generators": [[1, "0"]]},
     "scenario.fiber.generators[0][1]: expected an integer, got '0'"),
    ("folner", "fiber", {"kind": "quotient", "vectors": [[1], ["0"]]},
     "scenario.fiber.vectors[1][0]: expected an integer, got '0'"),
    # a constructor's own message, put under the section's path
    ("spectrum", "base", {"mu": ["1", "1", "1"], "edges": [[0, 1, "1"]]},
     "scenario.base: graph is not connected; unreachable vertices [2]"),
    ("folner", "fiber", {"kind": "finite_permutation", "degree": 2, "generators": [[0, 0]]},
     "scenario.fiber: generator 1 is not a permutation of 0..1: (0, 0)"),
    ("spectrum", "voltages", [[0, 5, [1]]],
     "scenario.voltages: voltage 0 endpoint: must be at most 2, got 5"),
    # refused by its length, before a range of the degree is built
    ("folner", "fiber", {"kind": "finite_permutation", "degree": 10**9, "generators": [[1, 0]]},
     "scenario.fiber: generator 1 is not a permutation of 0..999999999: (1, 0)"),
    # the constructors bound the sizes; the parser still names a non-integer's field
    ("folner", "fiber", {"kind": "lattice", "dimension": "2"},
     "scenario.fiber.dimension: expected an integer, got '2'"),
    ("folner", "fiber", {"kind": "free_group", "rank": 1.0},
     "scenario.fiber.rank: expected an integer, got 1.0"),
    # an edge takes one voltage in either orientation, even an empty word
    ("spectrum", "voltages", [[0, 1, []], [1, 0, [1]]],
     "scenario.voltages: voltage 1 repeats edge (0, 1)"),
    ("spectrum", "voltages", [[1, 0, [1]], [0, 1, []]],
     "scenario.voltages: voltage 1 repeats edge (0, 1)"),
    # an empty collection, refused by the library under the section's path
    ("spectrum", "base", {"mu": [], "edges": []}, "scenario.base: mu: must be nonempty"),
    ("folner", "fiber", {"kind": "quotient", "vectors": []},
     "scenario.fiber: vectors: must be nonempty"),
    # a subnormal mu would overflow the operator, so it is refused by its field
    ("spectrum", "base", {"mu": ["1", "1e-320", "1"], "edges": TRIANGLE["edges"]},
     "scenario.base: mu[1]: must be at least 2.2250738585072014e-308, got 1e-320"),
]


def _set(node, key, value):
    if value is DROP:
        del node[key]
    else:
        node[key] = value


def _message(obj):
    with pytest.raises(InputError) as info:
        parse_scenario(obj)
    return str(info.value)


@pytest.mark.parametrize("task, key, value, message", PARAM_FAULTS)
def test_param_fault_message(task, key, value, message):
    obj = valid_scenario(task)
    _set(obj["params"], key, value)
    assert _message(obj) == message


@pytest.mark.parametrize("value, message", EPSILONS_FAULTS)
def test_epsilons_fault_message(value, message):
    obj = valid_scenario("folner")
    obj["params"] = {"epsilons": value}
    assert _message(obj) == message


@pytest.mark.parametrize("task, key, value, message", SECTION_FAULTS)
def test_section_fault_message(task, key, value, message):
    obj = valid_scenario(task)
    _set(obj, key, value)
    assert _message(obj) == message


def test_lattice_dimension_at_limit_parses():
    obj = valid_scenario("folner")
    obj["fiber"] = {"kind": "lattice", "dimension": 1000}
    assert parse_scenario(obj).fiber.generator_count == 1000


def test_free_group_rank_at_limit_parses():
    obj = valid_scenario("folner")
    obj["fiber"] = {"kind": "free_group", "rank": 1000}
    assert parse_scenario(obj).fiber.generator_count == 1000


def schema_param_fields():
    """Task -> (required, optional) params fields, from the "Task parameters"
    table of docs/schema.md.  A "`x` or `y`" entry is a choice of exactly
    one, which the parser takes as two optional fields and checks itself."""
    text = (ROOT / "docs" / "schema.md").read_text()
    section = text[text.index("### Task parameters"):text.index("Task semantics")]
    table = {}
    for task, required, optional in re.findall(
            r"^\| `(\w+)` *\|([^|]*)\|([^|]*)\|$", section, re.M):
        entries = [re.findall(r"`(\w+)`", entry) for entry in required.split(",")]
        choices = {name for names in entries if len(names) > 1 for name in names}
        table[task] = ({names[0] for names in entries if len(names) == 1},
                       set(re.findall(r"`(\w+)`", optional)) | choices)
    return table


def test_params_table_matches_schema():
    assert schema_param_fields() == {
        task: (set(t.required), set(t.optional)) for task, t in TASKS.items()
    }


def _first_repeated_key(keys):
    # the reference rule, quadratic: the first key that repeats one before it
    dupes = [key for i, key in enumerate(keys) if key in keys[:i]]
    return dupes[0] if dupes else None


@pytest.mark.parametrize("keys", [
    ["a", "b"], ["a", "a"], ["a", "b", "b", "a"], ["b", "a", "c", "a", "b"],
    ["x", "y", "z", "y", "x", "z"],
])
def test_duplicate_key_is_the_first_key_seen_twice(tmp_path, keys):
    path = tmp_path / "keys.json"
    obj = minimal_transfer()
    text = json.dumps(obj)
    extra = ", ".join(f'"{key}": {i}' for i, key in enumerate(keys))
    path.write_text(text[:-1] + ', "extra": {' + extra + "}}")
    with pytest.raises(InputError) as info:
        load_scenario(path)
    dupe = _first_repeated_key(keys)
    message = f"scenario.extra: duplicate field '{dupe}'" if dupe else "scenario: unknown field 'extra'"
    assert str(info.value) == f"{path}: {message}"


def test_many_keys_decode_in_linear_time(tmp_path):
    # the check used to compare each key with a slice of all the keys before
    # it: 4.3 s for 20,000 keys and 20.8 s for 40,000
    path = tmp_path / "keys.json"
    keys = ", ".join(f'"k{i}": {i}' for i in range(200_000))
    path.write_text(json.dumps(minimal_transfer())[:-1] + ', "extra": {' + keys + ', "k7": 0}}')
    started = time.perf_counter()
    with pytest.raises(InputError) as info:
        load_scenario(path)
    assert time.perf_counter() - started < 2.0
    assert str(info.value) == f"{path}: scenario.extra: duplicate field 'k7'"


@pytest.mark.parametrize("depth, message", [
    (99, "scenario.seed: expected an integer, got " + "[" * 99 + "]" * 99),
    (100, "values nest more than 100 levels deep"),
    (500, "values nest more than 100 levels deep"),
    (100_000, "values nest more than 100 levels deep"),
])
def test_nesting_depth_is_bounded(tmp_path, depth, message):
    # a scenario nests at most 4 levels below its root; the decoder
    # itself recursed past the stack at depth 995, which a refusal at
    # 100 levels keeps every parse step far from
    path = tmp_path / "deep.json"
    obj = minimal_transfer()
    obj["seed"] = "@"
    path.write_text(json.dumps(obj).replace('"@"', "[" * depth + "]" * depth))
    with pytest.raises(InputError) as info:
        load_scenario(path)
    assert str(info.value) == f"{path}: {message}"


def test_refused_keys_and_values_are_echoed_up_to_a_prefix(tmp_path):
    key = "k" * 5000
    obj = minimal_transfer()
    obj[key] = 1
    with pytest.raises(InputError) as info:
        parse_scenario(obj)
    assert str(info.value) == f"scenario: unknown field '{'k' * 200}...'"
    obj = minimal_transfer()
    obj["potential"][0] = "1_" * 2500
    with pytest.raises(InputError) as info:
        parse_scenario(obj)
    assert str(info.value) == (f"scenario.potential[0]: expected a decimal string, "
                               f"got '{'1_' * 99}1...")
    # a bare float is refused by its field's rule, however long its text
    path = tmp_path / "float.json"
    path.write_text(json.dumps(minimal_transfer()).replace('"-0.05"', "-0.0" + "5" * 5000, 1))
    with pytest.raises(InputError) as info:
        load_scenario(path)
    assert str(info.value) == (f"{path}: scenario.potential[0]: expected a decimal string, "
                               f"got -0.05555555555555555")
