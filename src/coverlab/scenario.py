"""Scenario files: a strict JSON dialect with decimal-string reals.

Every real number in a scenario is a decimal string ("0.05", "-1e-3"),
never a bare JSON float, so files re-parse bit-exactly and reports stay
byte-identical across runs.  Integers (vertex ids, radii, alpha, seeds)
are plain JSON integers, and no object names a key twice.  Validation
errors name the offending field by path.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

from .actions import (
    MAX_LATTICE_DIMENSION,
    GroupAction,
    finite_permutation_action,
    free_group_action,
    free_quotient_lattice_action,
    lattice_action,
)
from .errors import InputError
from .folner import SearchBudget, exact_fraction
from .geometry import VoltageCover, WeightedGraph, build_cover
from .spectrum import load_solvers

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


class _Refused:
    """What the decoder leaves for a bare float or a key named twice."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


def _bare_float(text: str) -> _Refused:
    return _Refused(f"real numbers must be decimal strings, got bare {text}")


def _unique_keys(pairs: list) -> Any:
    keys = [key for key, _value in pairs]
    dupes = [key for i, key in enumerate(keys) if key in keys[:i]]
    return _Refused(f"duplicate field '{dupes[0]}'") if dupes else dict(pairs)


def _reject_refused(node: Any, path: str) -> None:
    if isinstance(node, _Refused):
        raise InputError(f"{path}: {node.reason}")
    if isinstance(node, dict):
        for key, value in node.items():
            _reject_refused(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _reject_refused(value, f"{path}[{i}]")


def _expect_dict(node: Any, path: str) -> dict:
    if not isinstance(node, dict):
        raise InputError(f"{path}: expected an object, got {type(node).__name__}")
    return node


def _expect_list(node: Any, path: str) -> list:
    if not isinstance(node, list):
        raise InputError(f"{path}: expected a list, got {type(node).__name__}")
    return node


def _expect_int(node: Any, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise InputError(f"{path}: expected an integer, got {node!r}")
    return node


def _expect_real(node: Any, path: str) -> float:
    if isinstance(node, bool) or isinstance(node, int):
        raise InputError(
            f"{path}: reals must be decimal strings like \"{node}\", got {node!r}"
        )
    if not isinstance(node, str):
        raise InputError(f"{path}: expected a decimal string, got {node!r}")
    try:
        value = float(node)
    except ValueError:
        raise InputError(f"{path}: {node!r} is not a decimal number") from None
    if not math.isfinite(value):
        raise InputError(f"{path}: {node!r} is not a finite number")
    return value


def _expect_positive_real(node: Any, path: str) -> float:
    value = _expect_real(node, path)
    if value <= 0:
        raise InputError(f"{path}: must be positive, got {node!r}")
    return value


def _int_at_least(minimum: int):
    """Parser for an integer of at least `minimum`."""
    def parse(node: Any, path: str) -> int:
        value = _expect_int(node, path)
        if value < minimum:
            raise InputError(f"{path}: must be at least {minimum}, got {value}")
        return value
    return parse


def _expect_fraction(node: Any, path: str) -> Fraction:
    _expect_real(node, path)
    try:
        return exact_fraction(node)
    except (InputError, ValueError):
        raise InputError(f"{path}: {node!r} is not an exact decimal") from None


def _check_keys(node: dict, path: str, required: tuple, optional: tuple) -> None:
    for key in required:
        if key not in node:
            raise InputError(f"{path}: missing required field '{key}'")
    allowed = set(required) | set(optional)
    for key in node:
        if key not in allowed:
            raise InputError(f"{path}: unknown field '{key}'")


def _list_of(parse):
    """Parser for a list whose items all parse with `parse`, as a tuple."""
    def parse_list(node: Any, path: str) -> tuple:
        return tuple(parse(x, f"{path}[{i}]") for i, x in enumerate(_expect_list(node, path)))
    return parse_list


def _nonempty_list(parse):
    """Parser for a nonempty list whose items all parse with `parse`."""
    def parse_list(node: Any, path: str) -> tuple:
        items = _list_of(parse)(node, path)
        if not items:
            raise InputError(f"{path}: list must be nonempty")
        return items
    return parse_list


_int_list = _list_of(_expect_int)
_int_rows = _list_of(_int_list)


def _edge_row(label: str, parse_third):
    """Parser for a [u, v, x] row: two integer endpoints, then x."""
    def parse_row(node: Any, path: str) -> tuple:
        item = _expect_list(node, path)
        if len(item) != 3:
            raise InputError(f"{path}: expected [u, v, {label}]")
        return (_expect_int(item[0], f"{path}[0]"), _expect_int(item[1], f"{path}[1]"),
                parse_third(item[2], f"{path}[2]"))
    return parse_row


def _under(path: str, build, *args):
    """build(*args), with any InputError it raises put under the field path."""
    try:
        return build(*args)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _parse_base(node: Any, path: str) -> WeightedGraph:
    obj = _expect_dict(node, path)
    _check_keys(obj, path, ("mu", "edges"), ())
    mu = _list_of(_expect_real)(obj["mu"], f"{path}.mu")
    edges = _list_of(_edge_row("weight", _expect_real))(obj["edges"], f"{path}.edges")
    return _under(path, WeightedGraph, mu, edges)


def _fiber_size(node: Any, path: str) -> int:
    """A lattice dimension or free group rank: from 1 to MAX_LATTICE_DIMENSION."""
    value = _int_at_least(1)(node, path)
    if value > MAX_LATTICE_DIMENSION:
        raise InputError(f"{path}: must be at most {MAX_LATTICE_DIMENSION}, got {value}")
    return value


def _parse_fiber(node: Any, path: str) -> GroupAction:
    obj = _expect_dict(node, path)
    kind = obj.get("kind")
    if kind == "lattice":
        _check_keys(obj, path, ("kind", "dimension"), ())
        return lattice_action(_fiber_size(obj["dimension"], f"{path}.dimension"))
    if kind == "free_group":
        _check_keys(obj, path, ("kind", "rank"), ())
        return free_group_action(_fiber_size(obj["rank"], f"{path}.rank"))
    if kind == "finite_permutation":
        _check_keys(obj, path, ("kind", "degree", "generators"), ())
        degree = _expect_int(obj["degree"], f"{path}.degree")
        perms = _int_rows(obj["generators"], f"{path}.generators")
        return _under(path, finite_permutation_action, perms, degree)
    if kind == "quotient":
        _check_keys(obj, path, ("kind", "vectors"), ())
        vectors = _int_rows(obj["vectors"], f"{path}.vectors")
        return _under(path, free_quotient_lattice_action, vectors)
    raise InputError(
        f"{path}.kind: expected one of lattice, free_group, finite_permutation, "
        f"quotient; got {kind!r}"
    )


def _parse_voltages(node: Any, path: str) -> dict:
    voltages = {}
    for i, (u, v, word) in enumerate(_list_of(_edge_row("word", _int_list))(node, path)):
        if (u, v) in voltages:
            raise InputError(f"{path}[{i}]: duplicate voltage for edge ({u}, {v})")
        voltages[(u, v)] = word
    return voltages


# smallest accepted value of each budget field; a zero radius is a real
# (if tiny) search, zero points or subsets is none
_BUDGET_MINIMA = {
    "max_points": 1, "max_radius": 0, "subset_size_cap": 1, "max_subsets": 1,
}


def _parse_budget(node: Any, path: str) -> SearchBudget:
    obj = _expect_dict(node, path)
    _check_keys(obj, path, (), tuple(_BUDGET_MINIMA))
    return SearchBudget(**{
        key: _int_at_least(_BUDGET_MINIMA[key])(obj[key], f"{path}.{key}") for key in obj
    })


# every params field with its one parser, shared by all tasks that take
# it; fields are parsed in this order.  'epsilon' is the one-item form of
# 'epsilons' and is stored under that key.
_PARAM_PARSERS = {
    "epsilon": lambda node, path: (_expect_fraction(node, path),),
    "epsilons": _nonempty_list(_expect_fraction),
    "a": _expect_real,
    "a_samples": _nonempty_list(_expect_real),
    "alpha": _int_at_least(1),
    "radius": _int_at_least(0),
    "radii": _nonempty_list(_int_at_least(0)),
    "tolerance": _expect_positive_real,
    "budget": _parse_budget,
}

_PARAM_FIELDS = {
    "folner": ((), ("epsilon", "epsilons", "budget")),
    "spectrum": (("a_samples", "radii"), ()),
    "interval": (("a_samples", "radius"), ("alpha", "tolerance", "budget")),
    "transfer": (("a", "alpha"), ("radius", "budget")),
    "counterexample": (("a", "alpha", "radii"), ("budget",)),
    "corollary": ((), ("a_samples", "tolerance")),
}
TASKS = tuple(_PARAM_FIELDS)


def _parse_params(task: str, node: Any, path: str) -> dict:
    obj = _expect_dict(node, path) if node is not None else {}
    required, optional = _PARAM_FIELDS[task]
    _check_keys(obj, path, required, optional)
    if task == "folner" and ("epsilon" in obj) == ("epsilons" in obj):
        raise InputError(f"{path}: give exactly one of 'epsilon' or 'epsilons'")
    return {
        "epsilons" if key == "epsilon" else key: parse(obj[key], f"{path}.{key}")
        for key, parse in _PARAM_PARSERS.items() if key in obj
    }


# every top-level section with its parser, in parse order, and the
# sections each task reads; a task refuses every other section
_SECTION_PARSERS = {
    "base": _parse_base,
    "potential": _nonempty_list(_expect_real),
    "fiber": _parse_fiber,
    "voltages": _parse_voltages,
}

_COVER_SECTIONS = tuple(_SECTION_PARSERS)
_TASK_SECTIONS = {
    "folner": ("fiber",),
    "spectrum": _COVER_SECTIONS,
    "interval": _COVER_SECTIONS,
    "transfer": _COVER_SECTIONS,
    "counterexample": _COVER_SECTIONS,
    "corollary": ("base", "potential"),
}


@dataclass
class Scenario:
    name: str
    task: str
    seed: int
    base: Optional[WeightedGraph]
    potential: Optional[tuple[float, ...]]
    fiber: Optional[GroupAction]
    cover: Optional[VoltageCover]
    params: dict


def parse_scenario(obj: Any) -> Scenario:
    _reject_refused(obj, "scenario")
    root = _expect_dict(obj, "scenario")
    _check_keys(root, "scenario", ("name", "task"), ("seed", *_SECTION_PARSERS, "params"))
    name = root["name"]
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise InputError(f"scenario.name: {name!r} is not a valid identifier")
    task = root["task"]
    if task not in TASKS:
        raise InputError(f"scenario.task: {task!r} is not one of {', '.join(TASKS)}")
    seed = _expect_int(root.get("seed", 0), "scenario.seed")
    if seed < 0:
        raise InputError(f"scenario.seed: must be nonnegative, got {seed}")

    sections = _TASK_SECTIONS[task]
    if "potential" in sections:
        # a task with a potential solves; load its solvers while setting up
        load_solvers()
    for key in _SECTION_PARSERS:
        if key in root and key not in sections:
            raise InputError(f"scenario.{key}: not used by the {task} task")
    for key in sections:
        if key not in root:
            raise InputError(f"scenario.{key}: required for the {task} task")
    parsed = {key: parse(root[key], f"scenario.{key}")
              for key, parse in _SECTION_PARSERS.items() if key in sections}
    base = parsed.get("base")
    potential = parsed.get("potential")
    fiber = parsed.get("fiber")
    cover = None
    if "voltages" in parsed:
        cover = _under("scenario.voltages", build_cover, base, fiber, parsed["voltages"])

    if potential is not None and len(potential) != base.vertex_count:
        raise InputError(
            f"scenario.potential: length {len(potential)} does not match the "
            f"{base.vertex_count}-vertex base"
        )
    params = _parse_params(task, root.get("params"), "scenario.params")
    return Scenario(
        name=name, task=task, seed=seed, base=base, potential=potential,
        fiber=fiber, cover=cover, params=params,
    )


def load_scenario(path) -> Scenario:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"scenario file not found: {p}")
    text = p.read_text(encoding="utf-8")
    try:
        obj = json.loads(text, parse_float=_bare_float, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InputError(f"{p}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    try:
        return parse_scenario(obj)
    except InputError as exc:
        raise InputError(f"{p}: {exc}") from None
