"""Scenario files: a strict JSON dialect with decimal-string reals.

Every real number in a scenario is a decimal string ("0.05", "-1e-3"),
never a bare JSON float, so files re-parse bit-exactly and reports stay
byte-identical across runs.  Integers (vertex ids, radii, alpha, seeds)
are plain JSON integers, and no object names a key twice.  Validation
errors name the offending field by path.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Optional

from . import geometry, transfer
from .actions import (
    DEFAULT_POINT_BUDGET,
    GroupAction,
    finite_permutation_action,
    free_group_action,
    free_quotient_lattice_action,
    lattice_action,
)
from .errors import InputError, _check_int, _check_real, _echo
from .folner import SearchBudget, exact_fraction

# at most 200 characters, so <name>.json always fits a file name
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,199}")

# a scenario nests at most 4 levels deep; past this many it is refused
_MAX_DEPTH = 100

# a scenario real: ASCII digits with an optional sign, point and exponent,
# which float() and Fraction() both read as the same number
_DECIMAL_RE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


class _Refused:
    """What the decoder leaves for an overlong integer or a key named twice."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


def _bare_int(text: str) -> int | _Refused:
    try:
        return int(text)
    except ValueError:  # past the int-to-str digit limit, so the limit exists
        return _Refused(f"integer of {len(text.lstrip('-'))} digits, above the limit of "
                        f"{sys.get_int_max_str_digits()} digits")


def _unique_keys(pairs: list) -> Any:
    obj = dict(pairs)
    if len(obj) == len(pairs):
        return obj
    seen = set()
    for key, _value in pairs:
        if key in seen:
            return _Refused(f"duplicate field '{_echo(key, str)}'")
        seen.add(key)


def _reject_refused(node: Any, path: str, depth: int = 0) -> None:
    """Refuse the first _Refused in document order, and any list or object
    nested _MAX_DEPTH levels below the root."""
    if isinstance(node, _Refused):
        raise InputError(f"{_echo(path, str)}: {node.reason}")
    if isinstance(node, (dict, list)) and depth == _MAX_DEPTH:
        raise InputError(f"values nest more than {_MAX_DEPTH} levels deep")
    if isinstance(node, dict):
        for key, value in node.items():
            _reject_refused(value, f"{path}.{key}", depth + 1)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _reject_refused(value, f"{path}[{i}]", depth + 1)


def _expect_dict(node: Any, path: str) -> dict:
    if not isinstance(node, dict):
        raise InputError(f"{path}: expected an object, got {type(node).__name__}")
    return node


def _expect_list(node: Any, path: str) -> list:
    if not isinstance(node, list):
        raise InputError(f"{path}: expected a list, got {type(node).__name__}")
    return node


def _expect_real(node: Any, path: str, positive: bool = False) -> float:
    if not isinstance(node, str) or not _DECIMAL_RE.fullmatch(node):
        raise InputError(f"{path}: expected a decimal string, got {_echo(node)}")
    return _check_real(float(node), path, positive)


def _expect_fraction(node: Any, path: str) -> Fraction:
    _expect_real(node, path)
    return exact_fraction(node, path)


def _check_keys(node: dict, path: str, required: tuple, optional: tuple) -> None:
    for key in required:
        if key not in node:
            raise InputError(f"{path}: missing required field '{key}'")
    allowed = set(required) | set(optional)
    for key in node:
        if key not in allowed:
            raise InputError(f"{path}: unknown field '{_echo(key, str)}'")


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


_int_list = _list_of(_check_int)
_int_rows = _list_of(_int_list)


def _edge_row(label: str, parse_third):
    """Parser for a [u, v, x] row: two integer endpoints, then x."""
    def parse_row(node: Any, path: str) -> tuple:
        item = _expect_list(node, path)
        if len(item) != 3:
            raise InputError(f"{path}: expected [u, v, {label}]")
        return (_check_int(item[0], f"{path}[0]"), _check_int(item[1], f"{path}[1]"),
                parse_third(item[2], f"{path}[2]"))
    return parse_row


def _under(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), with any InputError it raises put under the field path."""
    try:
        return build(*args, **kwargs)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _parse_base(node: Any, path: str) -> geometry.WeightedGraph:
    obj = _expect_dict(node, path)
    _check_keys(obj, path, ("mu", "edges"), ())
    mu = _list_of(_expect_real)(obj["mu"], f"{path}.mu")
    edges = _list_of(_edge_row("weight", _expect_real))(obj["edges"], f"{path}.edges")
    return _under(path, geometry.WeightedGraph, mu, edges)


def _parse_fiber(node: Any, path: str) -> GroupAction:
    obj = _expect_dict(node, path)
    kind = obj.get("kind")
    if kind == "lattice":
        _check_keys(obj, path, ("kind", "dimension"), ())
        return _under(path, lattice_action, _check_int(obj["dimension"], f"{path}.dimension"))
    if kind == "free_group":
        _check_keys(obj, path, ("kind", "rank"), ())
        return _under(path, free_group_action, _check_int(obj["rank"], f"{path}.rank"))
    if kind == "finite_permutation":
        _check_keys(obj, path, ("kind", "degree", "generators"), ())
        degree = _check_int(obj["degree"], f"{path}.degree")
        perms = _int_rows(obj["generators"], f"{path}.generators")
        return _under(path, finite_permutation_action, perms, degree)
    if kind == "quotient":
        _check_keys(obj, path, ("kind", "vectors"), ())
        vectors = _int_rows(obj["vectors"], f"{path}.vectors")
        return _under(path, free_quotient_lattice_action, vectors)
    raise InputError(
        f"{path}.kind: expected one of lattice, free_group, finite_permutation, "
        f"quotient; got {_echo(kind)}"
    )


def _parse_voltages(node: Any, path: str) -> dict:
    voltages = {}
    for i, (u, v, word) in enumerate(_list_of(_edge_row("word", _int_list))(node, path)):
        if (u, v) in voltages:
            raise InputError(f"{path}[{i}]: duplicate voltage for edge {_echo((u, v))}")
        voltages[(u, v)] = word
    return voltages


def _parse_budget(node: Any, path: str) -> SearchBudget:
    obj = _expect_dict(node, path)
    _check_keys(obj, path, (), tuple(f.name for f in fields(SearchBudget)))
    try:
        return SearchBudget(**obj)
    except InputError as exc:
        raise InputError(f"{path}.{exc}") from None


# every params field with its one parser, shared by all tasks that take
# it; fields are parsed in this order
_PARAM_PARSERS = {
    "epsilon": lambda node, path: (_expect_fraction(node, path),),
    "epsilons": _nonempty_list(_expect_fraction),
    "a": _expect_real,
    "a_samples": _nonempty_list(_expect_real),
    "alpha": partial(_check_int, minimum=1, maximum=DEFAULT_POINT_BUDGET),
    "radius": partial(_check_int, minimum=0),
    "radii": _nonempty_list(partial(_check_int, minimum=0)),
    "tolerance": partial(_expect_real, positive=True),
    "budget": _parse_budget,
}

# a params field is stored under the keyword its task's library call
# takes; 'epsilon' is the one-item form of 'epsilons'
_KEYWORDS = {"epsilon": "epsilons", "tolerance": "tol"}

# every top-level section with its parser, in parse order
_SECTION_PARSERS = {
    "base": _parse_base,
    "potential": _nonempty_list(_expect_real),
    "fiber": _parse_fiber,
    "voltages": _parse_voltages,
}


# every task: the sections it reads and its required and optional params;
# it refuses every other section and param
_Task = namedtuple("_Task", "sections required optional")
TASKS = {
    "folner": _Task(("fiber",), (), ("epsilon", "epsilons", "budget")),
    "spectrum": _Task(tuple(_SECTION_PARSERS), ("a_samples", "radii"), ()),
    "interval": _Task(tuple(_SECTION_PARSERS), ("a_samples", "radius"),
                     ("alpha", "tolerance", "budget")),
    "transfer": _Task(tuple(_SECTION_PARSERS), ("a", "alpha"), ("radius", "budget")),
    "counterexample": _Task(tuple(_SECTION_PARSERS), ("a", "alpha", "radii"), ("budget",)),
    "corollary": _Task(("base", "potential"), (), ("a_samples", "tolerance")),
}


def _parse_params(task: str, node: Any, path: str) -> dict:
    obj = _expect_dict(node, path) if node is not None else {}
    _check_keys(obj, path, TASKS[task].required, TASKS[task].optional)
    if task == "folner" and ("epsilon" in obj) == ("epsilons" in obj):
        raise InputError(f"{path}: give exactly one of 'epsilon' or 'epsilons'")
    return {
        _KEYWORDS.get(key, key): parse(obj[key], f"{path}.{key}")
        for key, parse in _PARAM_PARSERS.items() if key in obj
    }


@dataclass
class Scenario:
    name: str
    task: str
    seed: int
    base: Optional[geometry.WeightedGraph]
    potential: Optional[tuple[float, ...]]
    fiber: Optional[GroupAction]
    cover: Optional[geometry.VoltageCover]
    params: dict  # keyed by the task's library keywords (see _KEYWORDS)


def parse_scenario(obj: Any) -> Scenario:
    _reject_refused(obj, "scenario")
    root = _expect_dict(obj, "scenario")
    _check_keys(root, "scenario", ("name", "task"), ("seed", *_SECTION_PARSERS, "params"))
    name = root["name"]
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise InputError(f"scenario.name: {_echo(name)} is not a valid identifier")
    task = root["task"]
    if not isinstance(task, str) or task not in TASKS:
        raise InputError(f"scenario.task: {_echo(task)} is not one of {', '.join(TASKS)}")
    seed = _check_int(root.get("seed", 0), "scenario.seed", 0)

    sections = TASKS[task].sections
    if "potential" in sections:
        # a task with a potential solves: run transfer while setting up; its
        # imports run geometry and spectrum, which imports numpy and scipy
        transfer.__name__
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
        cover = _under("scenario.voltages", geometry.build_cover, base, fiber, parsed["voltages"])
    if potential is not None:
        potential = _under("scenario.potential", geometry.as_potential, potential, base)
    params = _parse_params(task, root.get("params"), "scenario.params")
    return Scenario(
        name=name, task=task, seed=seed, base=base, potential=potential,
        fiber=fiber, cover=cover, params=params,
    )


def load_scenario(path) -> Scenario:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"scenario file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{p}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        obj = json.loads(text, parse_int=_bare_int, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InputError(f"{p}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:  # the decoder recurses once per level, far past _MAX_DEPTH
        raise InputError(f"{p}: values nest more than {_MAX_DEPTH} levels deep") from None
    try:
        return parse_scenario(obj)
    except InputError as exc:
        raise InputError(f"{p}: {exc}") from None
