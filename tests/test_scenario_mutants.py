"""Seeded mutants of the bundled scenarios, parsed only: every mutant parses
or is refused with an InputError that names its field path in a bounded
message, never a traceback.

Each mutant changes one thing in one bundled scenario: a value replaced
from a fixed table, an object key deleted, or a list entry duplicated.
A failing draw is kept as a named regression case; the seeds and the
draw count are fixed.
"""

import copy
import json
import pathlib
import random

import pytest

from coverlab.errors import _ECHO_LIMIT, InputError
from coverlab.scenario import parse_scenario

SCENARIOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))

# values no field takes: a bare JSON float, and two strings that float()
# reads (as 10.0 and 1.0) but the decimal grammar does not
NO_FIELD_TAKES = (1.5, " 1_0 ", "\u0661")

# every value a mutant may put in place of another
REPLACEMENTS = (0, -1, 10**6, 2**63, "nan", "1e400", "1e-320", "", [], {}, True, None,
                [0], ["1"], [[]], [0, 1], *NO_FIELD_TAKES)

SEEDS = range(4)
DRAWS_PER_SEED = 1000  # 4,000 mutants in all, parsed in under a second

# one echo of at most _ECHO_LIMIT characters, plus the field path and the
# wording around it
MESSAGE_LIMIT = _ECHO_LIMIT + 200


def _sites(node, parent=None, key=None):
    """Every (parent, key) at which a value sits, in document order."""
    if parent is not None:
        yield parent, key
    if isinstance(node, dict):
        for k, child in node.items():
            yield from _sites(child, node, k)
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from _sites(child, node, k)


def _mutant(doc, rng):
    """A copy of doc with one value replaced, one key deleted or one list
    entry duplicated, drawn evenly from every such change, and whether the
    change put in a value no field takes."""
    doc = copy.deepcopy(doc)
    changes = [(change, parent, key) for parent, key in _sites(doc)
               for change in ("replace", "delete" if isinstance(parent, dict) else "duplicate")]
    change, parent, key = rng.choice(changes)
    value = rng.choice(REPLACEMENTS) if change == "replace" else None
    if change == "replace":
        parent[key] = copy.deepcopy(value)
    elif change == "delete":
        del parent[key]
    else:
        parent.insert(key, copy.deepcopy(parent[key]))
    return doc, value in NO_FIELD_TAKES


def _assert_parses_or_is_refused(doc, refused=False):
    try:
        parse_scenario(doc)
    except InputError as exc:
        message = str(exc)
        assert message.startswith("scenario"), message
        assert len(message) <= MESSAGE_LIMIT, message
    else:
        assert not refused, "a field took a value that no field takes"


@pytest.mark.parametrize("seed", SEEDS)
def test_mutants_parse_or_are_refused_by_field(seed):
    rng = random.Random(seed)
    docs = [json.loads(path.read_text(encoding="utf-8")) for path in SCENARIOS]
    assert len(docs) == 8
    for _ in range(DRAWS_PER_SEED):
        _assert_parses_or_is_refused(*_mutant(rng.choice(docs), rng))


# failing draws, kept whatever the seeds above draw
@pytest.mark.parametrize("task", [[], {}], ids=["list", "object"])
def test_task_that_is_not_a_string_is_refused(task):
    # an unhashable task used to raise TypeError at the task table lookup
    doc = json.loads(SCENARIOS[0].read_text(encoding="utf-8"))
    doc["task"] = task
    with pytest.raises(InputError) as info:
        parse_scenario(doc)
    assert str(info.value).startswith(f"scenario.task: {task!r} is not one of folner, ")
