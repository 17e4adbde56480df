"""Import boundaries: unused names; numpy, scipy and coverlab's lazily loaded
geometry, spectrum and transfer only where a solve needs them; and the public
names and the README example, each checked in a fresh interpreter."""

import ast
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coverlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SOLVER_PACKAGES = ("numpy", "scipy")
# the modules coverlab/__init__.py loads lazily, and the table of the
# names it re-exports from them
LAZY_MODULES = ("geometry", "spectrum", "transfer")
LAZY_EXPORTS = "_LAZY_EXPORTS"
FOLNER_SCENARIOS = ("f2_on_z_folner.json", "z2_folner.json", "z_folner.json")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_checker_flags_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom typing import Any, Iterable\n"
              "def f(x: Iterable) -> None:\n    pass\n")
    assert unused_imports(source) == ["Any (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_locals(source: str) -> list[str]:
    """Names a function stores and never loads, in every function and method.

    A store counts in the function whose own body holds it; a load counts
    anywhere inside the function, so a closure's read keeps an outer name.
    Names starting with ``_`` and names a function declares ``nonlocal``
    or ``global`` are skipped.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, declared = {}, set()
        stack = list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Nonlocal, ast.Global)):
                declared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored[node.id] = min(node.lineno, stored.get(node.id, node.lineno))
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                     ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))
        loaded = {node.id for node in ast.walk(fn)
                  if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        found += [f"{fn.name}: {name} (line {line})" for name, line in stored.items()
                  if not name.startswith("_") and name not in declared | loaded]
    return sorted(found)


def test_checker_flags_unused_locals():
    source = textwrap.dedent("""\
        def f(xs):
            total, _rest = 0, 1
            dead = len(xs)
            for x in xs:
                total += x
            def g():
                nonlocal total
                total = 1
                kept = 2
                unread = kept
            return total
        """)
    assert unused_locals(source) == ["f: dead (line 3)", "g: unread (line 10)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_locals(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []


# library API that the acceptance criteria exercise and nothing in coverlab calls
UNCALLED_EXPORTS = ("all_subgroups", "coset_duality_check", "dirichlet_lambda0",
                    "regular_tree_dirichlet_value")


def read_names(module_sources: list[str]) -> set[str]:
    """Every name some module reads.

    A read is a name loaded anywhere in a module outside the top-level
    statement that defines that same name, so a function that only calls
    itself, or a class that only names itself, has no reader.  An
    attribute read through one of LAZY_MODULES, as in ``geometry.X``, is
    a read of X; an attribute read through any other name is not.
    """
    read = set()
    for source in module_sources:
        for top in ast.parse(source).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = {top.name}
            elif isinstance(top, ast.Assign):
                own = {t.id for t in top.targets if isinstance(t, ast.Name)}
            else:
                own = set()
            read |= {node.id for node in ast.walk(top)
                     if isinstance(node, ast.Name) and node.id not in own}
            read |= {node.attr for node in ast.walk(top)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in LAZY_MODULES}
    return read


def exported_names(init_source: str) -> list[str]:
    """Names that ``__init__`` re-exports: those it imports from a module,
    and every string in its LAZY_EXPORTS table."""
    exported = []
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom):
            exported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == LAZY_EXPORTS for t in node.targets):
            exported += [item.value for item in ast.walk(node.value)
                         if isinstance(item, ast.Constant) and isinstance(item.value, str)]
    return exported


def unreferenced_exports(init_source: str, module_sources: list[str]) -> list[str]:
    """Names that ``__init__`` re-exports and no module reads."""
    exported = exported_names(init_source)
    read = read_names(module_sources)
    return sorted(name for name in exported if name not in read)


def unread_definitions(module_sources: list[str]) -> list[str]:
    """Public top-level functions and classes that no module reads,
    whether ``__init__`` re-exports them or not."""
    defined = [top.name for source in module_sources for top in ast.parse(source).body
               if isinstance(top, (ast.FunctionDef, ast.ClassDef))
               and not top.name.startswith("_")]
    read = read_names(module_sources)
    return sorted(name for name in defined if name not in read)


def test_export_checker_flags_names_without_a_reader():
    init = ("from .a import f, g, h, K\nfrom .b import k\n"
            "_LAZY_EXPORTS = {**dict.fromkeys(('m', 'p', 'q'), geometry)}\n")
    a = textwrap.dedent("""\
        from .b import k
        K = 3
        def f(n):
            return f(n - 1)
        def g(x: K):
            return k(x)
        class h:
            def copy(self) -> h:
                return h()
        def main():
            return g(1) + geometry.m + other.p
        """)
    b = "def k(x):\n    return x\n"
    assert unreferenced_exports(init, [a, b]) == ["f", "h", "p", "q"]


def test_every_export_has_a_reader_in_the_package():
    init = (SRC / "__init__.py").read_text(encoding="utf-8")
    modules = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unreferenced_exports(init, modules) == sorted(UNCALLED_EXPORTS)


def test_definition_checker_flags_unexported_orphans():
    a = textwrap.dedent("""\
        from .b import used
        def orphan():
            return orphan()
        def _private():
            return 1
        class Kept:
            pass
        def main(x: Kept):
            return used(x)
        """)
    b = "def used(x):\n    return x\n"
    assert unread_definitions([a, b]) == ["main", "orphan"]


def test_every_public_definition_has_a_reader_in_the_package():
    modules = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unread_definitions(modules) == sorted(UNCALLED_EXPORTS)


TRANSLATION_CONSTRUCTOR = "_translation_action"
FAMILY_CONSTRUCTORS = (TRANSLATION_CONSTRUCTOR, "_free_action", "_permutation_action")


def calls_outside(source: str, allowed, matches) -> list[str]:
    """Every call that matches(call), except inside the top-level
    functions named in allowed."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name in allowed:
            continue
        found += [f"{ast.unparse(node.func)} (line {node.lineno})" for node in ast.walk(top)
                  if isinstance(node, ast.Call) and matches(node)]
    return found


def translation_action_sites(source: str) -> list[str]:
    """Every call that passes ``translation_vectors=``, except inside
    TRANSLATION_CONSTRUCTOR, which builds every translation action and
    the one move rule they share."""
    return calls_outside(source, (TRANSLATION_CONSTRUCTOR,), lambda call: any(
        kw.arg == "translation_vectors" for kw in call.keywords))


def group_action_sites(source: str) -> list[str]:
    """Every ``GroupAction(...)`` call, except inside FAMILY_CONSTRUCTORS,
    which build every carrier and every word action over it."""
    return calls_outside(source, FAMILY_CONSTRUCTORS, lambda call: (
        ast.unparse(call.func).split(".")[-1] == "GroupAction"))


def test_translation_site_checker_flags_a_second_constructor():
    source = textwrap.dedent("""\
        def _translation_action(name, dimension, vectors):
            return GroupAction(name, len(vectors), translation_vectors=vectors)
        def lattice_action(d):
            return _translation_action("lattice", d, basis(d))
        def shifted(vectors):
            act = GroupAction("shifted", len(vectors), translation_vectors=vectors)
            return dataclasses.replace(act, translation_vectors=())
        """)
    assert translation_action_sites(source) == [
        "GroupAction (line 6)", "dataclasses.replace (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_translation_actions_are_built_by_one_constructor(path):
    assert translation_action_sites(path.read_text(encoding="utf-8")) == []


def test_group_action_site_checker_flags_a_fourth_constructor():
    source = textwrap.dedent("""\
        def _translation_action(name, dimension, vectors):
            return GroupAction(name, len(vectors), translation_vectors=vectors)
        def _free_action(name, words):
            return GroupAction(name, len(words))
        def _permutation_action(name, degree, perms):
            return actions.GroupAction(name, len(perms))
        def word_action(carrier, words):
            return carrier.of_words("words", words) or actions.GroupAction("words", 0)
        class Orbit:
            def action(self):
                return GroupAction("orbit", 1)
        """)
    assert group_action_sites(source) == [
        "actions.GroupAction (line 8)", "GroupAction (line 11)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_group_actions_are_built_by_the_family_constructors(path):
    assert group_action_sites(path.read_text(encoding="utf-8")) == []


def inverse_word_sites(source: str, helper_allowed: bool = False) -> list[str]:
    """Every comprehension that negates the letters of a reversed word
    (``reversed(w)`` or ``w[::-1]``), except inside the top-level function
    ``_inverse`` when ``helper_allowed``."""
    found = []
    for top in ast.parse(source).body:
        if helper_allowed and isinstance(top, ast.FunctionDef) and top.name == "_inverse":
            continue
        found += [f"{ast.unparse(node)} (line {node.lineno})" for node in ast.walk(top)
                  if isinstance(node, (ast.GeneratorExp, ast.ListComp))
                  and isinstance(node.elt, ast.UnaryOp) and isinstance(node.elt.op, ast.USub)
                  and any(ast.unparse(gen.iter).startswith("reversed(")
                          or ast.unparse(gen.iter).endswith("[::-1]") for gen in node.generators)]
    return found


def test_inverse_word_checker_flags_a_second_copy():
    source = textwrap.dedent("""\
        def _inverse(word):
            return tuple(-g for g in reversed(word))
        def build_cover(word):
            return tuple(-g for g in reversed(word))
        class VoltageCover:
            def inverse(self, word):
                return [-c for c in word[::-1]]
        def neither(word):
            return tuple(-g for g in word), tuple(reversed(word))
        """)
    assert inverse_word_sites(source, helper_allowed=True) == [
        "(-g for g in reversed(word)) (line 4)", "[-c for c in word[::-1]] (line 7)"]
    assert inverse_word_sites(source)[0].endswith("(line 2)")


# actions._inverse is the one rule for an inverse word
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_words_are_inverted_by_one_rule(path):
    assert inverse_word_sites(path.read_text(encoding="utf-8"),
                              helper_allowed=path.name == "actions.py") == []


# each argument rule, with the wordings of its checks; a wording may stand
# only inside its own rule
RULE_PHRASES = {
    "_check_int": ("expected an integer", "must be >=", "must be nonnegative",
                   "must be a positive integer"),
    "_check_real": ("expected a real number", "is not a real number", "is not a decimal number",
                    "is not a finite number", "must be finite", "must be positive",
                    "is outside float range"),
    "exact_fraction": ("expected an exact ratio", "as an exact ratio", "is not an exact decimal"),
    "_expect_real": ("expected a decimal string", "must be decimal strings"),
    "_check_nonempty": ("must be nonempty", "at least one", "needs a nonempty", "empty set"),
}

# the module that holds each rule
RULE_MODULES = {"_check_int": "errors.py", "_check_real": "errors.py",
                "exact_fraction": "folner.py", "_expect_real": "scenario.py",
                "_check_nonempty": "errors.py"}


def rule_copies(source: str, rule: str, rule_allowed: bool = False) -> list[str]:
    """Every string holding one of RULE_PHRASES[rule], the wordings of that
    rule's checks, except inside the top-level function `rule` when
    ``rule_allowed``."""
    found = []
    for top in ast.parse(source).body:
        if rule_allowed and isinstance(top, ast.FunctionDef) and top.name == rule:
            continue
        found += [f"{phrase} (line {node.lineno})" for node in ast.walk(top)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  for phrase in RULE_PHRASES[rule] if phrase in node.value]
    return found


def test_integer_rule_checker_flags_a_second_copy():
    source = textwrap.dedent("""\
        def _check_int(value, label):
            raise InputError(f"{label}: expected an integer, got {value!r}")
        def lattice_action(d):
            if d < 1:
                raise InputError(f"lattice dimension must be >= 1, got {d}")
        class Budget:
            def check(self, n):
                \"""n must be nonnegative.\"""
                return "alpha must be a positive integer"
        """)
    assert rule_copies(source, "_check_int", rule_allowed=True) == [
        "must be >= (line 5)", "must be nonnegative (line 8)",
        "must be a positive integer (line 9)"]
    assert rule_copies(source, "_check_int")[0] == "expected an integer (line 2)"


def test_real_rule_checker_flags_a_second_copy():
    source = textwrap.dedent("""\
        def _check_real(value, label):
            raise InputError(f"{label}: must be finite, got {value!r}")
        def stability_interval(tol):
            if not tol > 0:
                raise InputError(f"tolerance must be positive, got {tol}")
        def _check_int(value, label):
            return f"{label} is not a real number"
        """)
    assert rule_copies(source, "_check_real", rule_allowed=True) == [
        "must be positive (line 5)", "is not a real number (line 7)"]
    assert rule_copies(source, "_check_real")[0] == "must be finite (line 2)"


@pytest.mark.parametrize("rule, source, copies", [
    ("exact_fraction", """\
        def exact_fraction(value, label):
            raise InputError(f"{label}: expected an exact ratio, got {value!r}")
        def _expect_fraction(node, path):
            raise InputError(f"{path}: {node!r} is not an exact decimal")
        """, ["is not an exact decimal (line 4)"]),
    ("_expect_real", """\
        def _expect_real(node, path):
            raise InputError(f"{path}: expected a decimal string, got {node!r}")
        def _bare_float(text):
            return _Refused(f"real numbers must be decimal strings, got bare {text}")
        """, ["must be decimal strings (line 4)"]),
], ids=["exact_fraction", "_expect_real"])
def test_ratio_and_decimal_rule_checkers_flag_a_second_copy(rule, source, copies):
    source = textwrap.dedent(source)
    assert rule_copies(source, rule, rule_allowed=True) == copies
    assert rule_copies(source, rule)[0].endswith("(line 2)")


# exact_fraction is the one rule for an exact ratio, and scenario._expect_real
# the one reader of a decimal string
@pytest.mark.parametrize("rule", ["exact_fraction", "_expect_real"])
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_ratios_and_decimal_strings_are_read_by_one_rule(path, rule):
    assert rule_copies(path.read_text(encoding="utf-8"), rule,
                       rule_allowed=path.name == RULE_MODULES[rule]) == []


# errors._check_int is the one rule for an integer argument
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_integers_are_checked_by_one_rule(path):
    assert rule_copies(path.read_text(encoding="utf-8"), "_check_int",
                       rule_allowed=path.name == "errors.py") == []


# errors._check_real is the one rule for a real argument
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_reals_are_checked_by_one_rule(path):
    assert rule_copies(path.read_text(encoding="utf-8"), "_check_real",
                       rule_allowed=path.name == "errors.py") == []


def test_nonempty_rule_checker_flags_a_second_copy():
    # the eight hand-written refusals that the rule replaced, in their own words
    source = textwrap.dedent("""\
        def _check_nonempty(items, label):
            raise InputError(f"{label}: must be nonempty")
        class WeightedGraph:
            def __init__(self, mu, edges):
                raise InputError("a graph needs at least one vertex")
        def _rim_sweep(cover, member_list, alpha):
            raise InputError("cutoff needs a nonempty tile set")
        def boundary(action, members):
            raise InputError("boundary of the empty set is undefined")
        def verify_certificate(action, members, epsilon):
            raise InputError("a Folner set must be nonempty")
        def folner_sequence(action, epsilons):
            raise InputError("at least one epsilon is required")
        def generate_group(generators):
            raise InputError("a permutation group needs at least one generator")
        def free_quotient_lattice_action(vectors):
            raise InputError("at least one generator vector is required")
        def _nonempty_list(parse):
            raise InputError(f"{path}: list must be nonempty")
        """)
    assert rule_copies(source, "_check_nonempty", rule_allowed=True) == [
        "at least one (line 5)", "needs a nonempty (line 7)", "empty set (line 9)",
        "must be nonempty (line 11)", "at least one (line 13)", "at least one (line 15)",
        "at least one (line 17)", "must be nonempty (line 19)"]
    assert rule_copies(source, "_check_nonempty")[0] == "must be nonempty (line 2)"


# errors._check_nonempty is the one rule for a collection that must not be empty
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_emptiness_is_refused_by_one_rule(path):
    assert rule_copies(path.read_text(encoding="utf-8"), "_check_nonempty",
                       rule_allowed=path.name == RULE_MODULES["_check_nonempty"]) == []


# the orders that feed arithmetic, by module: a cover ball's order is every
# window operator's row order, the cutoff's member order is the witness's
# summation order, and the subset enumeration's frontier order decides which
# subsets are examined; every other order is a report's, applied in cli.py
ARITHMETIC_ORDERS = {"geometry.py": ("VoltageCover.sort_key", "VoltageCover.ball", "cutoff"),
                     "folner.py": ("_connected_subsets",)}


def sort_key_reads(source: str, allowed: tuple = ()) -> list[str]:
    """Every read of a ``sort_key`` attribute, except inside the top-level
    functions and methods named in allowed, as ``f`` or ``Class.f``."""
    found = []
    for top in ast.parse(source).body:
        units = ([(f"{top.name}.{getattr(item, 'name', '')}", item) for item in top.body]
                 if isinstance(top, ast.ClassDef) else [(getattr(top, "name", ""), top)])
        found += [f"{name} (line {node.lineno})" for name, unit in units if name not in allowed
                  for node in ast.walk(unit)
                  if isinstance(node, ast.Attribute) and node.attr == "sort_key"
                  and isinstance(node.ctx, ast.Load)]
    return found


def test_sort_order_checker_flags_a_copy():
    source = textwrap.dedent("""\
        class VoltageCover:
            sort_key: object = None
            def sort_key(self, p):
                return (p[0], self.carrier.sort_key(p[1]))
            def tile(self, x):
                return sorted(x, key=self.sort_key)
        def orbit_ball(action, seen):
            return tuple(sorted(seen, key=action.sort_key))
        def cutoff(cover, members, alpha):
            return sorted(members, key=cover.carrier.sort_key)
        ACTION = GroupAction(sort_key=lambda x: x)
        """)
    assert sort_key_reads(source, ("VoltageCover.sort_key", "cutoff")) == [
        "VoltageCover.tile (line 6)", "orbit_ball (line 8)"]
    assert sort_key_reads(source)[0] == "VoltageCover.sort_key (line 4)"


# a report lists points in an order that cli.py applies; the library hands
# back point sets, and sorts only where ARITHMETIC_ORDERS says the order is arithmetic
@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_report_order_is_applied_by_cli_alone(path):
    assert sort_key_reads(path.read_text(encoding="utf-8"),
                          ARITHMETIC_ORDERS.get(path.name, ())) == []


def solver_imports(source: str, top_level_allowed: bool = False) -> list[str]:
    """Every numpy or scipy import, except the module's own top-level import
    statements when ``top_level_allowed``."""
    tree = ast.parse(source)
    found = []
    for top in tree.body:
        if top_level_allowed and isinstance(top, (ast.Import, ast.ImportFrom)):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{name} (line {node.lineno})" for name in names
                      if name.split(".")[0] in SOLVER_PACKAGES]
    return found


def test_solver_checker_flags_imports_below_the_top_level():
    source = textwrap.dedent("""\
        import numpy as np
        from scipy.linalg import eigh
        from .numpy import x
        def solve():
            import scipy.sparse
        class Solver:
            def run(self):
                from numpy import linalg
        if np:
            import scipy
        """)
    assert solver_imports(source, top_level_allowed=True) == [
        "scipy.sparse (line 5)", "numpy (line 8)", "scipy (line 10)"]
    assert solver_imports(source) == [
        "numpy (line 1)", "scipy.linalg (line 2)", "scipy.sparse (line 5)",
        "numpy (line 8)", "scipy (line 10)"]


# numpy and scipy are imported at the top of spectrum.py and nowhere else,
# so coverlab's lazy loading of spectrum is the one boundary before them;
# the test keeps the name it had when spectrum's load_solvers held them
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_solvers_are_imported_only_by_load_solvers(path):
    assert solver_imports(path.read_text(encoding="utf-8"),
                          top_level_allowed=path.name == "spectrum.py") == []


def run_script(*parts: str) -> str:
    """Run the parts of a script in a new interpreter from the repository
    root, with src on PYTHONPATH; return what it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    script = "".join(map(textwrap.dedent, parts))
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_fresh(*parts: str) -> dict:
    """run_script, for a script that prints one JSON object as its last
    line, which is returned."""
    return json.loads(run_script(*parts).splitlines()[-1])


def test_readme_example_prints_its_results():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert run_script(block) == "transferred -1.4916666666666671\n1600 1/20\n"


# the solver modules loaded, and the lazy coverlab modules whose code ran:
# LazyLoader swaps a module's class for types.ModuleType when it runs the
# module, and type() reads no attribute, so the check runs none of them
LOADED = f"""
import json, sys, types
print(json.dumps({{
    "loaded": sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")),
    "ran": [m for m in {LAZY_MODULES!r}
            if type(sys.modules["coverlab." + m]) is types.ModuleType],
}}))
"""
NOTHING_LOADED = {"loaded": [], "ran": []}


def test_importing_the_package_loads_no_solver():
    assert run_fresh("import coverlab, coverlab.cli\n", LOADED) == NOTHING_LOADED


def test_folner_run_loads_no_solver():
    code = """
        import contextlib, io
        from coverlab import cli
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["run", "scenarios/z2_folner.json"]) == 0
        """
    assert run_fresh(code, LOADED) == NOTHING_LOADED


def test_folner_batch_loads_no_solver(tmp_path):
    for name in FOLNER_SCENARIOS:
        shutil.copy(ROOT / "scenarios" / name, tmp_path / name)
    code = f"""
        import contextlib, io
        from coverlab import cli
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["batch", {str(tmp_path)!r}, "--out", {str(tmp_path / "out")!r}]) == 0
        """
    assert run_fresh(code, LOADED) == NOTHING_LOADED
    assert len(list((tmp_path / "out").glob("*.json"))) == len(FOLNER_SCENARIOS)


def test_parsing_a_spectral_scenario_loads_the_solvers():
    code = """
        from coverlab import scenario
        scenario.load_scenario("scenarios/k4_tree_spectrum.json")
        """
    loaded = run_fresh(code, LOADED)
    assert {"scipy.linalg", "scipy.sparse.linalg"} <= set(loaded["loaded"])
    assert loaded["ran"] == list(LAZY_MODULES)


def test_a_solver_patched_before_spectrum_runs_is_the_one_called():
    # LazyLoader re-applies what was set on a module before its code ran,
    # so a tracer may wrap spectrum.eigh before anything has run spectrum
    code = """
        import json, types
        import scipy.linalg
        import coverlab
        s = coverlab.spectrum
        lazy = type(s) is not types.ModuleType
        calls = []

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return scipy.linalg.eigh(*args, **kwargs)

        s.eigh = counting_eigh
        triangle = coverlab.WeightedGraph([1.0] * 3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        coverlab.min_eigenvalue(triangle, [1, -1, 1], 0.5)
        print(json.dumps({"lazy": lazy, "calls": len(calls),
                          "bound": s.eigh is counting_eigh}))
        """
    assert run_fresh(code) == {"lazy": True, "calls": 1, "bound": True}


# every name coverlab/__init__.py exported while it still imported all of
# its modules eagerly, by the module that defines it
PUBLIC_API = {
    "actions": ("CosetDualityReport", "GroupAction", "OrbitGraph", "all_subgroups",
                "boundary", "coset_duality_check", "free_group_action",
                "free_quotient_lattice_action", "finite_permutation_action",
                "generate_group", "lattice_action", "orbit_ball", "word_action"),
    "errors": ("BudgetExceededError", "CoverlabError", "FolnerVerificationError",
               "InequalityViolation", "InputError", "NumericalError"),
    "folner": ("FolnerCertificate", "SearchBudget", "SearchReport", "exact_fraction",
               "folner_sequence", "search_folner", "verify_certificate"),
    "geometry": ("CompactFunction", "CutoffFunction", "VoltageCover", "WeightedGraph",
                 "as_potential", "build_cover", "cover_form_parts",
                 "cutoff"),
    "spectrum": ("CorollaryReport", "SpectralResult", "StabilityInterval", "WindowValue",
                 "corollary_check", "dirichlet_lambda0", "dirichlet_window",
                 "min_eigenvalue", "regular_tree_dirichlet_value", "stability_interval"),
    "transfer": ("CounterexampleReport", "EasyDirectionReport", "IntervalComparisonReport",
                 "TransferOutcome", "WitnessReport", "build_witness", "counterexample_check",
                 "easy_direction_check", "interval_comparison", "required_ratio",
                 "transfer_negativity"),
}


def test_every_public_name_resolves_to_its_definition():
    assert sum(map(len, PUBLIC_API.values())) == 55
    code = f"""
        import json, sys
        import coverlab
        print(json.dumps([f"{{module}}.{{name}}"
                          for module, names in {PUBLIC_API!r}.items() for name in names
                          if getattr(coverlab, name, None)
                          is not getattr(sys.modules["coverlab." + module], name)]))
        """
    assert run_fresh(code) == []


TRIANGLE = """
import coverlab
triangle = coverlab.WeightedGraph([1.0] * 3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
cover = coverlab.build_cover(triangle, coverlab.lattice_action(1), {(0, 1): (1,)})
"""

FIRST_CALLS = {
    "min_eigenvalue": "coverlab.min_eigenvalue(triangle, [1, -1, 1], 0.5).lambda_min",
    "dirichlet_window": "coverlab.dirichlet_window(cover, 2, [1, -1, 1], 0.5).value",
    "stability_interval": "coverlab.stability_interval(triangle, [1, -2, 1]).upper",
    "corollary_check": "coverlab.corollary_check(triangle, [1, -2, 1]).interval.upper",
    "regular_tree_dirichlet_value": "coverlab.regular_tree_dirichlet_value(3, 5)",
}


@pytest.mark.parametrize("name", sorted(FIRST_CALLS))
def test_spectral_entry_point_works_as_the_first_call(name):
    # the fresh interpreter has loaded no solver when the call runs
    code = f"""
        import json
        print(json.dumps({{"value": {FIRST_CALLS[name]}}}))
        """
    scope = {}
    exec(TRIANGLE, scope)
    assert run_fresh(TRIANGLE, code)["value"] == eval(FIRST_CALLS[name], scope)
