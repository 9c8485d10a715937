"""The package surface: ``import fpaths`` loads no submodule, each
export is imported from its home submodule on first use, and no module
uses another module's private names."""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fpaths

#: Each export's home submodule, in ``__all__`` order.
HOMES = {
    "counting": ("a_joint", "a_marginal", "a_total", "f_refined",
                 "multinomial", "sequence", "series_coeff"),
    "errors": ("BelowAxis", "FormViolation", "FpathsError", "GuardExceeded",
               "InexactDivision", "NotAvoider", "NotClosed", "ParseError",
               "PrefixViolation", "RunFormViolation", "StepNotInF",
               "TripleDescent", "WeightOnLeafOrRoot", "WeightOutOfRange"),
    "families": ("FAMILIES", "TAGS", "parse_object"),
    "fpath_core": ("FPath", "FStep", "StatTriple", "fpath_decompose",
                   "fpath_direct_sum", "fpath_stats", "gen_fpaths",
                   "involution_phi_F", "validate_fpath"),
    "verify_harness": ("VerifyReport", "run_all"),
}

#: What a count needs: the package, the closed forms and their errors.
COUNTING_MODULES = ["fpaths", "fpaths.counting", "fpaths.errors"]


def fresh(code: str):
    """Run ``code`` in an isolated interpreter that finds this package,
    and return what the JSON it prints last decodes to."""
    src = os.path.dirname(os.path.dirname(fpaths.__file__))
    proc = subprocess.run(
        [sys.executable, "-I", "-c",
         f"import json, sys; sys.path.insert(0, {src!r})\n{code}"],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


#: The package's loaded modules, as an expression and printed.
MODULES = "sorted(m for m in sys.modules if m.partition('.')[0] == 'fpaths')"
LOADED = f"print(json.dumps({MODULES}))"


#: A call of every count that reads no sequence, after ``fpaths`` is bound.
OTHER_COUNTS = ("fpaths.a_marginal(3, h=1); fpaths.a_joint(3, 1, 1, 1); "
                "fpaths.sequence(3); fpaths.series_coeff(2, 3); "
                "fpaths.counting.comb0(3, 1)")


@pytest.mark.parametrize("code", ["import fpaths.counting",
                                  "import fpaths; fpaths.a_total(3)"])
def test_a_count_loads_only_the_counting_modules(code):
    assert fresh(f"{code}\n{OTHER_COUNTS}\n{LOADED}") == COUNTING_MODULES


@pytest.mark.parametrize("call, value", [
    ("fpaths.multinomial(5, [2, 3])", 10),
    ("fpaths.f_refined(2, 1, 0, 0, 1, 1)", 2),
])
def test_a_count_of_a_sequence_loads_fpath_core_on_its_first_call(call,
                                                                  value):
    """``multinomial`` reads its parts with ``fpath_core.int_entries``,
    imported when it is first called, and ``f_refined`` calls it."""
    assert fresh("import fpaths.counting\n"
                 f"before = {MODULES}\n"
                 f"value = {call}\n"
                 f"print(json.dumps([before, value, {MODULES}]))") == [
        COUNTING_MODULES, value, [*COUNTING_MODULES, "fpaths.fpath_core"]]


def test_a_path_check_loads_only_fpath_core_and_errors():
    assert fresh("import fpaths; fpaths.validate_fpath([(0, 1)])\n"
                 f"{LOADED}") == ["fpaths", "fpaths.errors",
                                  "fpaths.fpath_core"]


def test_a_map_loads_neither_the_counts_nor_the_harness():
    """``map`` runs on the families alone: the console script imports
    ``counting`` and ``verify_harness`` only in the commands that use
    them."""
    loaded = fresh("import io\n"
                   "from fpaths.cli import cmd_dispatch\n"
                   "sys.stdin = io.StringIO('2 3 1\\n')\n"
                   "code = cmd_dispatch(['map', '--from', 'perm', "
                   "'--to', 'inv-j'])\n"
                   "assert code == 0, code\n"
                   f"{LOADED}")
    assert "fpaths.families" in loaded
    assert "fpaths.counting" not in loaded
    assert "fpaths.verify_harness" not in loaded


def test_a_bare_import_loads_no_submodule():
    assert fresh(f"import fpaths\n{LOADED}") == ["fpaths"]


def test_all_lists_every_export_in_order():
    assert fpaths.__all__ == [name for names in HOMES.values()
                              for name in names] + ["__version__"]


def test_every_export_is_the_object_of_its_home_submodule():
    for home, names in HOMES.items():
        module = importlib.import_module(f"fpaths.{home}")
        for name in names:
            assert getattr(fpaths, name) is getattr(module, name), name


def test_star_import_and_dir_reach_every_export_in_a_fresh_process():
    star, listed = fresh(
        "import fpaths\n"
        "listed = dir(fpaths)\n"
        "ns = {}\n"
        "exec('from fpaths import *', ns)\n"
        "print(json.dumps([sorted(set(ns) - {'__builtins__'}), listed]))")
    assert star == sorted(fpaths.__all__)
    assert set(fpaths.__all__) <= set(listed)
    assert "__all__" in listed


def test_a_submodule_resolves_after_a_bare_import():
    assert fresh("import fpaths\n"
                 "print(json.dumps([fpaths.counting.a_total(3), "
                 "fpaths.families.TAGS[1]]))") == [21, "schroder"]


@pytest.mark.parametrize("name", ["nope", "__wrapped__", "", "counting.x"])
def test_an_unknown_name_raises_the_standard_attribute_error(name):
    with pytest.raises(AttributeError) as caught:
        getattr(fpaths, name)
    assert str(caught.value) == f"module 'fpaths' has no attribute {name!r}"
    assert not hasattr(fpaths, name)


def test_a_missing_module_inside_a_submodule_is_not_an_attribute_error():
    # ``families`` imports ``weighted_trees``; blocking that import must
    # surface as the import error it is, by either route to ``families``.
    assert fresh(
        "sys.modules['fpaths.weighted_trees'] = None\n"
        "import fpaths\n"
        "seen = []\n"
        "for name in ('families', 'FAMILIES'):\n"
        "    try:\n"
        "        getattr(fpaths, name)\n"
        "    except ModuleNotFoundError as exc:\n"
        "        seen.append(exc.name)\n"
        "print(json.dumps(seen))") == ["fpaths.weighted_trees"] * 2


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_uses(source: str) -> list[str]:
    """Each ``line: name`` in ``source`` that reaches a private name of a
    package module: ``from .m import _x`` (or ``from fpaths.m``), and
    ``m._x`` where ``from . import m`` or ``import fpaths.m as m`` bound
    ``m``."""
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = set()
    found = []  # (line, column, name)
    for node in imports:
        if isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname
                           and alias.name.startswith("fpaths."))
            continue
        target = node.module or ""
        if not (node.level or target.partition(".")[0] == "fpaths"):
            continue
        for alias in node.names:
            if _private(alias.name):
                found.append((node.lineno, node.col_offset, alias.name))
            elif node.level == 1 and not target:
                modules.add(alias.asname or alias.name)
    found += [(node.lineno, node.col_offset, f"{node.value.id}.{node.attr}")
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and _private(node.attr)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    return [f"{line}: {name}" for line, _, name in sorted(found)]


def test_the_private_name_finder_sees_both_forms():
    assert private_uses(
        "from __future__ import annotations\n"
        "from . import pattern_perms, errors as e\n"
        "from .inversion_seqs import _scan, gen_invseq\n"
        "import fpaths.counting as c\n"
        "pattern_perms._check_avoider(p); e.__name__; e._hidden\n"
        "c._guard; self._own; pattern_perms.phi_S\n"
    ) == ["3: _scan", "5: pattern_perms._check_avoider", "5: e._hidden",
          "6: c._guard"]


def test_no_module_uses_another_modules_private_names():
    package = Path(fpaths.__file__).parent
    found = {path.name: uses for path in sorted(package.glob("*.py"))
             if (uses := private_uses(path.read_text(encoding="utf-8")))}
    assert found == {}


def raisers(source: str) -> dict[str, set[str]]:
    """Each error class that a ``raise`` in ``source`` names, mapped to
    the top-level functions whose bodies raise it."""
    found = {}
    for func in ast.parse(source).body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)  # a call's callee
                if isinstance(exc, ast.Name):
                    found.setdefault(exc.id, set()).add(func.name)
    return found


def test_the_counts_check_divisions_and_ceilings_in_one_place_each():
    """In ``counting``, a division is checked exact by ``_exact_div`` and
    a ceiling by ``_capped``; only ``a_joint``, which runs once per cell
    of a joint table, inlines both."""
    source = Path(fpaths.__file__).with_name("counting.py")
    found = raisers(source.read_text(encoding="utf-8"))
    assert found["InexactDivision"] == {"_exact_div", "a_joint"}
    assert found["GuardExceeded"] == {"_capped", "a_joint"}
