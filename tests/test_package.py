"""The public API: every exported name resolves, and importing the CLI
stays light."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cubix

SRC = Path(__file__).resolve().parent.parent / "src"

# loaded by dataclasses (directly or through inspect); the package's record
# classes are plain classes so that no CLI run pays for them
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_every_exported_name_resolves():
    missing = [name for name in cubix.__all__ if not hasattr(cubix, name)]
    assert not missing, f"cubix.__all__ names missing attributes: {missing}"


def test_importing_the_cli_loads_no_heavy_module():
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import cubix.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "cubix.cli" in loaded
    assert [name for name in HEAVY if name in loaded] == []


def test_no_module_guards_an_invariant_with_assert():
    # ``python -O`` strips asserts, and a bare AssertionError escapes the
    # exit codes; a broken invariant raises ``InvariantError`` (exit 4)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "cubix").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imported_names(path):
    """(line, part) for every dotted part of a module an import in ``path``
    names, and every name it imports; function level imports count too."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            parts = [part for alias in node.names for part in alias.name.split(".")]
        else:
            continue
        yield from ((node.lineno, part) for part in parts)


def test_realizations_import_nothing_of_the_engine():
    # the direct complexes are an oracle of the engine, so they may share the
    # word differential but no orbit, quotient, module or group code
    engine = {"cubical_complex", "OrbitComplexBuilder", "operator_complex"}
    engine |= {"modules", "perm", "harrison", "suites"}
    path = SRC / "cubix" / "realizations.py"
    found = [f"line {line}: {part}" for line, part in _imported_names(path) if part in engine]
    assert found == []


def test_freelie_imports_nothing_of_the_package_but_linalg():
    # modules, harrison and the realizations all read freelie's helpers, so
    # an engine import there would reach the oracle through it
    package = {path.stem for path in (SRC / "cubix").glob("*.py")} - {"linalg"}
    path = SRC / "cubix" / "freelie.py"
    found = [f"line {line}: {part}" for line, part in _imported_names(path) if part in package]
    assert found == []


def test_naive_mode_names_nothing_of_the_orbit_engine():
    # naive mode is an oracle of the orbit and quotient routes, so its
    # functions may share the word differential and linear algebra but no
    # orbit, transfer or coinvariant code
    engine = {"OrbitComplexBuilder", "orbit_decomposition", "sort_transfer", "CoinvariantBasis"}
    path = SRC / "cubix" / "cubical.py"
    naive = [
        node
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_naive")
    ]
    assert sorted(node.name for node in naive) == ["_naive_basis", "_naive_complex"]
    found = [
        f"{func.name} line {node.lineno}: {name}"
        for func in naive
        for node in ast.walk(func)
        for name in (getattr(node, "id", None), getattr(node, "attr", None))
        if name in engine
    ]
    assert found == []


def test_every_module_level_definition_is_used():
    # a function or class that nothing else in the package references by
    # name, attribute or import, and that perfbench does not name, is dead;
    # necklace_representatives is read by the tests alone, and deleting it
    # would only move it into them
    used, defined = set(), []
    for path in sorted((SRC / "cubix").glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            own = getattr(top, "name", None)
            if own is not None:
                defined.append((path.stem, own))
            for node in ast.walk(top):
                if isinstance(node, ast.alias):
                    names = node.name.split(".")
                else:
                    names = [getattr(node, "id", None) or getattr(node, "attr", None)]
                used.update(name for name in names if name not in (None, own))
    bench = SRC.parent / "perfbench"
    named = {word for path in bench.glob("*.py") for word in re.findall(r"\w+", path.read_text())}
    dead = [f"{stem}.{name}" for stem, name in defined if name not in used | named]
    assert dead == ["realizations.necklace_representatives"]


def _imports_from(path):
    """(line, module, name) for every name a ``from module import name`` in
    ``path`` imports, and (line, module, None) for every ``import module``;
    function level imports count too, and a relative module keeps its last
    part only."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            yield from ((node.lineno, module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[-1], None) for alias in node.names)


def test_no_module_but_linalg_imports_a_private_name_of_linalg():
    # a matrix is integer numerators over one den, and only linalg knows
    # how that form is kept; its private helpers stay its own
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted((SRC / "cubix").glob("*.py"))
        if path.stem != "linalg"
        for line, module, name in _imports_from(path)
        if module == "linalg" and name and name.startswith("_")
    ]
    assert found == []


@pytest.mark.parametrize("stem", ["cubical", "harrison"])
def test_the_engine_imports_nothing_from_fractions(stem):
    # every matrix carries its own den, so the orbit engine and the
    # Harrison operators build no Fraction
    path = SRC / "cubix" / f"{stem}.py"
    found = [f"line {line}" for line, module, _ in _imports_from(path) if module == "fractions"]
    assert found == []
