"""No code in ``src/songrec/`` that only the tests run.

Every function, class and method defined in the package must be named
somewhere in ``src/`` or ``perfbench/`` other than at its own definition:
as a name, as an attribute, or as a string constant (the benchmark
wraps functions by the names it looks up). A helper that only a test
needs belongs in ``tests/``, or is built there from the kernels that run.
Every name a package module assigns at its top level must be read by
that module, or be imported, taken as an attribute or named in a string
constant by another file of ``src/`` or ``perfbench/``. Every import in the
package runs when its module loads, none inside a function. The package
runs on numpy alone: importing the CLI loads no scipy module. Only
``data.py`` encodes or decodes the ``user << 32 | song`` key. Only
``cli.py`` compares a setting with a family name: every other rule of a
family sits on its class.
"""

import ast
import os
import subprocess
import sys

import songrec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "songrec")
SEARCHED = (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"))

ALLOWLIST = {
    # the finite-difference reference every backward-pass test compares
    # against; moving it to tests/ would not make the code smaller
    "grad_check",
}


def _python_files(top):
    for dirpath, _, names in os.walk(top):
        yield from (os.path.join(dirpath, n) for n in sorted(names) if n.endswith(".py"))


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _definitions():
    """(file:line, name) of every function, class and method the package
    defines; dunder methods run implicitly and are left out."""
    for path in _python_files(PACKAGE):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield f"{os.path.basename(path)}:{node.lineno}", node.name


def _referenced_names(skip=None, qualified=False):
    """Every name, attribute and dotted part of a string constant used in
    ``src/`` or ``perfbench/`` outside the file ``skip``; if ``qualified``,
    imported names in place of the bare names."""
    used = set()
    for top in SEARCHED:
        for path in _python_files(top):
            if path == skip:
                continue
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name) and not qualified:
                    used.add(node.id)
                elif isinstance(node, ast.ImportFrom) and qualified:
                    used.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.update(node.value.split("."))
    return used


def _module_level_names(tree):
    """(line, name) of every name ``tree`` assigns in its top-level statements."""
    for stmt in tree.body:
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    yield node.lineno, node.id


def test_every_definition_is_named_outside_the_tests():
    used = _referenced_names()
    unused = [f"{where} {name}" for where, name in _definitions()
              if name not in used and name not in ALLOWLIST]
    assert unused == []


def test_every_module_level_name_is_read():
    unread = []
    for path in _python_files(PACKAGE):
        tree = _parse(path)
        own = {node.id for node in ast.walk(tree)
               if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        # a bare name elsewhere may be that file's own, as cli's logger is
        elsewhere = _referenced_names(skip=path, qualified=True)
        unread += [f"{os.path.basename(path)}:{line} {name}"
                   for line, name in _module_level_names(tree)
                   if name not in own and name not in elsewhere]
    assert unread == []


def test_no_import_inside_a_function():
    late = []
    for path in _python_files(PACKAGE):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                late += [f"{os.path.basename(path)}:{inner.lineno}" for inner in ast.walk(node)
                         if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert late == []


def test_grad_check_is_still_test_only():
    # once src/ or perfbench/ calls it, its allowlist entry goes
    assert "grad_check" in {name for _, name in _definitions()}
    assert "grad_check" not in _referenced_names()


def test_the_cli_loads_no_scipy():
    path = os.pathsep.join(filter(None, (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))))
    code = "import sys, songrec.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_only_data_shifts_or_masks_the_user_song_key():
    # the (user, song) key ``user << 32 | song`` is built and taken apart
    # in data.py alone; every other module reads SessionTable.plays()
    found = []
    for path in _python_files(PACKAGE):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        found += [(os.path.basename(path), op) for op in ("<< 32", ">> 32", "0xFFFFFFFF")
                  if op in text]
    assert {name for name, _ in found} == {"data.py"}, found


def _family_names(node):
    """The family names ``node`` spells out as a string constant or a
    tuple of them, or an empty set."""
    parts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    names = {p.value for p in parts if isinstance(p, ast.Constant)}
    return names if names and names <= set(songrec.FAMILIES) else set()


def test_only_the_cli_compares_with_a_family_name():
    # cli.fit_model and cmd_sweep pick a trainer by family; a rule of one
    # family is a row of that family class's BOUNDS or DTYPES instead
    found = []
    for path in _python_files(PACKAGE):
        if os.path.basename(path) == "cli.py":
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Compare) and any(map(_family_names,
                                                          [node.left, *node.comparators])):
                found.append(f"{os.path.basename(path)}:{node.lineno}")
    assert found == []
