"""Rules for the package's source, checked on one parse of each file.

- the runtime imports only the standard library;
- no module-level import goes unused;
- every private name has a reader ("no code path without a caller");
- every public method and property of a class has a reader;
- every named choice is checked by ``errors._one_of``, the one place that
  raises "unknown ...".

Each rule lists its offenders as ``path:line: what``, so a failure names them.
One more rule runs the package instead of parsing it: importing it, or its
command line, loads none of the slow-to-import modules in ``SLOW_IMPORTS``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "cflevels").glob("*.py"))
# a public member may be read from anywhere in src/ or perfbench/
READERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
TREES = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
         for path in dict.fromkeys(PACKAGE + READERS)}


def where(path: Path, node) -> str:
    return f"{path.relative_to(ROOT)}:{node.lineno}"


def attributes_read(paths) -> set[str]:
    return {node.attr for path in paths for node in ast.walk(TREES[path])
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}


def test_runtime_imports_only_the_standard_library():
    bad = []
    for path in PACKAGE:
        for node in ast.walk(TREES[path]):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [f"{where(path, node)}: imports {name}" for name in names
                    if (top := name.partition(".")[0]) != "cflevels"
                    and top not in sys.stdlib_module_names]
    assert bad == []


def test_no_unused_imports():
    # __init__.py imports to re-export
    bad = []
    for path in PACKAGE:
        if path.name == "__init__.py":
            continue
        tree = TREES[path]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            bad += [f"{where(path, node)}: {name} is imported but never used"
                    for name in bound if name not in used]
    assert bad == []


def test_every_private_name_is_referenced():
    # every module-level _name (function, class or assignment) and every
    # _method must be read by some Name or Attribute somewhere in the package
    read = attributes_read(PACKAGE) | {
        node.id for path in PACKAGE for node in ast.walk(TREES[path])
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    bad = []
    for path in PACKAGE:
        defined = []  # nodes that define a private module-level name or method
        for node in TREES[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(t, t.id) for target in targets
                            for t in ast.walk(target) if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [(f, f.name) for f in node.body
                            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        bad += [f"{where(path, node)}: {name} is private and never referenced"
                for node, name in defined
                if name.startswith("_") and not name.endswith("__") and name not in read]
    assert bad == []


def test_every_public_member_has_a_reader():
    # read as an attribute in src/ or perfbench/, or documented as `.name`
    # in README.md
    read = attributes_read(READERS) | set(
        re.findall(r"\.([A-Za-z_]\w*)", (ROOT / "README.md").read_text(encoding="utf-8")))
    bad = []
    for path in PACKAGE:
        for cls in ast.walk(TREES[path]):
            if isinstance(cls, ast.ClassDef):
                bad += [f"{where(path, f)}: {cls.name}.{f.name} is public and never read"
                        for f in cls.body
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not f.name.startswith("_") and f.name not in read]
    assert bad == []


def test_only_one_of_rejects_an_unknown_name():
    # a ValueError whose message starts "unknown " names a choice outside a
    # set; errors._one_of raises it, so each choice is checked the same way
    def message_head(node):
        if isinstance(node, ast.JoinedStr) and node.values:
            node = node.values[0]
        return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""

    errors = ROOT / "src" / "cflevels" / "errors.py"
    exempt = {(errors, line) for node in TREES[errors].body
              if isinstance(node, ast.FunctionDef) and node.name == "_one_of"
              for line in range(node.lineno, node.end_lineno + 1)}
    bad = []
    for path in PACKAGE:
        for node in ast.walk(TREES[path]):
            if isinstance(node, ast.Raise) and isinstance(call := node.exc, ast.Call) \
                    and isinstance(call.func, ast.Name) and call.func.id == "ValueError" \
                    and call.args and message_head(call.args[0]).startswith("unknown ") \
                    and (path, node.lineno) not in exempt:
                bad.append(f"{where(path, node)}: raises an unknown-name ValueError; "
                           "use errors._one_of")
    assert bad == []


# each costs start-up time that every CLI run pays: dataclasses pulls in
# inspect, ast, dis and tokenize; logging pulls in traceback and string
SLOW_IMPORTS = {"dataclasses", "inspect", "logging"}


def test_import_loads_no_slow_module():
    # a fresh interpreter, compared with what it held before the import, so
    # a module that site loads at start-up is not counted against the package
    code = ("import sys; before = set(sys.modules); import cflevels, cflevels.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    added = set(proc.stdout.split())
    assert "cflevels.cli" in added
    assert added & SLOW_IMPORTS == set()
