"""The library keeps only what a command, the API or the benchmark uses.

A top-level function or class in ``src/limitcanon`` must be exported by
``limitcanon.__init__``, named in the README, imported by
``perfbench/workloads.py``, or referenced by module-level code or by
another top-level name that is itself kept.  Reachability is transitive,
so a helper whose only caller is a test-only function fails as well.  A
module's own ``__all__`` is not a root: a helper could list itself there.
Independent checks that only the tests use belong in ``tests/oracles.py``,
and they, like the Fourier-Motzkin solver in ``tests/fm.py``, import only
public names of the library, so they never share its private helpers.
"""

import ast
import re
from pathlib import Path

import limitcanon

PACKAGE = Path(limitcanon.__file__).resolve().parent
ROOT = PACKAGE.parents[1]


def _referenced(node):
    """Every name the node reads, as a bare name or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _library_imports(path):
    tree = ast.parse(path.read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("limitcanon")
        for alias in node.names
    }


def unused_top_level_names():
    defined = {}  # top-level name -> modules defining it
    reads = {}  # top-level name -> names its bodies read
    roots = set(limitcanon.__all__) | _library_imports(ROOT / "perfbench" / "workloads.py")
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, set()).add(path.stem)
                reads.setdefault(node.name, set()).update(_referenced(node) - {node.name})
            else:
                roots |= _referenced(node)
    readme = (ROOT / "README.md").read_text()
    roots |= {name for name in defined if re.search(rf"\b{re.escape(name)}\b", readme)}
    kept, todo = set(), [name for name in roots if name in defined]
    while todo:
        name = todo.pop()
        if name not in kept:
            kept.add(name)
            todo.extend(n for n in reads[name] if n in defined)
    return sorted(f"{m}.{name}" for name, modules in defined.items() if name not in kept for m in modules)


def test_every_library_name_has_a_production_user():
    assert unused_top_level_names() == []


def test_oracles_import_only_public_library_names():
    # the oracles stay independent of the library's private helpers
    tests = Path(__file__).resolve().parent
    for name in ("oracles.py", "fm.py"):
        private = sorted(n for n in _library_imports(tests / name) if n.startswith("_"))
        assert private == [], (name, private)
