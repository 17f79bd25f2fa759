"""Every module-level name in src/heronet is used somewhere in the package.

A function, class or constant defined at the top of a module counts as used
when some other top-level statement of the package loads it by name, as a
bare name or as an attribute (`seeds.EPOCH`, `ad.softmax`).  Loads inside the
definition itself do not count, so a function that only calls itself is
still dead.  The benchmark wraps the functions listed in
perfbench/tracer.LAYERS by name, so those count as used too.  Code that
only tests call belongs in the tests.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heronet"
sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import tracer  # noqa: E402
finally:
    sys.path.remove(str(ROOT / "perfbench"))


def _defined(node) -> list:
    """Names a top-level statement binds as a function, class or constant."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _loaded(node) -> set:
    """Every name a statement reads, bare or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unused_names(package: Path, also_used=()) -> list:
    """`module.name` of each top-level definition nothing else loads."""
    statements = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        statements += [(path.stem, node) for node in tree.body]
    loads = [_loaded(node) for _, node in statements]
    used = set(also_used)
    unused = []
    for i, (module, node) in enumerate(statements):
        for name in _defined(node):
            if name.startswith("__") or name in used:
                continue
            if not any(name in got for j, got in enumerate(loads) if j != i):
                unused.append(f"{module}.{name}")
    return unused


def test_every_top_level_name_is_used():
    traced = {attr.split(".")[0] for _, attr in tracer.LAYERS}
    assert unused_names(PACKAGE, traced) == []


def test_guard_flags_an_unused_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n\n\n"
        "def used():\n    return LIMIT\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "class Shell:\n    pass\n")
    (tmp_path / "b.py").write_text(
        "from . import a\n\n\ndef main():\n    return a.used()\n")
    assert unused_names(tmp_path) == ["a.recursive", "a.Shell", "b.main"]
    assert unused_names(tmp_path, {"main", "Shell"}) == ["a.recursive"]
