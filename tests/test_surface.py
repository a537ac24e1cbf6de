"""The package exports only what the program or the benchmark runs.

Every name in a module's ``__all__`` must be referred to, as a name or an
attribute, by some module of the package or some file under ``bench/``.
Code that only the tests call belongs in ``tests/reference.py``.  An
``import`` or an ``__all__`` entry is not a reference, so a re-export in
``alphaineq/__init__.py`` does not keep a name alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "alphaineq"

# exported names that nothing calls yet, each with the reason it stays
ALLOWED = {
    "check_generalized_convex": "ROADMAP item 1: the ghh rows' hypothesis gate will call it",
    "composed_moment": "bench/spans.py traces it by name; the program calls composed_moments",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _references(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _modules() -> list[Path]:
    return sorted(PACKAGE.glob("*.py"))


def test_every_export_has_a_caller():
    used = _references(_modules()) | _references(sorted((ROOT / "bench").rglob("*.py")))
    unused = {name: path.stem for path in _modules() for name in _exports(_tree(path)) if name not in used}
    assert sorted(unused) == sorted(ALLOWED), (
        f"exported but never called outside the tests (name: module): {unused}; move them to tests/reference.py "
        f"or add each to ALLOWED with the reason it stays"
    )


def test_the_package_reexports_only_module_exports():
    # a name that __init__ imports but its module does not export would escape the check above
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exports = _exports(_tree(PACKAGE / f"{node.module}.py"))
            assert {alias.name for alias in node.names} <= set(exports), node.module
