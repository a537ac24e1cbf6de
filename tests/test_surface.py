"""The package holds only what the program or the benchmark runs.

Every name in a module's ``__all__`` must be referred to, as a name or an
attribute, and every public method of an exported class as an attribute,
by some module of the package or some file under ``bench/``.  Every module-level
private name (a function, a class or a constant) must be referred to by
some module of the package.  Code that only the tests call belongs in
``tests/reference.py``.  An ``import``, an ``__all__`` entry or a
definition is not a reference, so a re-export in ``alphaineq/__init__.py``
does not keep a name alive.
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


# public methods of exported classes that nothing calls by name, each with the reason it stays
ALLOWED_METHODS = {
    "MomentFunctional.fit": "bench/spans.py traces it, naming it only as a string",
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
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _attributes(paths) -> set[str]:
    return {node.attr for path in paths for node in ast.walk(_tree(path)) if isinstance(node, ast.Attribute)}


def _modules() -> list[Path]:
    return sorted(PACKAGE.glob("*.py"))


def _bench() -> list[Path]:
    return sorted((ROOT / "bench").rglob("*.py"))


def _private_names(tree: ast.Module) -> list[str]:
    """The module-level private functions, classes and constants that ``tree`` defines, dunders excluded."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


def test_every_export_has_a_caller():
    used = _references(_modules()) | _references(_bench())
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


def test_every_private_name_has_a_caller_in_the_package():
    used = _references(_modules())
    unused = {name: path.stem for path in _modules() for name in _private_names(_tree(path)) if name not in used}
    assert not unused, (
        f"private but never referred to by the package (name: module): {unused}; "
        f"move each that only the tests use to tests/reference.py"
    )


def test_every_public_method_of_an_export_has_a_caller():
    # a method is called as an attribute; a local variable of the same name is no call
    used = _attributes(_modules()) | _attributes(_bench())
    unused = set()
    for path in _modules():
        tree = _tree(path)
        exports = set(_exports(tree))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in exports:
                unused.update(
                    f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_") and item.name not in used
                )
    assert sorted(unused) == sorted(ALLOWED_METHODS), (
        f"public methods never called outside the tests: {sorted(unused)}; move them to tests/reference.py "
        f"or add each to ALLOWED_METHODS with the reason it stays"
    )


def _call_sites(name: str) -> list[tuple[str, str]]:
    """``(module, function)`` of each call of ``name`` in the package; the function is the innermost enclosing one."""
    sites = []

    def visit(node: ast.AST, module: str, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                sites.append((module, function))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, module, inner)

    for path in _modules():
        visit(_tree(path), path.stem, "")
    return sites


def test_one_site_makes_every_row():
    # so a new column is one edit: load_report only reads rows back, and with_fn copies one
    builds = [site for site in _call_sites("IneqReport") if site[1] not in ("load_report", "with_fn")]
    assert builds == [("inequalities", "_build")], builds


def test_one_site_decides_every_row():
    # so a new verdict rule is one edit
    assert _call_sites("_holds") == [("inequalities", "_build")]
