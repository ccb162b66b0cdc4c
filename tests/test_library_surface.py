"""No library code that only the tests call.

Every top-level function and class of the package must be used by another
package module, used in its own module outside its own definition, or be
exported in `zonoforge.__all__`.  Every public method of a top-level class
(a name without a leading underscore) must be used by another module or in
its own module outside its definition; exporting the class does not count.
A use is a name or an attribute in the parsed source (stdlib `ast`), read
by name alone; an import alone is not one, and neither is a call from
inside the definition itself.  Every name a module imports must be used in
that module or listed in its `__all__`, so no stale import outlives the
code that read it.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zonoforge"

# HPoly constructors and readers with no library caller, kept until the
# HPoly arithmetic moves into the tests as an oracle.
ALLOWED = [("poly", "HPoly.coeff_vector"), ("poly", "HPoly.linear_form"), ("poly", "HPoly.monomial")]


def used_names(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Names and attribute names used in tree, outside the subtree skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def exported(init: ast.Module) -> set:
    for node in init.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_definitions(package: Path) -> list:
    """(module, name) of each top-level def or class, and (module,
    "Class.method") of each public method of a top-level class, that
    nothing uses."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    public = exported(trees["__init__"])
    found = []
    for module, tree in trees.items():
        elsewhere = set().union(*(used_names(t) for m, t in trees.items() if m != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not (node.name in public or node.name in elsewhere or node.name in used_names(tree, node)):
                found.append((module, node.name))
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) or item.name.startswith("_"):
                    continue
                if item.name not in elsewhere and item.name not in used_names(tree, item):
                    found.append((module, f"{node.name}.{item.name}"))
    return found


def unused_imports(package: Path) -> list:
    """(module, name) of each name a module binds by an import (from
    `__future__` aside) that it neither uses nor lists in its `__all__`."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = used_names(tree) | exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append((path.stem, name))
    return found


def test_every_library_definition_has_a_library_use():
    # the allow-list must name exactly what is unused, so it cannot go stale
    assert sorted(unused_definitions(PACKAGE)) == ALLOWED


def test_the_guard_flags_a_definition_that_only_itself_uses(tmp_path):
    (tmp_path / "__init__.py").write_text('from .a import shown\n__all__ = ["shown"]\n')
    (tmp_path / "a.py").write_text(
        "def shown():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def lonely(k):\n    return lonely(k - 1) if k else 0\n\n\n"
        "class Spare:\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import Spare\n")
    assert unused_definitions(tmp_path) == [("a", "lonely"), ("a", "Spare")]


def test_the_guard_flags_a_public_method_only_the_tests_could_call(tmp_path):
    (tmp_path / "__init__.py").write_text('from .a import Shown\n__all__ = ["Shown"]\n')
    (tmp_path / "a.py").write_text(
        "class Shown:\n"
        "    def used(self):\n        return self._private() + self.recursive(0)\n\n"
        "    def recursive(self, k):\n        return self.recursive(k - 1) if k else 0\n\n"
        "    def spare(self):\n        return self.spare()\n\n"
        "    def _private(self):\n        return 1\n\n"
        "    def __len__(self):\n        return 0\n"
    )
    (tmp_path / "b.py").write_text("from .a import Shown\n\nVALUE = Shown().used()\n")
    assert unused_definitions(tmp_path) == [("a", "Shown.spare")]


def test_every_import_is_used_or_exported():
    assert unused_imports(PACKAGE) == []


def test_the_guard_flags_an_import_nothing_reads(tmp_path):
    (tmp_path / "__init__.py").write_text(
        'from .a import shown, stale\nfrom .b import spare\n__all__ = ["shown", "spare"]\n'
    )
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\nimport json as js\nfrom math import gcd, lcm\n\n\n"
        "def shown():\n    return gcd(2, 4) + len(os.path.sep)\n\n\n"
        "def stale():\n    return 0\n"
    )
    (tmp_path / "b.py").write_text("from .a import shown\n\n\ndef spare():\n    return 1\n")
    assert unused_imports(tmp_path) == [("__init__", "stale"), ("a", "js"), ("a", "lcm"), ("b", "shown")]
