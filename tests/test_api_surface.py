"""Every public function and class of the package has a caller in the package.

The lab computes each quantity along one path; a public name that only tests
call is a second path beside it. A name counts as called when the package
refers to it outside its own definition: as a bare name in its own module,
as an attribute of a module imported with ``from . import``, or through
``from .module import``. KEEP names the exceptions and why each stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "breatherlab"

KEEP = {
    "functionals.apply_operator_direction":
        "extended-precision operator reference of guarantees c04 and c06",
    "closed_forms.b0_direction": "the closed-form inverse direction that guarantee c06 checks",
    "grid.read_binary": "the only reader of the *_checkpoints/*.field files evolve writes",
}


def _referenced(module: str, tree: ast.Module) -> set[str]:
    """'module.name' for every package name this module refers to, leaving
    out the references inside that name's own top-level definition."""
    aliases = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for alias in node.names}
    found = set()
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id != owner:
                found.add(f"{module}.{node.id}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                found.add(f"{aliases[node.value.id]}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_every_public_name_has_a_caller_in_the_package():
    public, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        public.update(f"{path.stem}.{node.name}" for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and not node.name.startswith("_"))
        referenced |= _referenced(path.stem, tree)
    assert sorted(public - referenced) == sorted(KEEP)
