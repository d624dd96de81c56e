"""Every name the package exports has a job: code in ``src/`` uses it, or
the README, an acceptance criterion or the benchmark names it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "contactkit"
READERS = ("README.md", "tests/test_acceptance.py", "bench/probes.py", "bench/workloads.py")

# exported names whose job lies outside those places, each with its reason
ALLOWED = {
    "holonomic_jet": "the tier-1 oracle of the sampled verifiers and the defect form",
    "load_section": "reads dumped solver sections back, for the tests and the frame history",
}


def exported_names() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def used_in(tree: ast.AST, name: str) -> bool:
    """Whether code in ``tree`` reads ``name``, as a name or an attribute,
    outside the function or class that defines it."""
    if isinstance(tree, (ast.FunctionDef, ast.ClassDef)) and tree.name == name:
        return False
    if isinstance(tree, ast.Name) and tree.id == name:
        return True
    if isinstance(tree, ast.Attribute) and tree.attr == name:
        return True
    return any(used_in(child, name) for child in ast.iter_child_nodes(tree))


def test_every_export_has_a_job():
    modules = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"]
    readers = "\n".join((ROOT / path).read_text() for path in READERS)
    idle = {name for name in exported_names()
            if not any(used_in(tree, name) for tree in modules)
            and not re.search(rf"\b{name}\b", readers)}
    assert idle == set(ALLOWED), f"exports with no job: {sorted(idle - set(ALLOWED))}"
