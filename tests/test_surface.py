"""Every public function, class and method of the package has a reader.

A name counts as read when the package itself, the benchmark harness or
the acceptance suite refers to it: as a name, as an attribute or in an
import.  Unit tests do not count, so a name that only they reach fails
here, and there is no list of exceptions.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "leoiot").glob("*.py"))
READERS = [*MODULES, *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def public_names() -> dict:
    """``module.name`` or ``module.Class.method`` -> the bare name, for the
    public top-level functions and classes and their public methods."""
    out = {}
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                out[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        out[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return out


def referenced_names() -> set:
    seen = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.alias):
                seen.add(node.name.rsplit(".", 1)[-1])
    return seen


def test_scan_sees_the_package():
    names = public_names()
    assert {"ra_sim.run", "backhaul_sim.BackhaulConfig",
            "ra_sim.LatencyCdf.plateau", "experiments.main"} <= set(names)


def test_every_public_name_has_a_reader():
    seen = referenced_names()
    unread = sorted(q for q, name in public_names().items()
                    if name not in seen)
    assert not unread, f"read only by unit tests, or by nothing: {unread}"
