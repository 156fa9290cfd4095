"""Every public function, class and method of the package has a reader.

A name counts as read when the package itself, the benchmark harness or
the acceptance suite refers to it.  A method counts as read as any name,
attribute or import of its name.  A top-level function or class counts
only as a loaded name, an import, or an attribute of an imported package
module (``bs.run``): a dataclass field or an attribute of some other
object that shares its name does not read it.  Unit tests do not count,
so a name that only they reach fails here, and there is no list of
exceptions.
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


def referenced_names() -> tuple:
    """(top-level reads, method reads): the bare names that count as a read
    of a top-level function or class, and of a method."""
    stems = {path.stem for path in MODULES}
    top, loose = set(), set()
    for path in READERS:
        tree = ast.parse(path.read_text())
        # the names an import binds to a package module, as ``bs`` or ra_sim
        modules = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for a in node.names if a.name.rsplit(".", 1)[-1] in stems}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                loose.add(node.id)
                if isinstance(node.ctx, ast.Load):
                    top.add(node.id)
            elif isinstance(node, ast.Attribute):
                loose.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    top.add(node.attr)
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
                top.add(name)
                loose.add(name)
    return top, loose


def test_scan_sees_the_package():
    names = public_names()
    assert {"ra_sim.run", "backhaul_sim.BackhaulConfig",
            "ra_sim.LatencyCdf.plateau", "experiments.main"} <= set(names)


def test_every_public_name_has_a_reader():
    top, loose = referenced_names()
    # module.name is top-level, module.Class.method a method
    unread = sorted(q for q, name in public_names().items()
                    if name not in (top if q.count(".") == 1 else loose))
    assert not unread, f"read only by unit tests, or by nothing: {unread}"
