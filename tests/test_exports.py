"""The package's public names all resolve, and each one has a caller."""

import ast
from pathlib import Path

import polytoep

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem for p in (ROOT / "src" / "polytoep").glob("*.py")}

# exported with no caller in the program, each for a stated reader
UNCALLED = {
    "apply_fast": "acceptance criterion 8 checks the fast matvec",
    "position": "the loop oracles look up block positions with it",
}


def test_every_exported_name_resolves():
    missing = [name for name in polytoep.__all__ if not hasattr(polytoep, name)]
    assert missing == []
    assert len(set(polytoep.__all__)) == len(polytoep.__all__)


def _from_polytoep(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "polytoep"


def _referenced_names(paths) -> set[str]:
    """Names the given sources take from polytoep.

    Counted: names imported from polytoep or one of its modules (relative
    imports included), attributes read off a polytoep module, the function
    names in a `TRACED = {span: (module, function)}` table, and names read
    in the module that defines them at its top level (a report class built
    where it is returned).  An attribute of anything else, such as
    `args.identity`, and a string of the same spelling do not count.
    """
    out: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        modules = set()  # local names bound to polytoep or one of its modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _from_polytoep(node):
                out.update(alias.name for alias in node.names)
                modules.update(alias.asname or alias.name for alias in node.names if alias.name in MODULES)
            elif isinstance(node, ast.Import):
                modules.update(alias.asname or alias.name for alias in node.names if alias.name == "polytoep")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in defined and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                out.add(node.attr)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
                out.update(function for _, function in ast.literal_eval(node.value).values())
    return out


def test_every_exported_name_has_a_caller():
    sources = [p for p in (ROOT / "src" / "polytoep").glob("*.py") if p.name != "__init__.py"]
    sources += list((ROOT / "benchmark").glob("*.py"))
    used = _referenced_names(sources)
    uncalled = sorted(name for name in polytoep.__all__ if name not in used and name not in UNCALLED)
    assert uncalled == []
    assert not set(UNCALLED) & used, "an allowlisted name has a caller now: drop it from UNCALLED"


def test_only_polytoep_references_count(tmp_path):
    source = tmp_path / "caller.py"
    source.write_text(
        "from polytoep import io\n"
        "from .operators import toeplitz\n"
        "def helper():\n"
        "    return 0\n"
        "def main(args):\n"
        "    return args.identity, args.compress, io.dumps, toeplitz, helper()\n"
        "TRACED = {'operators.operator_norm': ('operators', 'operator_norm')}\n"
        "NOTE = 'shift'\n"
    )
    assert _referenced_names([source]) == {"io", "toeplitz", "dumps", "helper", "operator_norm"}
