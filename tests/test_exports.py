"""The package's public names all resolve, and each one has a caller."""

import ast
from pathlib import Path

import polytoep

ROOT = Path(__file__).resolve().parents[1]

# exported with no caller in the program, each for a stated reader
UNCALLED = {
    "apply_fast": "acceptance criterion 8 checks the fast matvec",
    "position": "the loop oracles look up block positions with it",
}


def test_every_exported_name_resolves():
    missing = [name for name in polytoep.__all__ if not hasattr(polytoep, name)]
    assert missing == []
    assert len(set(polytoep.__all__)) == len(polytoep.__all__)


def _referenced_names(paths) -> set[str]:
    """Names, attributes and string constants anywhere in the given sources."""
    out: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def test_every_exported_name_has_a_caller():
    sources = [p for p in (ROOT / "src" / "polytoep").glob("*.py") if p.name != "__init__.py"]
    sources += list((ROOT / "benchmark").glob("*.py"))
    used = _referenced_names(sources)
    uncalled = sorted(name for name in polytoep.__all__ if name not in used and name not in UNCALLED)
    assert uncalled == []
    assert not set(UNCALLED) & used, "an allowlisted name has a caller now: drop it from UNCALLED"
