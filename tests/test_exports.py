"""The package's public names all resolve, and each one is reachable from an entry point."""

import ast
from pathlib import Path

import polytoep

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polytoep"
ENTRY_POINTS = {("cli", "main"), ("cli", "entrypoint")}

# exported with no caller in the program, each for a stated reader
UNCALLED = {
    "apply_fast": "acceptance criterion 8 checks the fast matvec",
}


def test_every_exported_name_resolves():
    missing = [name for name in polytoep.__all__ if not hasattr(polytoep, name)]
    assert missing == []
    assert len(set(polytoep.__all__)) == len(polytoep.__all__)


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement binds: a function, a class or assigned names."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


class _Source:
    """One source file: its top-level definitions and the package names its local names stand for.

    `modules` maps a local name to a package module ("__init__" for the
    package itself), `names` maps a local name to the (module, name) it was
    imported as.
    """

    def __init__(self, path: Path, package_modules: set[str], package: str):
        tree = ast.parse(path.read_text(), filename=str(path))
        self.defs = {name: stmt for stmt in tree.body for name in _defined(stmt)}
        self.modules: dict[str, str] = {}
        self.names: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".")
                if node.level == 0 and parts[0] != package:
                    continue
                target = parts[-1] if node.module and (node.level or len(parts) > 1) else "__init__"
                for alias in node.names:
                    local = alias.asname or alias.name
                    if target == "__init__" and alias.name in package_modules:
                        self.modules[local] = alias.name
                    else:
                        self.names[local] = (target, alias.name)
            elif isinstance(node, ast.Import):
                self.modules.update((alias.asname or alias.name, "__init__") for alias in node.names if alias.name == package)

    def references(self, tree: ast.AST):
        """(module, name) pairs read in a subtree: own top-level names, imported names, attributes of imported modules.

        `TRACED = {span: (module, function)}` tables name functions too.  An
        attribute of anything else, such as `args.identity`, and a string of
        the same spelling are not references.
        """
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in self.names:
                    yield self.names[node.id]
                elif node.id in self.defs:
                    yield None, node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in self.modules:
                yield self.modules[node.value.id], node.attr
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
                yield from ast.literal_eval(node.value).values()


def reachable(package: Path, entry_points, callers=()) -> set[tuple[str, str]]:
    """Top-level definitions (module, name) of a package reachable from its entry points.

    The roots are the entry points and every package name that the caller
    files reference.  A definition reaches every definition its statement
    references, decorators and methods included; an imported name stands
    for the definition it was imported from.
    """
    stems = {p.stem for p in package.glob("*.py")}
    sources = {stem: _Source(package / f"{stem}.py", stems, package.name) for stem in stems}

    def resolve(module, name, seen=()):
        source = sources.get(module)
        if source is None or (module, name) in seen:
            return None
        if name in source.defs:
            return module, name
        if name in source.names:
            return resolve(*source.names[name], seen + ((module, name),))
        return None

    def refs(source: _Source, module: str | None, tree: ast.AST):
        for target, name in source.references(tree):
            found = resolve(module if target is None else target, name)
            if found is not None:
                yield found

    todo = [found for found in (resolve(*e) for e in entry_points) if found is not None]
    for path in callers:
        todo.extend(refs(_Source(path, stems, package.name), None, ast.parse(path.read_text())))
    seen: set[tuple[str, str]] = set()
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            module, name = key
            todo.extend(refs(sources[module], module, sources[module].defs[name]))
    return seen


def test_every_exported_name_has_a_caller():
    live = reachable(PACKAGE, ENTRY_POINTS, sorted((ROOT / "benchmark").glob("*.py")))
    init = _Source(PACKAGE / "__init__.py", set(), "polytoep")
    exported = {name: init.names[name] for name in polytoep.__all__}
    uncalled = sorted(name for name, key in exported.items() if key not in live and name not in UNCALLED)
    assert uncalled == []
    assert not {name for name in UNCALLED if exported[name] in live}, "an allowlisted name has a caller now: drop it from UNCALLED"


def _package(tmp_path, **modules) -> Path:
    package = tmp_path / "pkg"
    package.mkdir()
    for stem, text in modules.items():
        (package / f"{stem}.py").write_text(text)
    return package


def test_only_polytoep_references_count(tmp_path):
    package = _package(
        tmp_path,
        io="def dumps():\n    return 0\n",
        operators="def toeplitz():\n    return 0\ndef operator_norm():\n    return 0\ndef compress():\n    return 0\n"
        "def shift():\n    return 0\ndef identity():\n    return 0\n",
        cli="from . import io\n"
        "from .operators import toeplitz\n"
        "def helper():\n"
        "    return 0\n"
        "def unused():\n"
        "    return 0\n"
        "def main(args):\n"
        "    return args.identity, args.compress, io.dumps, toeplitz, helper()\n"
        "NOTE = 'shift'\n",
    )
    bench = tmp_path / "bench.py"
    bench.write_text("TRACED = {'operators.operator_norm': ('operators', 'operator_norm')}\n")
    assert reachable(package, {("cli", "main")}, [bench]) == {
        ("cli", "main"), ("cli", "helper"), ("io", "dumps"), ("operators", "toeplitz"), ("operators", "operator_norm"),
    }


def test_a_dead_caller_keeps_nothing_alive(tmp_path):
    # Report is read only by dead(), which nothing reachable calls, and
    # _shared is read by both: only the live reader keeps a name alive.
    package = _package(
        tmp_path,
        mod="class Report:\n    pass\n"
        "def _shared():\n    return 0\n"
        "def dead():\n    return Report(), _shared()\n"
        "def main():\n    return _shared()\n",
    )
    assert reachable(package, {("mod", "main")}) == {("mod", "main"), ("mod", "_shared")}
