"""Checks on the package source itself."""

import ast
from pathlib import Path

import coxtoric


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so every check in the package
    # must raise explicitly
    files = sorted(Path(coxtoric.__file__).parent.glob("*.py"))
    assert len(files) > 5
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _imported_names(tree):
    """(line, bound name) of each import in the module, except __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_every_import_is_used():
    # __init__.py imports names only to re-export them
    files = sorted(p for p in Path(coxtoric.__file__).parent.glob("*.py")
                   if p.name != "__init__.py")
    unused = []
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for line, name in _imported_names(tree)
                   if name not in used]
    assert unused == []


def test_no_module_imports_a_private_name_of_another():
    # helpers such as intlin's _column_hermite and _replay stay
    # behind their module's public functions
    files = sorted(Path(coxtoric.__file__).parent.glob("*.py"))
    private = [f"{path.name}:{node.lineno} {alias.name}" for path in files
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _imported_packages(path):
    """Top-level package of each module that the file imports."""
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    return {name.split(".")[0] for name in imported}


def test_cli_parses_no_scalar():
    # groups.MonomialMatrix alone reads the "p/q" scalar grammar; the CLI
    # passes the strings through
    path = Path(coxtoric.__file__).parent / "cli.py"
    assert _imported_packages(path) & {"re", "fractions"} == set()


def test_oracles_import_nothing_from_the_package():
    # the oracles check the package, so they must share no code path with it
    assert "coxtoric" not in _imported_packages(Path(__file__).parent / "oracles.py")


def test_no_module_memoises_by_value():
    # every memo is bound to an instance (a cached_property), never to the
    # arguments' values: two equal objects built separately compute separately
    files = sorted(Path(coxtoric.__file__).parent.glob("*.py"))
    banned = {"cache", "lru_cache"}
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                          if a.name in banned]
            elif (isinstance(node, ast.Attribute) and node.attr in banned
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                found.append(f"{path.name}:{node.lineno} functools.{node.attr}")
    assert found == []


def test_every_private_helper_is_called():
    # a module-level helper that no code of the package references, other
    # than its own body, is dead
    files = sorted(Path(coxtoric.__file__).parent.glob("*.py"))
    helpers, used = [], set()
    for path in files:
        for top in ast.parse(path.read_text(), str(path)).body:
            own = getattr(top, "name", None)
            if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and own.startswith("_") and not own.startswith("__")):
                helpers.append((own, f"{path.name}:{top.lineno}"))
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else own)
                if name != own:
                    used.add(name)
    assert len(helpers) > 30
    assert [f"{where} {name}" for name, where in helpers if name not in used] == []


def test_cli_writes_in_one_place():
    # each handler returns its payload; only main writes it and picks the
    # exit code, so no handler may call _emit or read --json
    path = Path(coxtoric.__file__).parent / "cli.py"
    found = []
    for top in ast.parse(path.read_text(), str(path)).body:
        own = getattr(top, "name", "module")
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == "_emit" and own != "main":
                found.append(f"{own}:{node.lineno} _emit")
            elif (isinstance(node, ast.Attribute) and node.attr == "json"
                  and isinstance(node.value, ast.Name) and node.value.id == "args"
                  and own.startswith("_cmd_")):
                found.append(f"{own}:{node.lineno} args.json")
    assert found == []


# public names that no code of the package, scripts/ or perfbench/ calls,
# each with its reason: kept as library API, or traced by perfbench until
# the benchmark rework (ROADMAP item 1) lets it go
UNCALLED_PUBLIC_NAMES = {
    "acts_freely": "library",
    "degree_of_monomial": "library",
    "Fan.convex_support_witness": "library",
    "IntMatrix.identity": "library",
    "Cone.intersect": "traced, item 1",
    "Cone.is_face_of": "traced, item 1",
    "is_map_of_fans": "traced, item 1",
    "invert_unimodular": "traced, item 1",
}


def _public_definitions(tree):
    """(qualified name, node) of each public module-level function or class
    and each public method of a module-level class."""
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
            continue
        yield top.name, top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield f"{top.name}.{node.name}", node


def test_every_public_name_has_a_caller():
    # a public name referenced only by its own body, by tests or by the
    # re-exports of __init__.py is dead unless it is allowlisted
    package = Path(coxtoric.__file__).parent
    root = package.parent.parent
    callers = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    callers += sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in callers}
    references = [(node.id if isinstance(node, ast.Name) else node.attr, node)
                  for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))]
    definitions = [d for path, tree in trees.items() if path.parent == package
                   for d in _public_definitions(tree)]
    uncalled = []
    for qualified, definition in definitions:
        own = {id(node) for node in ast.walk(definition)}
        name = qualified.rpartition(".")[2]
        if not any(ref == name and id(node) not in own for ref, node in references):
            uncalled.append(qualified)
    assert len(definitions) > 100
    assert sorted(set(uncalled) - set(UNCALLED_PUBLIC_NAMES)) == []
    assert sorted(set(UNCALLED_PUBLIC_NAMES) - set(uncalled)) == []
