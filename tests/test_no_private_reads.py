"""Library modules and scripts use only the public names of other polyscribe
modules."""

import ast
from pathlib import Path

import polyscribe

PACKAGE = Path(polyscribe.__file__).parent
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _source_module(node: ast.ImportFrom) -> str | None:
    """The polyscribe module an import reads from ('' for the package), or
    None for an import from outside polyscribe."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "polyscribe":
        return node.module.partition(".")[2]
    return None


def _dotted(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def private_reads(text: str, filename: str) -> list[str]:
    """Each read of another polyscribe module's private name, as
    'module.name:line'."""
    tree = ast.parse(text, filename)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _source_module(node)
            if source is None:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{source or 'polyscribe'}.{alias.name}:{node.lineno}")
                elif source == "":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "polyscribe":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = _dotted(node.value)
            if base is not None and (base in modules or base.split(".")[0] == "polyscribe"):
                found.append(f"{base}.{node.attr}:{node.lineno}")
    return found


def test_sources_read_no_private_name_of_another_module():
    assert PACKAGE / "cli.py" in SOURCES and len(list(SCRIPTS.glob("*.py"))) >= 3
    found = {path.name: private_reads(path.read_text(), str(path)) for path in SOURCES}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_private_reads_are_found():
    assert private_reads("from . import hrs\nhrs._dual_edge_to_primal(m)\n", "x") == [
        "hrs._dual_edge_to_primal:2"]
    assert private_reads("from polyscribe.maps import _build_dual\n", "x") == [
        "maps._build_dual:1"]
    assert private_reads("import polyscribe.hrs\npolyscribe.hrs._face(m)\n", "x") == [
        "polyscribe.hrs._face:2"]
    assert private_reads("from . import caps as c\nc._kernel\nm._dual\n", "x") == [
        "c._kernel:2"]
