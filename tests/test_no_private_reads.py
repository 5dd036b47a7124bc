"""The command line uses only the public names of the library modules."""

import ast
from pathlib import Path

import polyscribe

CLI = Path(polyscribe.__file__).parent / "cli.py"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_cli_reads_no_private_name_of_another_module():
    tree = ast.parse(CLI.read_text(), str(CLI))
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{node.module}.{alias.name}:{node.lineno}")
    assert modules
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}:{node.lineno}")
    assert found == []
