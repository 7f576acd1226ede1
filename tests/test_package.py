"""The package's export list and its declared Python floor."""
import ast
import pathlib
import re

import ssnorm


def test_export_list_resolves_without_duplicates():
    assert len(ssnorm.__all__) == len(set(ssnorm.__all__))
    missing = [name for name in ssnorm.__all__ if not hasattr(ssnorm, name)]
    assert missing == []
    namespace = {}
    exec("from ssnorm import *", namespace)
    assert set(ssnorm.__all__) <= set(namespace)


def test_sources_parse_at_the_declared_python_floor():
    # Syntax only: library APIs newer than the floor are not caught here.
    root = pathlib.Path(__file__).resolve().parent.parent
    text = (root / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python\s*=\s*">=3\.(\d+)"', text, re.M)
    assert floor is not None
    sources = sorted((root / "src" / "ssnorm").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=(3, int(floor.group(1))))


def test_only_errors_checks_numbers():
    # check_integer and check_real in errors.py are the one rule for what
    # counts as an integer or a real number, so no other module reads the
    # numbers ABCs.
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "ssnorm"
    importers = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "numbers" in names:
                importers.append(path.name)
    assert importers == ["errors.py"]
