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


def test_only_full_allocates_full_size_outputs():
    # _full in layer.py is the one rule for a full-size output's memory, so
    # no other function of the layer allocates an array of x's shape or of
    # its grouped view.
    path = pathlib.Path(__file__).resolve().parent.parent / "src" / "ssnorm" / "layer.py"
    allocators = []
    for func in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and node.args and \
                    ast.unparse(node.func) in ("np.empty", "np.zeros", "np.ones", "np.full") \
                    and ast.unparse(node.args[0]) in ("view", "x.shape"):
                allocators.append(func.name)
    assert allocators == ["_full"]
