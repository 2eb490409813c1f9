"""Module layout: which modules of the package each module imports.

Imports are read from each module's source with `ast`, so an import under
`if TYPE_CHECKING:` or inside a function counts as much as one at the top.
"""

import ast
from pathlib import Path

import pytest

import bioaffect
from bioaffect import errors

PACKAGE = Path(bioaffect.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def package_imports(source: str) -> set:
    """The package modules that `source` imports anywhere ("__init__" for
    a name taken from the package itself)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("bioaffect.")]
            found.update(n.split(".")[1] for n in names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.split(".")[0] == "bioaffect":
                module = node.module.partition(".")[2]
            elif node.level == 1:
                module = node.module or ""
            else:
                continue
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(a.name if a.name in MODULES else "__init__" for a in node.names)
    return found


def imports_of(name: str) -> set:
    return package_imports((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def test_the_parser_sees_every_form_of_import():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import bioaffect.tensor\n"
        "from bioaffect.files import read_json\n"
        "from . import __version__, bmmn\n"
        "if TYPE_CHECKING:\n"
        "    from .session_io import StoredFace\n"
        "def f():\n"
        "    from .signals import Channel\n"
    )
    assert package_imports(source) == {"tensor", "files", "__init__", "bmmn", "session_io",
                                       "signals"}


@pytest.mark.parametrize("name", MODULES)
def test_every_import_names_a_module_of_the_package(name):
    assert imports_of(name) <= set(MODULES)


def test_errors_imports_no_package_module_and_defines_only_exceptions():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    assert imports_of("errors") == set()
    docstring, *body = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert body and all(isinstance(node, ast.ClassDef) for node in body)
    for node in body:
        assert issubclass(getattr(errors, node.name), Exception), node.name


def test_signals_does_not_import_session_io():
    assert "session_io" not in imports_of("signals")


def test_no_module_imports_itself_through_others():
    graph = {name: imports_of(name) for name in MODULES}
    done, path = set(), []

    def visit(name):
        assert name not in path, " -> ".join(path + [name])
        if name not in done:
            path.append(name)
            for other in sorted(graph[name]):
                visit(other)
            path.pop()
            done.add(name)

    for name in MODULES:
        visit(name)
