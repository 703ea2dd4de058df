import ast
import hashlib
import importlib
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import pytest

import siglearn

SRC = Path(siglearn.__file__).resolve().parent
BENCH = SRC.parents[1] / "perfbench"

MODULES = ["siglearn"] + [
    f"siglearn.{m.name}" for m in pkgutil.iter_modules(siglearn.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _span(node) -> tuple:
    """(first, last) line of a def or class, its decorators included."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno


def _definition_lines(tree) -> dict:
    """Top-level name -> (first, last) line of its def or class."""
    return {
        node.name: _span(node)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def _public_methods(tree) -> list:
    """(qualified name, name, span) of each public method of a public class."""
    return [
        (f"{cls.name}.{node.name}", node.name, _span(node))
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _exports(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


@pytest.fixture(scope="module")
def package():
    """Each module's tree, the lines each identifier occurs on per module,
    and the benchmark's text; each file is tokenized once."""
    sources = {p: p.read_text() for p in sorted(SRC.glob("*.py"))}
    lines = {p: {} for p in sources}
    for path, text in sources.items():
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                lines[path].setdefault(tok.string, []).append(tok.start[0])
    trees = {p: ast.parse(text) for p, text in sources.items()}
    bench = "\n".join(p.read_text() for p in sorted(BENCH.glob("*.py")))
    return trees, lines, bench


def _has_caller(package, name, own) -> bool:
    """Whether ``name`` occurs as an identifier in the package outside the
    (first, last) span that ``own`` gives per module, or in the benchmark."""
    _, lines, bench = package
    return any(
        path not in own or not own[path][0] <= line <= own[path][1]
        for path, names in lines.items()
        for line in names.get(name, ())
    ) or bool(re.search(rf"\b{name}\b", bench))


def test_every_exported_name_has_a_caller(package):
    # a public name must occur as an identifier in the package outside its
    # own definition (an import counts; the __all__ strings, docstrings and
    # comments do not), or in the benchmark, whose tracer names functions
    # in strings
    trees = package[0]
    spans = {p: _definition_lines(tree) for p, tree in trees.items()}
    unused = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name in _exports(tree)
        if not name.startswith("__")
        and not _has_caller(package, name, {q: s[name] for q, s in spans.items() if name in s})
    ]
    assert not unused


def test_every_public_method_has_a_caller(package):
    # the same rule for each public method or property of a public class:
    # its name must occur outside its own definition, so a method that
    # only tests call is flagged
    unused = [
        f"{path.stem}.{qualified}"
        for path, tree in package[0].items()
        for qualified, name, span in _public_methods(tree)
        if not _has_caller(package, name, {path: span})
    ]
    assert not unused


def test_ziggurat_tables_ship_with_the_package():
    # the vectorised noise pass reads numpy's ziggurat tables from package
    # data; without them it would fall back to the per-path loop unseen
    from importlib.resources import files

    from siglearn import jumpdiff

    raw = files("siglearn").joinpath(jumpdiff._ZIGGURAT_FILE).read_bytes()
    assert len(raw) == 4096
    assert hashlib.sha256(raw).hexdigest() == jumpdiff._ZIGGURAT_SHA256
    assert jumpdiff._load_tables() is not None
