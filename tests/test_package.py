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


def _definition_lines(tree) -> dict:
    """Top-level name -> (first, last) line of its def or class."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            spans[node.name] = (first, node.end_lineno)
    return spans


def _exports(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def test_every_exported_name_has_a_caller():
    # a public name must occur as an identifier in the package outside its
    # own definition (an import counts; the __all__ strings, docstrings and
    # comments do not), or in the benchmark, whose tracer names functions
    # in strings
    sources = {p: p.read_text() for p in sorted(SRC.glob("*.py"))}
    trees = {p: ast.parse(text) for p, text in sources.items()}
    spans = {p: _definition_lines(tree) for p, tree in trees.items()}
    bench = "\n".join(p.read_text() for p in sorted(BENCH.glob("*.py")))
    # each file tokenized once: identifier -> the lines it occurs on
    lines = {p: {} for p in sources}
    for path, text in sources.items():
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                lines[path].setdefault(tok.string, []).append(tok.start[0])

    def read_in(path, name):
        own = spans[path].get(name)
        return any(own is None or not own[0] <= line <= own[1]
                   for line in lines[path].get(name, ()))

    unused = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        for name in _exports(tree)
        if not name.startswith("__")
        and not any(read_in(q, name) for q in sources)
        and not re.search(rf"\b{name}\b", bench)
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
