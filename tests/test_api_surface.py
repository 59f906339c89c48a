"""Every function and method of the library has a caller that is not a
test: code in src/rdslink outside its own definition, the benchmark in
perfbench/, or the public names in rdslink.__all__.  A helper only the
tests call is dead weight the tests keep alive."""

import ast
from collections import Counter
from pathlib import Path

import rdslink

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "rdslink").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def _references(tree):
    """Names a tree uses: identifiers, attributes, imported names, and
    the dotted parts of strings (perfbench binds its spans by strings
    such as "FiniteGroup.from_elements")."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def _unreferenced():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    in_sources = Counter()
    for tree in trees.values():
        in_sources += _references(tree)
    elsewhere = set(rdslink.__all__)
    for path in BENCHMARK:
        elsewhere |= set(_references(ast.parse(path.read_text())))
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the language
            # a call from inside its own body is no caller
            outside = in_sources[name] - _references(node)[name]
            if outside <= 0 and name not in elsewhere:
                out.append(f"{module}:{node.lineno} {name}")
    return out


def test_every_function_has_a_non_test_caller():
    assert _unreferenced() == []


def _dead_locals():
    """Names a function stores and never reads, nested functions
    included; x += 1 reads x, and _ is the name for a value unused."""
    out = []
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stored, read = {}, set()
            for node in ast.walk(fn):
                if isinstance(node, ast.AugAssign) and \
                        isinstance(node.target, ast.Name):
                    read.add(node.target.id)
                elif isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Store):
                        stored.setdefault(node.id, node.lineno)
                    else:
                        read.add(node.id)
            out += [f"{path.name}:{line} {fn.name}: {name}"
                    for name, line in stored.items()
                    if name not in read and name != "_"]
    return out


def test_every_local_is_read():
    assert _dead_locals() == []
