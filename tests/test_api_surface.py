"""Every function and method of the library, and every name a module
assigns at its top level, has a reader that is not a test: code in
src/rdslink outside its own definition, the benchmark in perfbench/, or
the public names in rdslink.__all__.  A helper only the tests call, or
a constant that outlived its function, is dead weight.  Arithmetic on the
entries of a uint16 Cayley table must widen them first.  The library
uses json through its documented interface alone, and checks integer
entries through ff alone."""

import ast
from collections import Counter
from pathlib import Path

import rdslink

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "rdslink").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def _references(tree, kinds=("name", "attribute", "string")):
    """Names a tree uses, of the kinds given: identifiers and imported
    names ("name"), attributes ("attribute"), and the dotted parts of
    strings ("string"; perfbench binds its spans by strings such as
    "FiniteGroup.from_elements")."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            kind, names = "name", [node.id]
        elif isinstance(node, ast.Attribute):
            kind, names = "attribute", [node.attr]
        elif isinstance(node, ast.alias):
            kind, names = "name", [node.name.rsplit(".", 1)[-1]]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            kind, names = "string", node.value.split(".")
        else:
            continue
        if kind in kinds:
            out.update(names)
    return out


def _definitions(tree):
    """(name, node, is_method) for every function and method of a
    module, and for every name its top-level statements assign, node
    being the statement."""
    methods = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, id(node) in methods
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node, False


def _unreferenced():
    """A method is read only as an attribute (x.name) or through a
    perfbench string, so a plain name that happens to match it, such as
    a parameter, is no reader."""
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    benchmark = [ast.parse(path.read_text()) for path in BENCHMARK]
    kinds = {False: ("name", "attribute", "string"),
             True: ("attribute",)}
    in_sources = {method: Counter() for method in kinds}
    elsewhere = {False: set(rdslink.__all__), True: set()}
    for method, found in kinds.items():
        for tree in trees.values():
            in_sources[method] += _references(tree, found)
        for tree in benchmark:
            elsewhere[method] |= set(_references(
                tree, found + ("string",)))
    out = []
    for module, tree in trees.items():
        for name, node, method in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue  # read by the language
            # a call from inside its own body, or the assignment's own
            # target, is no reader
            outside = (in_sources[method][name]
                       - _references(node, kinds[method])[name])
            if outside <= 0 and name not in elsewhere[method]:
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


ARITHMETIC = (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod,
              ast.LShift, ast.Pow)


def _is_table(node, tables):
    """X.table, or a name bound to one (or called table)."""
    return (isinstance(node, ast.Attribute) and node.attr == "table") or (
        isinstance(node, ast.Name) and node.id in tables)


def _unwidened(node, tables):
    """Whether node holds uint16 table entries: a table, a subscript or
    transpose of one, or a method's result on one other than
    astype(np.int64)."""
    if _is_table(node, tables):
        return True
    if isinstance(node, ast.Subscript) or (
            isinstance(node, ast.Attribute) and node.attr == "T"):
        return _unwidened(node.value, tables)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        widened = node.func.attr == "astype" and \
            [ast.unparse(a) for a in node.args] == ["np.int64"]
        return not widened and _unwidened(node.func.value, tables)
    return False


def _table_names(fn):
    """table, and the names fn binds to a table, alone or in a tuple
    assignment such as t1, t2 = G1.table, G2.table."""
    names = {"table"}
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and \
                    isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            names |= {t.id for t, value in pairs
                      if isinstance(t, ast.Name) and _is_table(value, names)}
    return names


def _unwidened_arithmetic():
    """Arithmetic on table entries that are not widened first: uint16
    wraps silently past 65,535, so t[a, b] * v must read
    t[a, b].astype(np.int64) * v or int(t[a, b]) * v."""
    out = set()
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            tables = _table_names(fn)
            for node in ast.walk(fn):
                if isinstance(node, ast.BinOp):
                    operands = (node.left, node.right)
                elif isinstance(node, ast.AugAssign):
                    operands = (node.target, node.value)
                else:
                    continue
                if isinstance(node.op, ARITHMETIC) and any(
                        _unwidened(x, tables) for x in operands):
                    out.add(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return sorted(out)


def test_table_entries_are_widened_before_arithmetic():
    assert _unwidened_arithmetic() == []


JSON_INTERNALS = ("json.decoder", "json.scanner")


def _json_internals():
    """Every attribute or import in src/rdslink that names json.decoder
    or json.scanner, the modules behind json's documented interface."""
    out = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            out += [f"{path.name}:{node.lineno} {name}" for name in names
                    if name.startswith(JSON_INTERNALS)]
    return out


def test_json_is_used_through_its_documented_interface():
    assert _json_internals() == []


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _is_int_in_loops():
    """Every is_int call outside ff.py that sits in a loop or a
    comprehension: checking a sequence entry by entry is the job of
    ff.integers and ff.indices, so the policy stays in one module."""
    out = set()
    for path in SOURCES:
        if path.name == "ff.py":
            continue
        for loop in ast.walk(ast.parse(path.read_text())):
            if not isinstance(loop, LOOPS):
                continue
            for node in ast.walk(loop):
                if isinstance(node, ast.Call) and ast.unparse(
                        node.func).rsplit(".", 1)[-1] == "is_int":
                    out.add(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return sorted(out)


def test_entries_are_checked_by_ff_alone():
    assert _is_int_in_loops() == []


def _per_element_sorts():
    """Every sorted() in src/rdslink over a comprehension or generator
    whose element subscripts with the comprehension's own loop
    variable, such as sorted(int(perm[g]) for g in X): an image or a
    translate of a set is one gather and one np.sort."""
    out = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and ast.unparse(node.func)
                    == "sorted" and node.args and isinstance(
                        node.args[0], (ast.ListComp, ast.GeneratorExp))):
                continue
            comp = node.args[0]
            loop = {leaf.id for gen in comp.generators
                    for leaf in ast.walk(gen.target)
                    if isinstance(leaf, ast.Name)}
            if any(isinstance(sub, ast.Subscript) and any(
                    isinstance(leaf, ast.Name) and leaf.id in loop
                    for leaf in ast.walk(sub.slice))
                    for sub in ast.walk(comp.elt)):
                out.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return out


def test_no_set_is_sorted_element_by_element():
    assert _per_element_sorts() == []


def _unique_calls():
    """Every np.unique or numpy.unique in src/rdslink: its first call in
    a process imports numpy.ma, and a sort with a neighbour comparison,
    a bincount or a set does each of its jobs here."""
    out = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "unique" \
                    and ast.unparse(node.value) in ("np", "numpy"):
                out.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    return out


def test_no_np_unique_in_the_library():
    assert _unique_calls() == []
