"""Command-line front end: construct the named systems, verify sets from
JSON files, export graphs / developments / structure-constant tensors,
and resolve the (mu, nu) branch by exhaustive computation.

Everything is deterministic; bundles written with --out are byte-stable
across runs for identical inputs.  Exit code 0 iff every certificate in
the run verified.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings

import numpy as np

from . import constructions as cons
from . import groups
from .ff import Q_MAX, Field, FieldError, field_make, integers
from .groups import FiniteGroup, GroupError, Subgroup
from .linked import associated_group, munu_by_sign, verify_linked
from .rds import cayley_adjacency, dev, verify_pds, verify_rds
from .schur import SchurPartition, verify_sring


def _field(q: int) -> Field:
    """GF(q): a FieldError past Q_MAX, decided before any factoring, and
    a ValueError where q is not a prime power."""
    if q > Q_MAX:
        raise FieldError(f"q = {q} exceeds the supported range q <= {Q_MAX}")
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = next(d for d in range(2, q + 1) if q % d == 0)  # a prime
    r = 0
    x = q
    while x % p == 0:
        x //= p
        r += 1
    if x != 1:
        raise ValueError(f"{q} is not a prime power")
    return field_make(p, r)


def _write(out_path, chunks):
    """Write the pieces of text to out_path, or to stdout without one."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _table_chunks(table: np.ndarray, pad: str):
    """A Cayley table (entries 0..v-1) as json.dumps writes the list of
    its entries, row-major, 16 rows to a piece."""
    v = len(table)
    words = np.array([str(i) for i in range(v)], dtype=object)
    sep = "," + pad + "  "
    yield "[" + pad + "  "
    for start in range(0, v, 16):
        if start:
            yield sep
        yield sep.join(words[table[start:start + 16].reshape(-1)].tolist())
    yield pad + "]"


_HELD = json.dumps("\0")  # the text json.dumps writes for a held array


def _json_text(obj):
    """json.dumps(obj, sort_keys=True, indent=2) and a newline, in
    pieces.  Each array (a Cayley table) is held out of the text and
    streamed in its place, indented like its line, so its v^2 entries
    never form one Python list or string."""
    held = []

    def hold(x):
        if not isinstance(x, np.ndarray):
            raise TypeError(f"Object of type {type(x).__name__} "
                            f"is not JSON serializable")
        held.append(x)
        return "\0"

    text = json.dumps(obj, sort_keys=True, indent=2, default=hold)
    # no string the library writes holds a NUL, and a report, which may
    # echo the user's strings, holds no array and is not split
    pieces = text.split(_HELD, len(held))
    for piece, table in zip(pieces, held):
        yield piece
        line = piece[piece.rfind("\n") + 1:]
        yield from _table_chunks(table, "\n" + " " * (
            len(line) - len(line.lstrip(" "))))
    yield pieces[-1]
    yield "\n"


def _dump(obj, out_path):
    _write(out_path, _json_text(obj))


def _group_spec(G: FiniteGroup):
    return {"name": G.name, "order": G.order, "table": G.table,
            "labels": G.labels}


def _labeled(G: FiniteGroup, S):
    return {"indices": [int(g) for g in S],
            "labels": [G.labels[int(g)] for g in S]}


def _linked_bundle(family, params, cert, provenance=None):
    G = cert.group
    assoc = associated_group(cert.s, cert.chi, cert.psi)
    bundle = {"family": family, "params": params,
              "group": _group_spec(G),
              "forbidden": list(cert.N.members),
              "sets": [_labeled(G, X) for X in cert.sets],
              "certificate": cert.to_json(),
              "associated_group": assoc.to_json()}
    if provenance:
        bundle["provenance"] = provenance
    return bundle


# ---------------------------------------------------------------------------
# construct


def cmd_construct(args):
    family = args.family
    if family == "heisenberg":
        F = _field(args.q)
        hs = cons.heisenberg_system(F)
        bundle = _linked_bundle(
            family, {"q": args.q}, hs.certificate,
            provenance={"field": F.to_json(), "eps": hs.eps,
                        "delta": hs.delta})
    elif family == "heisenberg2r":
        F = _field(args.q)
        cert = cons.heisenberg_system_2r(F, args.r)
        bundle = _linked_bundle(family, {"q": args.q, "r": args.r}, cert,
                                provenance={"field": F.to_json()})
        bundle["branch_note"] = cert.branch_note
    elif family == "extraspecial":
        es = cons.extraspecial_rds(args.p)
        G = es.group
        bundle = {"family": family, "params": {"p": args.p},
                  "group": _group_spec(G),
                  "provenance": {"xi": es.xi},
                  "X_sets": [_labeled(G, X) for X in es.X_sets],
                  "Y_certs": [c.to_json() for c in es.Y_certs],
                  "Z_certs": [c.to_json() for c in es.Z_certs],
                  "pds_certs": [c.to_json() for c in es.pds_certs]}
    elif family == "q8":
        cert = cons.q8_system()
        bundle = _linked_bundle(family, {}, cert)
    elif family == "q8-2r":
        cert = cons.q8_system_2r(args.r)
        bundle = _linked_bundle(family, {"r": args.r}, cert)
        bundle["branch_note"] = cert.branch_note
    elif family == "dps":
        F = _field(args.n)
        ds = cons.dps_system(F, args.t, args.s)
        bundle = _linked_bundle(
            family, {"n": args.n, "t": args.t, "s": args.s or args.t},
            ds.certificate,
            provenance={"field": F.to_json(),
                        "endomorphisms": [[list(row) for row in M]
                                          for M in ds.endos]})
    elif family == "thm12":
        G, X, cert = cons.theorem_1_2_rds(args.p, args.r)
        bundle = {"family": family, "params": {"p": args.p, "r": args.r},
                  "group": _group_spec(G),
                  "set": _labeled(G, X),
                  "forbidden": list(cert.N.members),
                  "exponent": G.exponent(),
                  "certificate": cert.to_json()}
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown family {family}")
    _dump(bundle, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


_CHUNK = 1 << 18  # characters of a file read at a time
_IN_STRING = re.compile(r'["\\]')  # in a string: its end, or an escape
_OUTSIDE = re.compile(r'"|\[[ \t\n\r]*')  # a string, or an array and blanks
# each byte's class: a digit "d", a comma, or else "x"
_CLASS = bytes(ord("d") if 48 <= c <= 57 else c if c == ord(",")
               else ord("x") for c in range(256))
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


class _Reread(Exception):
    """An array failed to read as integers after part of its text was
    dropped, or the NaN constants of a skeleton and its arrays did not
    pair up."""


def _int_piece(text: str):
    """The nonnegative JSON integers of text, a run of an array cut at
    commas, in the least unsigned dtype that holds them; None if the
    text is anything else.

    The text is read only if it holds digits, commas and JSON
    whitespace alone, with digits before, between and after its commas,
    and np.fromstring reads one number per comma-separated field; the
    digits must then be exactly those of the numbers read, at most 18
    each, which a leading zero, a number split by whitespace or an
    overflow breaks."""
    piece = text.encode("ascii", "replace")
    tight = piece.translate(_CLASS, b" \t\n\r")
    k = tight.count(b",") + 1
    if (b"x" in tight or b",," in tight or not tight.startswith(b"d")
            or not tight.endswith(b"d")):
        return None
    try:  # numpy 2 raises where numpy 1 warns, at text it cannot read
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(piece, dtype=np.int64, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    if values.size != k:
        return None
    top = values.max()
    # the digits of the numbers read: 1 each, plus 1 per power of 10 up
    # to its value
    if top >= _POW10[-1] or len(tight) - k + 1 != k + sum(
            np.count_nonzero(values >= p) for p in _POW10[_POW10 <= top]):
        return None
    return values.astype(np.min_scalar_type(top))


def _int_array(fh, text: str, start: int, path):
    """The array of nonnegative JSON integers whose text starts at
    text[start], just after its "[", read on from fh as needed, with the
    text then held and the index after the "]" in it.

    The array is parsed from the text held, cut at its last comma, and
    that text is dropped before the next _CHUNK characters are read, so
    its v^2 entries never form one string or a Python int each.  Each
    piece is written into one array that grows in place by exactly that
    piece (a realloc, so the old and new blocks are never both held),
    widened only when a piece needs a larger dtype.  If the array is
    anything else, the result is (None, text, 0), with more text
    appended but none dropped, or _Reread once a piece was parsed (its
    text may be gone).  An array longer than any table the budget admits
    is a GroupError."""
    array, count = None, 0
    while True:
        close = text.find("]", start)
        cut = close if close >= 0 else text.rfind(",", start)
        if cut < 0:
            chunk = fh.read(_CHUNK)
            if not chunk:
                break
            if array is not None:
                text, start = text[start:], 0
            text += chunk
            continue
        values = _int_piece(text[start:cut])
        if values is None:
            break
        if count + values.size > groups.TABLE_BYTES // 2:
            raise GroupError(f"{path}: an array of more than "
                             f"{groups.TABLE_BYTES // 2:,} integers is "
                             f"longer than any table the budget admits")
        if array is None:
            array = values
        else:
            if values.dtype.itemsize > array.dtype.itemsize:
                array = array.astype(values.dtype)
            # zero-fills what it adds: grow by the piece, and no more
            array.resize(count + values.size, refcheck=False)
            array[count:] = values
        count += values.size
        if cut == close:
            return array, text, close + 1
        start = cut + 1
    if array is not None:
        raise _Reread
    return None, text, 0


def _split(fh, path):
    """The text of fh, read _CHUNK characters at a time, with each array
    of nonnegative integers outside strings cut to the constant NaN; and
    the list of those arrays, in text order (see _int_array)."""
    skeleton, arrays = [], []
    text, pos, mark = fh.read(_CHUNK), 0, 0  # text[mark:pos] is unkept
    in_string = False
    while True:
        m = (_IN_STRING if in_string else _OUTSIDE).search(text, pos)
        if m is None or m.end() == len(text) and m.group() != '"':
            # the rest of text, or an escape or "[" whose next character
            # is not yet read, waits for the next chunk
            keep = len(text) if m is None else m.start()
            chunk = fh.read(_CHUNK)
            if not chunk:
                break
            skeleton.append(text[mark:keep])
            text, pos, mark = text[keep:] + chunk, 0, 0
        elif m.group() == '"':
            in_string = not in_string
            pos = m.end()
        elif in_string:  # an escape: skip the character it escapes
            pos = m.end() + 1
        elif not "0" <= text[m.end()] <= "9":
            pos = m.end()
        else:
            opening = m.start()
            skeleton.append(text[mark:opening])
            array, text, end = _int_array(fh, text, opening + 1, path)
            if array is None:
                mark, pos = opening, opening + 1
            else:
                arrays.append(array)
                skeleton.append("NaN")
                mark = pos = end
    skeleton.append(text[mark:])
    return "".join(skeleton), arrays


def _decode(skeleton: str, arrays: list):
    """The value of skeleton, with the arrays in text order in place of
    its NaN constants; _Reread unless there is one NaN for each array,
    as where the file holds a NaN of its own.  Every other literal is
    read by json's own scanner."""
    left = iter(arrays)

    def constant(name):
        array = next(left, None) if name == "NaN" else float(name)
        if array is None:
            raise _Reread
        return array

    value = json.loads(skeleton, parse_constant=constant)
    if next(left, None) is not None:
        raise _Reread
    return value


def _read_json(path):
    """The value json.load gives for the file at path, except that each
    array of nonnegative integers is one numpy array, in the least
    unsigned dtype that holds it; the file's text is never held whole.
    Where the text is not JSON, an array fails once part of its text
    was dropped, or a NaN and an array do not pair up, the file is
    read again with json.load, so the value or the error is json.load's
    own."""
    try:
        with open(path) as fh:
            return _decode(*_split(fh, path))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError,
            _Reread):
        pass
    with open(path) as fh:
        return json.load(fh)


def _listed(obj):
    """A parsed value with each array that _read_json made a list,
    as json.load returns it."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, list):
        return [_listed(x) for x in obj]
    if isinstance(obj, dict):
        return {key: _listed(x) for key, x in obj.items()}
    return obj


def _load_group(path, spec) -> FiniteGroup:
    """The group of a parsed bundle or group file: order v, a flat table
    of v^2 entries, and optionally a name and a list of v labels.  The
    table is taken out of spec, so the parsed file no longer holds it."""
    if isinstance(spec, dict) and "group" in spec:
        spec = spec["group"]
    for key in ("order", "table"):
        if not isinstance(spec, dict) or key not in spec:
            raise GroupError(f"{path}: the group has no {key!r}")
    flat = spec.pop("table")
    spec = _listed(spec)
    v = spec["order"]
    if type(v) is not int or v < 1:
        raise GroupError(f"{path}: order {v!r} is not a positive integer")
    if "name" in spec and type(spec["name"]) is not str:
        raise GroupError(f"{path}: name {spec['name']!r} is not a string")
    labels = spec.get("labels")
    if "labels" in spec:
        if not isinstance(labels, list):
            raise GroupError(f"{path}: labels {labels!r} is not a list")
        for pos, x in enumerate(labels[:v]):
            if type(x) is not str:
                raise GroupError(f"{path}: label {x!r} at position {pos} "
                                 f"is not a string")
        if len(labels) != v:
            raise GroupError(f"{path}: order {v} needs {v} labels, found "
                             f"{len(labels)}; position {min(len(labels), v)}"
                             f" is wrong")
    n = len(flat) if isinstance(flat, (list, np.ndarray)) else 0
    if n != v * v:
        raise GroupError(f"{path}: order {v} needs {v * v} table entries, "
                         f"found {n}; position {min(n, v * v)} is wrong")
    # a list is json's own values, an entry a cell; FiniteGroup
    # range-checks the entries
    if isinstance(flat, list):
        flat = np.fromiter(flat, dtype=object, count=n)
    table = integers(flat.reshape(v, v), GroupError, f"{path}: table entry",
                     table=True)
    return FiniteGroup(table, labels=labels,
                       name=spec.get("name", "group"))


def _load_sets(path, data):
    """The sets of a parsed file: a bundle's "sets" or "set", a
    "classes" list, a list of sets, or one bare set."""
    if isinstance(data, dict):
        if "sets" in data:
            data = data["sets"]
        elif "set" in data:
            data = [data["set"]]
        elif "classes" in data:
            data = data["classes"]
    data = _listed(data)
    if not isinstance(data, list):
        raise GroupError(f"{path}: no list of sets")
    if not data:
        raise GroupError(f"{path}: the list of sets is empty")
    if not isinstance(data[0], (list, dict)):
        data = [data]
    labeled = isinstance(data[0], dict)  # {"indices": [...], ...} entries
    sets = []
    for i, s in enumerate(data):
        if labeled:
            if not isinstance(s, dict) or "indices" not in s:
                raise GroupError(f"{path}: set {i} has no 'indices'")
            s = s["indices"]
        if not isinstance(s, list):
            raise GroupError(f"{path}: set {i} is {s!r}, not a list")
        # the layer that owns the set checks the range
        integers(s, GroupError, f"{path}: set {i} member")
        sets.append(s)
    return sets


def cmd_verify(args):
    report = {"command": "verify", "kind": args.kind,
              "inputs": {"group": args.group, "sets": args.sets,
                         "forbidden": args.forbidden}}
    docs = {}  # each path parsed once per call, never across calls

    def load(path):
        if path not in docs:
            docs[path] = _read_json(path)
        return docs[path]

    def forbidden() -> Subgroup | None:
        """The --forbidden subgroup, or None without one."""
        if not args.forbidden:
            return None
        return Subgroup(G, tuple(
            _load_sets(args.forbidden, load(args.forbidden))[0]))

    try:
        G = _load_group(args.group, load(args.group))
        report["group"] = {"order": G.order, "audit": G.audit,
                           "generators": G.gens}
        sets = _load_sets(args.sets, load(args.sets))
        if args.kind == "rds":
            cert = verify_rds(G, sets[0], forbidden())
            report["certificates"] = [cert.to_json()]
        elif args.kind == "pds":
            cert = verify_pds(G, sets[0])
            report["certificates"] = [cert.to_json()]
        elif args.kind == "sring":
            classes = sets
            if [0] not in classes:
                classes = [[0]] + classes
            P = SchurPartition(G, classes)
            report["certificates"] = [{"partition": P.to_json(),
                                       "tensor": verify_sring(P).tolist()}]
        elif args.kind == "linked":
            cert = verify_linked(G, forbidden(), sets)
            report["certificates"] = [cert.to_json()]
        report["ok"] = True
    except Exception as exc:
        report["ok"] = False
        report["error"] = f"{type(exc).__name__}: {exc}"
        _dump(report, args.out)
        return 1
    _dump(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# export


def _graph_chunks(adj, fmt):
    v = adj.shape[0]
    if fmt == "adjlist":
        lines = []
        for u in range(v):
            nbrs = " ".join(str(int(w)) for w in np.where(adj[u])[0])
            lines.append(f"{u}: {nbrs}")
        return ["\n".join(lines) + "\n"]
    edges = np.argwhere(np.triu(adj, 1))  # u < w, sorted by u then w
    if fmt == "dimacs":
        lines = [f"p edge {v} {len(edges)}"]
        lines += [f"e {u} {w}" for u, w in (edges + 1).tolist()]
        return ["\n".join(lines) + "\n"]
    return _json_text({"vertices": v, "edges": edges.tolist()})


# the families each export builds
_EXPORTS = {"graph": ("heisenberg",), "dev": ("heisenberg", "q8"),
            "ctensor": ("heisenberg", "extraspecial")}


def cmd_export(args):
    if args.family not in _EXPORTS[args.what]:
        raise ValueError(f"export {args.what} does not build "
                         f"--family {args.family}")
    if args.family == "heisenberg":
        hs = cons.heisenberg_system(_field(args.q))
    if args.what == "graph":
        S = hs.orbit_sets[0]  # X_0 minus the identity
        adj = cayley_adjacency(hs.group, S)
        chunks = _graph_chunks(adj, args.format)
    elif args.what == "dev":
        if args.family == "q8":
            cert = cons.q8_system()
            G, X = cert.group, cert.sets[0]
        else:
            G, X = hs.group, hs.sets[0]
        blocks = dev(G, X)
        if args.format == "json":
            chunks = _json_text({"blocks": [list(b) for b in blocks]})
        else:
            chunks = ["\n".join(" ".join(str(g) for g in b)
                                for b in blocks) + "\n"]
    elif args.what == "ctensor":
        if args.family == "extraspecial":
            es = cons.extraspecial_rds(args.p)
            P = es.partition
        else:
            P = hs.partition
        chunks = _json_text({"classes": [list(c) for c in P.classes],
                             "class_sizes": P.class_sizes(),
                             "tensor": P.basis.tensor.tolist()})
    else:  # pragma: no cover
        raise ValueError(f"unknown export {args.what}")
    _write(args.out, chunks)
    return 0


# ---------------------------------------------------------------------------
# resolve-branch


def cmd_resolve_branch(args):
    if args.target == "heis2r":
        cert = cons.heisenberg_system_2r(_field(args.q), args.r)
        params = {"q": args.q, "r": args.r}
    else:
        cert = cons.q8_system_2r(args.r)
        params = {"r": args.r}
    m, n, k = cert.m, cert.n, cert.k
    realized = (cert.mu, cert.nu)
    by_sign = munu_by_sign(m, n, k)
    # the minus branch is the one the source corollaries state
    claimed = by_sign.get(-1)
    report = {"command": "resolve-branch", "target": args.target,
              "params": params,
              "m": m, "n": n, "k": k,
              "realized": list(realized),
              "branches": [list(b) for b in by_sign.values()],
              "closed_form_claim": list(claimed) if claimed else None,
              "matches_closed_form": realized == claimed,
              "branch_note": cert.branch_note,
              "ok": realized in by_sign.values()}
    _dump(report, args.out)
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    ap = argparse.ArgumentParser(
        prog="rdslink",
        description="Construct and verify relative difference sets, "
                    "partial difference sets, and closed linked systems.")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="build and certify a system")
    pc.add_argument("family", choices=["heisenberg", "heisenberg2r",
                                       "extraspecial", "q8", "q8-2r",
                                       "dps", "thm12"])
    pc.add_argument("--q", type=int, default=3)
    pc.add_argument("--r", type=int, default=2)
    pc.add_argument("--p", type=int, default=3)
    pc.add_argument("--n", type=int, default=3)
    pc.add_argument("--t", type=int, default=3)
    pc.add_argument("--s", type=int, default=None)
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_construct)

    pv = sub.add_parser("verify", help="verify sets from JSON files")
    pv.add_argument("kind", choices=["rds", "pds", "sring", "linked"])
    pv.add_argument("--group", required=True)
    pv.add_argument("--sets", required=True)
    pv.add_argument("--forbidden", default=None)
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("export", help="export graphs, developments, "
                                       "or structure constants")
    pe.add_argument("what", choices=["graph", "dev", "ctensor"])
    pe.add_argument("--family", choices=["heisenberg", "q8",
                                         "extraspecial"],
                    default="heisenberg")
    pe.add_argument("--q", type=int, default=3)
    pe.add_argument("--p", type=int, default=3)
    pe.add_argument("--format", choices=["adjlist", "dimacs", "json"],
                    default="adjlist")
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_export)

    pb = sub.add_parser("resolve-branch",
                        help="determine the realized (mu, nu) branch")
    pb.add_argument("--target", choices=["heis2r", "q8-2r"], required=True)
    pb.add_argument("--q", type=int, default=3)
    pb.add_argument("--r", type=int, default=2)
    pb.add_argument("--out", default=None)
    pb.set_defaults(func=cmd_resolve_branch)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
