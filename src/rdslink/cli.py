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
import math
import sys
import warnings

import numpy as np

from . import constructions as cons
from .ff import field_make, is_prime
from .groups import (FiniteGroup, GroupError, Subgroup,
                     check_integer_cells)
from .linked import associated_group, munu_branches, verify_linked
from .rds import (cayley_adjacency, certify_rds, dev, verify_pds,
                  verify_rds)
from .schur import SchurPartition, verify_sring


def _prime_power(q: int):
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = min(d for d in range(2, q + 1) if q % d == 0)
    r = 0
    x = q
    while x % p == 0:
        x //= p
        r += 1
    if x != 1 or not is_prime(p):
        raise ValueError(f"{q} is not a prime power")
    return p, r


def _write(out_path, chunks):
    """Write the pieces of text to out_path, or to stdout without one."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _holds_array(obj) -> bool:
    return isinstance(obj, np.ndarray) or (
        isinstance(obj, dict) and any(map(_holds_array, obj.values())))


def _table_chunks(table: np.ndarray, pad: str):
    """A Cayley table (entries 0..v-1) as json.dumps writes the list of
    its entries, row-major, 64 rows to a piece."""
    v = len(table)
    words = np.array([str(i) for i in range(v)], dtype=object)
    sep = "," + pad + "  "
    yield "[" + pad + "  "
    for start in range(0, v, 64):
        if start:
            yield sep
        yield sep.join(words[table[start:start + 64].reshape(-1)].tolist())
    yield pad + "]"


def _json_chunks(obj, pad="\n"):
    """The text of json.dumps(obj, sort_keys=True, indent=2) in pieces,
    for obj nested where its lines start with pad.  A Cayley table held
    as an array is streamed, so its v^2 entries never form one Python
    list or string; the dicts around it are written key by key (their
    keys are strings)."""
    if isinstance(obj, np.ndarray):
        yield from _table_chunks(obj, pad)
    elif _holds_array(obj):
        inner = pad + "  "
        for i, (key, value) in enumerate(sorted(obj.items())):
            yield ("," if i else "{") + inner + json.dumps(key) + ": "
            yield from _json_chunks(value, inner)
        yield pad + "}"
    else:  # the encoder escapes every newline inside a string
        yield json.dumps(obj, sort_keys=True, indent=2).replace("\n", pad)


def _json_text(obj):
    """json.dumps(obj, sort_keys=True, indent=2) and a newline, in
    pieces."""
    yield from _json_chunks(obj)
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
        p, r = _prime_power(args.q)
        F = field_make(p, r)
        hs = cons.heisenberg_system(F)
        bundle = _linked_bundle(
            family, {"q": args.q}, hs.certificate,
            provenance={"field": F.to_json(), "eps": hs.eps,
                        "delta": hs.delta})
    elif family == "heisenberg2r":
        p, r0 = _prime_power(args.q)
        F = field_make(p, r0)
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
        p, r = _prime_power(args.n)
        F = field_make(p, r)
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


_CHUNK = 1 << 20  # characters of an integer array parsed at a time
# each byte's class: a digit "d", a comma, or else "x"
_CLASS = bytes(ord("d") if 48 <= c <= 57 else c if c == ord(",")
               else ord("x") for c in range(256))
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def _int_array(s: str, start: int):
    """The array of nonnegative JSON integers whose text starts at
    s[start], just after its "[", as one int64 array, with the index
    after its "]"; None if that text is anything else.

    The text is read _CHUNK characters at a time, cut at commas, so it
    never becomes a list of Python ints.  A piece is read only if it
    holds digits, commas and JSON whitespace alone, with digits before,
    between and after its commas, and np.fromstring reads one number
    per comma-separated field; the digits must then be exactly those of
    the numbers read, at most 18 each, which a leading zero, a number
    split by whitespace or an overflow breaks."""
    first = json.decoder.WHITESPACE.match(s, start).end()
    if not "0" <= s[first:first + 1] <= "9":
        return None
    close = s.find("]", first)
    if close < 0:
        return None
    out = np.empty(s.count(",", first, close) + 1, dtype=np.int64)
    filled, cut = 0, start - 1
    while cut < close:
        start = cut + 1
        cut = s.find(",", min(start + _CHUNK, close), close)
        cut = close if cut < 0 else cut
        piece = s[start:cut].encode("ascii", "replace")
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
        # the digits of the numbers read: 1 each, plus 1 per power of 10
        # up to its value
        if top >= _POW10[-1] or len(tight) - k + 1 != k + sum(
                np.count_nonzero(values >= p) for p in _POW10[_POW10 <= top]):
            return None
        out[filled:filled + k] = values
        filled += k
    return out, close + 1


class _TableDecoder(json.JSONDecoder):
    """json's decoder, except that an array of nonnegative integers is
    read into one int64 array without a Python int per entry.  Objects
    go to json.decoder.JSONObject, whose values come back here; every
    other value, and every other array, valid or not, goes whole to
    json's own scanner, so its value or error is that of json.load."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        json_scan = self.scan_once

        def scan_once(s, idx):
            if s.startswith("{", idx):
                return json.decoder.JSONObject(
                    (s, idx + 1), self.strict, scan_once, self.object_hook,
                    self.object_pairs_hook)
            if s.startswith("[", idx):
                return _int_array(s, idx + 1) or json_scan(s, idx)
            return json_scan(s, idx)

        def scan_document(s, idx):
            try:
                return scan_once(s, idx)
            except RecursionError:  # nested deeper than Python frames allow
                return json_scan(s, idx)

        self.scan_once = scan_document


def _listed(obj):
    """A parsed value with each array that _TableDecoder made a list,
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
    if isinstance(flat, list):  # not read as nonnegative integers
        check_integer_cells(flat, (v, v))
    try:
        table = np.asarray(flat, dtype=np.int64).reshape(v, v)
    except OverflowError:
        raise GroupError(f"{path}: table entries out of range") from None
    del flat
    return FiniteGroup(table, labels=labels, name=spec.get("name", "group"))


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
        for pos, g in enumerate(s):
            if type(g) is not int:
                raise GroupError(f"{path}: set {i} has {g!r} at position "
                                 f"{pos}, not an element index")
        sets.append(s)
    return sets


def cmd_verify(args):
    report = {"command": "verify", "kind": args.kind,
              "inputs": {"group": args.group, "sets": args.sets,
                         "forbidden": args.forbidden}}
    docs = {}  # each path parsed once per call, never across calls

    def load(path):
        if path not in docs:
            with open(path) as fh:
                docs[path] = json.load(fh, cls=_TableDecoder)
        return docs[path]

    def forbidden(X) -> Subgroup:
        """The --forbidden subgroup, or else the one that X.X^(-1)
        fixes."""
        if args.forbidden:
            return Subgroup(G, tuple(
                _load_sets(args.forbidden, load(args.forbidden))[0]))
        return certify_rds(G, X).N

    try:
        G = _load_group(args.group, load(args.group))
        report["group"] = {"order": G.order, "audit": "light",
                           "generators": G.gens}
        sets = _load_sets(args.sets, load(args.sets))
        if args.kind == "rds":
            cert = verify_rds(G, sets[0], forbidden(sets[0]))
            report["certificates"] = [cert.to_json()]
        elif args.kind == "pds":
            cert = verify_pds(G, sets[0])
            report["certificates"] = [cert.to_json()]
        elif args.kind == "sring":
            classes = sets
            if [0] not in classes and (0,) not in [tuple(c) for c in classes]:
                classes = [[0]] + classes
            P = SchurPartition(G, classes)
            sc = verify_sring(P)
            report["certificates"] = [{"partition": P.to_json(),
                                       "tensor": sc.tensor.tolist()}]
        elif args.kind == "linked":
            cert = verify_linked(G, forbidden(sets[0]), sets)
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
    if args.what == "graph":
        p, r = _prime_power(args.q)
        hs = cons.heisenberg_system(field_make(p, r))
        S = hs.orbit_sets[0]  # X_0 minus the identity
        adj = cayley_adjacency(hs.group, S)
        chunks = _graph_chunks(adj, args.format)
    elif args.what == "dev":
        if args.family == "q8":
            cert = cons.q8_system()
            G, X = cert.group, cert.sets[0]
        else:
            p, r = _prime_power(args.q)
            hs = cons.heisenberg_system(field_make(p, r))
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
            p, r = _prime_power(args.q)
            P = cons.heisenberg_system(field_make(p, r)).partition
        sc = verify_sring(P)
        chunks = _json_text({"classes": [list(c) for c in P.classes],
                             "class_sizes": P.class_sizes(),
                             "tensor": sc.tensor.tolist()})
    else:  # pragma: no cover
        raise ValueError(f"unknown export {args.what}")
    _write(args.out, chunks)
    return 0


# ---------------------------------------------------------------------------
# resolve-branch


def _closed_form_pair(m, n, k):
    """The minus-sign branch of the closed formulas (the one the source
    corollaries state for these families)."""
    root = math.isqrt(k * (m * n - k) // (m * (n - 1)))
    return ((k * k - (m * n - k) * root) // (m * n),
            (k * (k + root)) // (m * n))


def cmd_resolve_branch(args):
    if args.target == "heis2r":
        p, r0 = _prime_power(args.q)
        cert = cons.heisenberg_system_2r(field_make(p, r0), args.r)
        params = {"q": args.q, "r": args.r}
    else:
        cert = cons.q8_system_2r(args.r)
        params = {"r": args.r}
    m, n, k = cert.m, cert.n, cert.k
    realized = (cert.mu, cert.nu)
    branches = munu_branches(m, n, k)
    claimed = _closed_form_pair(m, n, k)
    report = {"command": "resolve-branch", "target": args.target,
              "params": params,
              "m": m, "n": n, "k": k,
              "realized": list(realized),
              "branches": [list(b) for b in branches],
              "closed_form_claim": list(claimed),
              "matches_closed_form": realized == claimed,
              "branch_note": cert.branch_note,
              "ok": realized in branches}
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
