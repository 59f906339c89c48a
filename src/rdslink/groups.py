"""Concrete finite groups as fully materialized index tables.

Elements are integers 0..v-1 with the identity at index 0.  Every
group built here carries its v x v uint16 multiplication table (so
v <= 32,768), and all downstream checks are exhaustive exact
arithmetic; arithmetic on table entries widens them to int64 first.
Every table, built or loaded, is audited exactly at every order from
the rows and columns of one irredundant generating set G.gens (in a
p-group, one of the minimum size): v^2 + d^2 v cells for d generators
(_audit_table).  Every table is built the same way: a product rule
gives the rows of a few generators, and a walk from the identity fills
every other row from them (_fill).  Heisenberg groups, the
extraspecial group of order p^3 and exponent p^2, Q8, abelian groups,
and direct/central products are provided, plus subgroups, the center,
transversal tests, automorphisms (audited on G.gens) and their orbits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ff import Field, indices, integers, is_prime, named, require_ints

# the largest table a constructor will build: 2 bytes an entry, so
# v <= 32,768, and every entry v - 1 fits in uint16
TABLE_BYTES = 1 << 31
_CELLS = 1 << 15  # table cells per block in the fill and the audit


class GroupError(ValueError):
    pass


def _check_budget(base: int, exp: int = 1):
    """Raise GroupError, before any v x v allocation, when a table of
    order v = base^exp would exceed TABLE_BYTES.  Past 2^64, far over
    the budget, v is named as the power and never formed, and a base or
    exponent past 2^64 by its bit length: their digits may be too many
    to print."""
    if exp * (base.bit_length() - 1) > 64:
        if exp == 1:
            raise GroupError(f"order {named(base)} needs a "
                             f"2*{named(base)}^2-byte table, over the "
                             f"{TABLE_BYTES:,}-byte budget")
        raise GroupError(f"order {named(base)}^{named(exp)} needs a "
                         f"2*{named(base)}^{named(2 * exp)}-byte table, "
                         f"over the {TABLE_BYTES:,}-byte budget")
    v = base ** exp
    if 2 * v * v > TABLE_BYTES:
        raise GroupError(f"order {v} needs a {2 * v * v:,}-byte table, "
                         f"over the {TABLE_BYTES:,}-byte budget")


def _walk(maps: np.ndarray, reached: np.ndarray, tree: list | None = None):
    """Walk breadth first over y = maps[k, p] (maps[k] is the map of
    the k-th generator): from every reached p, then from each wave of
    new elements, until closed.  reached is extended in place.  With a
    tree, each wave is appended to it as arrays (y, k, p): each new y
    once, with a generator k and a parent p reached before it."""
    v = maps.shape[1]
    owner = np.empty(v, dtype=np.intp)
    frontier = reached.nonzero()[0]
    while frontier.size:
        image = maps[:, frontier].ravel()  # generator-major
        fresh = np.zeros(v, dtype=bool)
        fresh[image] = True
        np.greater(fresh, reached, out=fresh)
        reached |= fresh
        y = fresh.nonzero()[0]
        if tree is not None:
            owner[image] = np.arange(image.size)  # any position of y
            k, j = np.divmod(owner[y], frontier.size)
            tree.append((y, k, frontier[j]))
        frontier = y


def _by_generator(y, k, p, d: int):
    """The runs (g, ys, ps) of a walk's (y, k, p) with generator g."""
    runs = [(g, k == g) for g in range(d)]
    return [(g, y[m], p[m]) for g, m in runs if m.any()]


def _generators(table: np.ndarray) -> list:
    """An irredundant generating set: greedily the least element not yet
    reached, closing the reached set under right multiplication by the
    chosen ones (so every element is a left-bracketed product of them),
    then dropped, in turn, each one the others still generate.  In a
    p-group every irredundant set has the minimum size (Burnside)."""
    v = table.shape[0]
    reached = np.arange(v) == 0
    gens = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        _walk(table[:, gens].T, reached)
    # the last one chosen stays: the ones before it do not generate
    for a in gens[:-1]:
        rest = [b for b in gens if b != a]
        reached = np.arange(v) == 0
        _walk(table[:, rest].T, reached)
        if reached.all():
            gens = rest
    return gens


def _fill(rows: np.ndarray, more=None) -> np.ndarray:
    """The Cayley table of the group generated by some elements t, from
    their rows L_t (the products t z for every z).  A walk from 0 over
    y = L_t[p] (_walk) writes each row once, as T[y] = L_t[T[p]], since
    (t p) z = t (p z); element indices never change.  While the walk
    misses an element, more(g), if given, returns the row of the least
    one missed, g, which joins the generators; else GroupError."""
    v = rows.shape[1]
    reached, tree = np.arange(v) == 0, []
    _walk(rows, reached, tree)
    while not reached.all():
        g = int(np.argmin(reached))
        if more is None:
            raise GroupError(f"the generators reach {int(reached.sum())} "
                             f"of {v} elements, not {g}")
        rows = np.concatenate([rows, more(g)[None].astype(rows.dtype)])
        _walk(rows, reached, tree)
    table = np.empty((v, v), dtype=np.uint16)
    table[0] = np.arange(v)
    step = max(1, _CELLS // v)
    for wave in tree:  # every parent's row is written before it
        for k, ys, ps in _by_generator(*wave, len(rows)):
            for s in range(0, ys.size, step):
                table[ys[s:s + step]] = np.take(rows[k],
                                                table[ps[s:s + step]])
    return table


def _audit_table(table: np.ndarray) -> list:
    """Certify an in-range square table as a group and return its
    generating set S = G.gens.  With index 0 a two-sided identity, and
    L_t = T[t, .], R_s = T[., s] for t, s in S, it checks
      1. every L_t and R_s is a permutation;
      2. a walk from 0 over y = L_t[p] reaches every element;
      3. each row T[y] equals L_t[T[p]] for its walk parent p;
      4. L_t R_s = R_s L_t for all t, s in S;
      5. <R_s> is transitive.
    Then every row is a permutation lambda_y in L = <L_t> with
    lambda_y(0) = y, so L is transitive; its point stabilizer fixes all
    that the transitive <R_s> centralizing it moves 0 to, so L is
    regular (Dixon & Mortimer, Permutation Groups, 4.2), and
    lambda_y lambda_z = lambda_{T[y,z]}, both sending 0 to T[y, z]:
    T is associative and every row has an inverse.  This reads
    v^2 + d^2 v cells for d generators."""
    v = table.shape[0]
    if not (np.array_equal(table[0], np.arange(v))
            and np.array_equal(table[:, 0], np.arange(v))):
        raise GroupError("index 0 is not a two-sided identity")
    # 5. holds by construction: _generators closes {0} under right
    # multiplication by S until it holds every element
    gens = _generators(table)
    rows = table[gens]
    cols = np.ascontiguousarray(table[:, gens].T)
    for what, other, maps in (("row", "columns", rows),
                              ("column", "rows", cols)):
        hit = np.zeros(maps.shape, dtype=bool)
        hit[np.arange(len(maps))[:, None], maps] = True
        if not hit.all():
            i = int(np.argmin(hit.all(axis=1)))
            x = int(np.argmax(np.bincount(maps[i], minlength=v)))
            a, b = np.flatnonzero(maps[i] == x)[:2]
            raise GroupError(f"permutation check: {what} {gens[i]} repeats "
                             f"{x} (at {other} {a} and {b})")
    reached, tree = np.arange(v) == 0, []
    _walk(rows, reached, tree)
    if not reached.all():
        raise GroupError(f"walk check: left multiplication by {gens} "
                         f"does not reach {int(np.argmin(reached))} from 0")
    # t (z s) against (t z) s, for every t in S and every z, with s
    # in a block of S
    step = max(1, _CELLS // max(1, rows.size))
    for j in range(0, len(gens), step):
        bad = (np.take(rows, cols[j:j + step], axis=1)
               != np.take(cols[j:j + step], rows, axis=1).transpose(1, 0, 2))
        if bad.any():
            i, s, z = np.argwhere(bad)[0]
            raise GroupError(f"commutation check: t (z s) != (t z) s at "
                             f"t={gens[i]}, z={z}, s={gens[j + s]}")
    step = max(1, _CELLS // v)
    for k, ys, ps in _by_generator(*map(np.concatenate, zip(*tree)),
                                   len(gens)):
        for s in range(0, ys.size, step):
            y, p = ys[s:s + step], ps[s:s + step]
            bad = np.take(rows[k], table[p]) != table[y]
            if bad.any():
                i, z = np.argwhere(bad)[0]
                raise GroupError(f"row check: (t p) z != t (p z) at "
                                 f"t={gens[k]}, p={p[i]}, z={z}")
    return gens


def _integer_table(table) -> np.ndarray:
    """table as a square uint16 array: within the byte budget and
    range-checked before it is narrowed, so no entry can wrap;
    GroupError names the first entry that is not an integer index."""
    if isinstance(table, (list, tuple)):  # rows: to integers, a table
        table = np.array(table, dtype=object)
    arr = integers(table, GroupError, "table entry", table=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
        raise GroupError("multiplication table must be square")
    _check_budget(len(arr))
    indices(arr, len(arr), GroupError, "table entry", table=True)
    # C order: GroupRingElement.__mul__ gathers from the raveled table
    return np.ascontiguousarray(arr, dtype=np.uint16)


def _flat(el):
    """The integer coordinates of an element; nested tuples read flat."""
    return ([c for part in el for c in _flat(part)]
            if isinstance(el, tuple) else [el])


class FiniteGroup:
    """A finite group on indices 0..v-1 with a materialized Cayley table."""

    def __init__(self, table, labels=None, name="group", elements=None):
        table = _integer_table(table)
        self.gens = _audit_table(table)  # irredundant, generates G
        self.table = table
        self.order = v = table.shape[0]
        d = len(self.gens)
        # how the table was certified: the row pass reads v^2 cells and
        # the commutation check d^2 v
        self.audit = {"method": "generator-rows", "d": d,
                      "cells": v * v + d * d * v}
        self.name = name
        self.labels = labels if labels is not None else [
            str(i) for i in range(self.order)]
        self.elements = elements  # optional normal-form objects
        self.index = ({el: i for i, el in enumerate(elements)}
                      if elements is not None else None)
        # the first zero in each row: entries are nonnegative indices
        self.inv = table.argmin(axis=1)

    @classmethod
    def from_elements(cls, elements, mul, name="group", label=None):
        """Materialize a group from its elements and an array product rule.

        Each element is a tuple of integer coordinates (nested tuples
        read flat, an int is one coordinate), listed in row-major order
        of the grid of coordinate ranges, which they fill once; so the
        i-th element has index i and elements[0] must be the identity.
        The rule is evaluated on generators' rows only: mul(g, h) gets
        g's coordinates as arrays along axis 0 and h's coordinate i
        along axis i + 1, and returns the product's coordinates, each
        range-checked and added in at its stride.  The generators are
        chosen greedily, each the least element the walk of _fill has
        not reached, and _fill writes every other row from theirs.
        """
        v = len(elements)
        _check_budget(v)
        coords = np.array([_flat(el) for el in elements], dtype=np.int64)
        shape = tuple(int(n) for n in coords.max(axis=0) + 1)
        k = len(shape)
        if math.prod(shape) != v or not np.array_equal(
                coords, np.indices(shape).reshape(k, v).T):
            raise GroupError("elements must fill their coordinate grid "
                             "once, in row-major order")
        # h's coordinate i on axis i + 1, g's coordinates on axis 0
        h = tuple(np.arange(n).reshape((n,) + (1,) * (k - 1 - i))
                  for i, n in enumerate(shape))
        strides = [math.prod(shape[i + 1:]) for i in range(k)]

        def row(g):
            """g's row: the index of g h for every h."""
            out = np.zeros((1,) + shape, dtype=np.int64)
            for i, c in enumerate(mul(tuple(coords[g].reshape(
                    (k, 1) + (1,) * k)), h)):
                c, n = np.asarray(c), shape[i]
                if c.dtype.kind not in "iu" or c.min() < 0 or c.max() >= n:
                    raise GroupError("product leaves the coordinate grid: "
                                     f"coordinate {i} outside 0..{n - 1}")
                out += c.astype(np.int64, copy=False) * strides[i]
            return out.reshape(v)

        table = _fill(np.empty((0, v), dtype=np.uint16), row)
        labels = [(label or str)(el) for el in elements]
        return cls(table, labels=labels, name=name, elements=list(elements))

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def element_orders(self):
        """The order of every element, all powers g^k stepped at once."""
        g = np.arange(self.order)
        x, orders = g, np.ones(self.order, dtype=np.int64)
        while x.any():  # x = g^orders, held at e once it gets there
            orders += x != 0
            x = np.where(x != 0, self.table[x, g], 0)
        return orders.tolist()

    def exponent(self) -> int:
        return math.lcm(*self.element_orders())

    def is_abelian(self) -> bool:
        return np.array_equal(self.table, self.table.T)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    group: FiniteGroup
    members: tuple  # sorted element indices

    def __post_init__(self):
        v = self.group.order
        inside = np.zeros(v, dtype=bool)
        inside[indices(self.members, v, GroupError, "subgroup member")] = True
        m = np.flatnonzero(inside)
        object.__setattr__(self, "members", tuple(m.tolist()))
        if not inside[0]:
            raise GroupError("subgroup must contain the identity")
        # a product-closed subset of a finite group holding e is a
        # subgroup; rows of at most _CELLS products at a time, so a large
        # subset that is not closed is rejected at its first open block
        step = max(1, _CELLS // m.size)
        for s in range(0, m.size, step):
            open_at = np.argwhere(
                ~inside[self.group.table[np.ix_(m[s:s + step], m)]])
            if open_at.size:
                a, b = open_at[0]
                raise GroupError(
                    f"subgroup not closed at ({m[s + a]},{m[b]})")

    def __len__(self):
        return len(self.members)

    def __contains__(self, g):
        return g in set(self.members)


def _check_homomorphism(G: FiniteGroup, H: FiniteGroup, phi: np.ndarray,
                        what: str):
    """Raise GroupError unless g -> phi[g] is a homomorphism G -> H.
    phi(g s) = phi(g) phi(s) for every g and generator s in G.gens gives
    phi(g w) = phi(g) phi(w) for every word w, by induction on w; that
    is |G.gens| |G| cells."""
    gens = G.gens
    bad = np.argwhere(phi[G.table[:, gens]]
                      != H.table[np.ix_(phi, phi[gens])])
    if bad.size:
        g, i = bad[0]
        raise GroupError(f"{what} is not a homomorphism at pair "
                         f"({g},{gens[i]})")


@dataclass(frozen=True)
class Automorphism:
    group: FiniteGroup
    perm: tuple  # perm[g] = image of g

    def __post_init__(self):
        v = self.group.order
        perm = indices(self.perm, v, GroupError, "automorphism image")
        if perm.shape != (v,) or \
                not np.array_equal(np.sort(perm), np.arange(v)):
            raise GroupError("automorphism must be a permutation of G")
        perm = perm.astype(np.int64, copy=False)
        object.__setattr__(self, "perm", perm)
        if perm[0] != 0:
            raise GroupError("automorphism must fix the identity")
        _check_homomorphism(self.group, self.group, perm, "automorphism")

    def __call__(self, g: int) -> int:
        return int(self.perm[g])

    def apply_set(self, S):
        return tuple(np.sort(self.perm[list(S)]).tolist())

    def order(self) -> int:
        """The lcm of the lengths of perm's cycles."""
        sizes = np.bincount(_orbit_least(self.perm[None]))
        return math.lcm(*set(sizes[sizes > 0].tolist()))


# ---------------------------------------------------------------------------
# constructors


def cyclic(n: int) -> FiniteGroup:
    require_ints(GroupError, n=n)
    if n < 1:
        raise GroupError("order must be positive")
    _check_budget(n)
    return FiniteGroup.from_elements(
        list(range(n)), lambda g, h: ((g[0] + h[0]) % n,), name=f"C{n}")


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    require_ints(GroupError, p=p, k=k)
    # C_p^0 fits at any p, but is_prime's trial division would not end
    # at p = 2^61 - 1: p past the largest order a table may have is
    # refused first
    if 2 * p * p > TABLE_BYTES:
        raise GroupError(f"p = {named(p)} exceeds "
                         f"{math.isqrt(TABLE_BYTES // 2):,}, the largest "
                         f"order the {TABLE_BYTES:,}-byte budget admits")
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    if k < 0:
        raise GroupError(f"k = {named(k)} is negative")
    _check_budget(p, k)
    els = list(itertools.product(range(p), repeat=k))
    return FiniteGroup.from_elements(
        els, lambda g, h: tuple((x + y) % p for x, y in zip(g, h)),
        name=f"C{p}^{k}")


def _factor_rows(G1: FiniteGroup, G2: FiniteGroup, a, b) -> np.ndarray:
    """The rows of (g, e) for g in G1.gens, then of (e, h) for h in
    G2.gens, at the pairs (a[i], b[i]): the pair keys of (g a, b) and
    (a, h b), a key being a * |G2| + b."""
    v2 = G2.order
    rows = [G1.table[g, a].astype(np.int64) * v2 + b for g in G1.gens]
    rows += [a * v2 + G2.table[h, b].astype(np.int64) for h in G2.gens]
    return np.array(rows, dtype=np.int64).reshape(-1, a.size)


def direct_product(G1: FiniteGroup, G2: FiniteGroup) -> FiniteGroup:
    """G1 x G2 on the pairs (a, b), with index a * |G2| + b, filled from
    the rows of (g, e) and (e, h) for g in G1.gens and h in G2.gens,
    which generate it."""
    v1, v2 = G1.order, G2.order
    _check_budget(v1 * v2)
    a, b = np.divmod(np.arange(v1 * v2), v2)
    els = list(itertools.product(range(v1), range(v2)))
    return FiniteGroup(
        _fill(_factor_rows(G1, G2, a, b).astype(np.uint16)),
        labels=[f"({G1.labels[x]},{G2.labels[y]})" for x, y in els],
        name=f"{G1.name}x{G2.name}", elements=els)


def heisenberg(F: Field, r: int = 1) -> FiniteGroup:
    """Heisenberg group of dimension 2r+1 over GF(q), q odd.

    Elements (x, y, z) in F^r x F^r x F with
    (x,y,z)(a,b,c) = (x+a, y+b, z+c+<x,b>).
    """
    require_ints(GroupError, r=r)
    if r < 0:
        raise GroupError(f"r = {named(r)} is negative")
    if F.q % 2 == 0:
        raise GroupError("q must be odd")
    q = F.q
    _check_budget(q, 2 * r + 1)
    vecs = list(itertools.product(range(q), repeat=r))
    els = [(x, y, z) for x in vecs for y in vecs for z in range(q)]

    def mul(g, h):
        z = F.add(g[-1], h[-1])
        for xi, bi in zip(g[:r], h[r:2 * r]):
            z = F.add(z, F.mul(xi, bi))
        return [F.add(u, w) for u, w in zip(g[:-1], h[:-1])] + [z]

    return FiniteGroup.from_elements(els, mul, name=f"Heis({q},{r})")


def extraspecial_mp3(p: int) -> FiniteGroup:
    """M_{p^3}: order p^3, exponent p^2, for odd prime p.

    Pairs (a, b) represent x^a y^b with |x| = p^2, |y| = p and
    y x y^-1 = x^{1+p}; the derived law is
    (a,b)(c,d) = (a + c + p*b*c mod p^2, b + d mod p).
    """
    require_ints(GroupError, p=p)
    _check_budget(p, 3)  # before is_prime's trial division
    if not is_prime(p) or p == 2:
        raise GroupError("p must be an odd prime")
    p2 = p * p
    els = [(a, b) for a in range(p2) for b in range(p)]

    def mul(g, h):
        (a, b), (c, d) = g, h
        return ((a + c + p * b * c) % p2, (b + d) % p)

    return FiniteGroup.from_elements(
        els, mul, name=f"M{p ** 3}",
        label=lambda e: f"x^{e[0]}y^{e[1]}")


def quaternion8() -> FiniteGroup:
    """Q8 = <a, b : a^4 = e, a^2 = b^2, b a b^-1 = a^-1>.

    Pairs (j, i) represent a^i b^j with j in {0, 1}, i mod 4, so a^i b^j
    has index 4j + i.
    """
    els = [(j, i) for j in range(2) for i in range(4)]

    def mul(g, h):
        (j, i), (l, k) = g, h
        # b a^k = a^-k b, b^2 = a^2
        return ((j + l) % 2, (i + k - 2 * j * k + 2 * j * l) % 4)

    return FiniteGroup.from_elements(
        els, mul, name="Q8", label=lambda e: f"a^{e[1]}b^{e[0]}")


# ---------------------------------------------------------------------------
# center and transversals


def center(G: FiniteGroup) -> Subgroup:
    """z is central iff it commutes with every element of G.gens."""
    t, gens = G.table, G.gens
    members = np.flatnonzero((t[:, gens] == t[gens].T).all(axis=1))
    return Subgroup(G, tuple(members.tolist()))


def is_transversal(G: FiniteGroup, H: Subgroup, X) -> bool:
    """Does X meet every right H-coset Hg exactly once: with |H| |X| = v,
    iff the products h x mark every element of G."""
    X = list(X)
    if len(X) * len(H) != G.order:
        return False
    hit = np.zeros(G.order, dtype=bool)
    hit[G.table[np.ix_(H.members, X)]] = True
    return bool(hit.all())


# ---------------------------------------------------------------------------
# automorphisms and orbits


def automorphism_from_images(G: FiniteGroup, images: dict) -> Automorphism:
    """Extend generator images to an automorphism; the generators must
    generate G and the images must respect every relation (verified on
    G.gens by the Automorphism audit).  Along the tree of a walk over
    y = p g_k (_walk), phi(y) = phi(p) phi(g_k), each parent first."""
    gens = indices(images, G.order, GroupError, "generator")
    if not isinstance(images, dict):
        raise GroupError(f"images = {images!r} is not a dict from "
                         f"generators to images")
    targets = indices(images.values(), G.order, GroupError, "image")
    reached, tree = np.arange(G.order) == 0, []
    _walk(G.table[:, gens].T, reached, tree)
    if not reached.all():
        raise GroupError("given elements do not generate G")
    perm = np.zeros(G.order, dtype=np.int64)
    for y, k, p in tree:
        perm[y] = G.table[perm[p], targets[k]]
    return Automorphism(G, perm)


def _orbit_least(perms: np.ndarray) -> np.ndarray:
    """The least point of each point's orbit under the group the rows of
    perms generate.  Each label m[x] is a point of x's orbit, at most x:
    for each row a, m[x] = min(m[x], m[a^(2^i) x]) for i = 0, 1, ...
    until no label moves, which leaves m constant on a's cycles; then
    m[x] = m[m[x]]; all until no label moves.  m is then constant on
    every orbit and each orbit's least point is its own label."""
    m = np.arange(perms.shape[1])
    while True:
        before = m
        for step in perms:
            low = np.minimum(m, m[step])
            while not np.array_equal(low, m):
                m, step = low, step[step]
                low = np.minimum(m, m[step])
        m = m[m]
        if np.array_equal(m, before):
            return m


def orbits(G: FiniteGroup, autos):
    """Orbit partition of <autos> acting on G, each orbit sorted; orbits
    ordered by least element."""
    least = _orbit_least(np.array([a.perm for a in autos],
                                  dtype=np.int64).reshape(-1, G.order))
    points = np.argsort(least, kind="stable")  # by orbit, then by point
    cuts = np.flatnonzero(np.diff(least[points])) + 1
    return [tuple(o.tolist()) for o in np.split(points, cuts)]


# ---------------------------------------------------------------------------
# central product


@dataclass
class CentralProduct:
    group: FiniteGroup
    factors: tuple  # (G1, G2)
    embed1: np.ndarray  # index map G1 -> group
    embed2: np.ndarray  # index map G2 -> group
    amalgamated: Subgroup  # image of Z1 = image of Z2 in group


def _check_iso(Z1: Subgroup, Z2: Subgroup, theta: dict) -> np.ndarray:
    """theta as an array, checked to be an isomorphism Z1 -> Z2."""
    keys = indices(theta, Z1.group.order, GroupError, "theta key")
    if not isinstance(theta, dict):
        raise GroupError(f"theta = {theta!r} is not a dict from Z1 to Z2")
    values = indices(theta.values(), Z2.group.order, GroupError,
                     "theta value")
    if set(keys.tolist()) != set(Z1.members) or \
            set(values.tolist()) != set(Z2.members):
        raise GroupError("theta is not a bijection Z1 -> Z2")
    th = np.zeros(Z1.group.order, dtype=np.int64)
    th[keys] = values
    z = np.array(Z1.members)
    if not np.array_equal(th[Z1.group.table[np.ix_(z, z)]],
                          Z2.group.table[np.ix_(th[z], th[z])]):
        raise GroupError("theta is not an isomorphism")
    return th


def central_product(G1: FiniteGroup, G2: FiniteGroup,
                    Z1: Subgroup, Z2: Subgroup,
                    theta: dict | None = None) -> CentralProduct:
    """(G1 x G2) / D with D = {(z, theta(z)^-1) : z in Z1}.

    Z_i must be central in G_i and theta an isomorphism Z1 -> Z2
    (default: match elements in enumeration order, then verify).  Each
    embedding is audited as an injective homomorphism on G_i.gens, and
    the embedded copies must commute and meet in the amalgamated one.
    """
    for i, Gi, Zi in ((1, G1, Z1), (2, G2, Z2)):
        if not set(Zi.members) <= set(center(Gi).members):
            raise GroupError(f"Z{i} is not central in G{i}")
    if len(Z1) != len(Z2):
        raise GroupError("central subgroups have different orders")
    if theta is None:
        theta = dict(zip(Z1.members, Z2.members))
    th = _check_iso(Z1, Z2, theta)

    v1, v2 = G1.order, G2.order
    v = v1 * v2 // len(Z1)
    _check_budget(v)
    zs = list(Z1.members)
    ws = G2.inv[th[zs]]  # D = {(z, theta(z)^-1)}
    t1, t2 = G1.table, G2.table
    # pair (a, b) has the int64 key a*v2 + b; its D-coset's least pair
    # key is the coset's representative, a running minimum over D that
    # holds v1*v2 keys at a time (e is in D: it starts from the pair)
    rep_of = np.arange(v1 * v2, dtype=np.int64).reshape(v1, v2)
    for z, w in zip(zs, ws):
        np.minimum(rep_of, t1[:, z].astype(np.int64)[:, None] * v2
                   + t2[:, w].astype(np.int64), out=rep_of)
    rep_of = rep_of.reshape(-1)
    # a coset's least key is its own representative
    reps = np.flatnonzero(rep_of == np.arange(rep_of.size))
    idx_of_pair = np.searchsorted(reps, rep_of)

    # element i is the coset of the pair (a[i], b[i]); the cosets of
    # (g, e) and (e, h) for g in G1.gens and h in G2.gens generate
    a, b = np.divmod(reps, v2)
    G = FiniteGroup(
        _fill(idx_of_pair[_factor_rows(G1, G2, a, b)].astype(np.uint16)),
        labels=[f"[{G1.labels[x]}.{G2.labels[y]}]"
                for x, y in zip(a.tolist(), b.tolist())],
        name=f"{G1.name}*{G2.name}")
    embed1 = idx_of_pair[np.arange(v1) * v2]
    embed2 = idx_of_pair[:v2]
    for i, Gi, emb in ((1, G1, embed1), (2, G2, embed2)):
        if np.bincount(emb).max() > 1:
            raise GroupError(f"embed{i} is not injective")
        _check_homomorphism(Gi, G, emb, f"embed{i}")
    amalg = Subgroup(G, tuple(embed1[zs].tolist()))
    # the embedded copies must commute elementwise and intersect in amalg
    if set(embed1.tolist()) & set(embed2.tolist()) != set(amalg.members):
        raise GroupError("embedded factors do not intersect in Z")
    if not np.array_equal(G.table[np.ix_(embed1, embed2)],
                          G.table[np.ix_(embed2, embed1)].T):
        raise GroupError("embedded factors do not commute")
    return CentralProduct(G, (G1, G2), embed1, embed2, amalg)
