"""Concrete finite groups as fully materialized index tables.

Elements are integers 0..v-1 with the identity at index 0.  Every
group built here carries its v x v uint16 multiplication table (so
v <= 32,768), and all downstream checks are exhaustive exact
arithmetic; arithmetic on table entries widens them to int64 first.
Every table is audited exactly at every order: a two-sided identity, a
right inverse in each row, and Light's associativity test over one
irredundant generating set G.gens (in a p-group, one of the minimum
size).  Heisenberg groups, the extraspecial group of order p^3 and
exponent p^2, Q8, abelian groups, and direct/central products are
provided, plus subgroups, the center, transversal tests, automorphisms
(audited on G.gens) and their orbits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ff import Field, is_prime

# the largest table a constructor will build: 2 bytes an entry, so
# v <= 32,768, and every entry v - 1 fits in uint16
TABLE_BYTES = 1 << 31
_ROWS = 64  # table rows per block in from_elements and the audit


class GroupError(ValueError):
    pass


def _check_budget(v: int):
    """Raise GroupError, before any v x v allocation, when an order-v
    table would exceed TABLE_BYTES."""
    if 2 * v * v > TABLE_BYTES:
        raise GroupError(f"order {v} needs a {2 * v * v:,}-byte table, "
                         f"over the {TABLE_BYTES:,}-byte budget")


def _reach(table: np.ndarray, gens: list, reached: np.ndarray):
    """Extend reached, in place, by right multiplication by gens until
    it is closed, and return it."""
    frontier = np.flatnonzero(reached)
    while frontier.size:
        image = table[frontier[:, None], gens].ravel()
        frontier = np.unique(image[~reached[image]])
        reached[frontier] = True
    return reached


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
        _reach(table, gens, reached)
    for a in list(gens):
        rest = [b for b in gens if b != a]
        if _reach(table, rest, np.arange(v) == 0).all():
            gens = rest
    return gens


def _audit_table(table: np.ndarray) -> list:
    """Check the group axioms on an in-range square table and return
    its generating set."""
    v = table.shape[0]
    if not (np.array_equal(table[0], np.arange(v))
            and np.array_equal(table[:, 0], np.arange(v))):
        raise GroupError("index 0 is not a two-sided identity")
    # two-sided inverses: every row and column is a permutation hitting 0
    no_inverse = np.flatnonzero(table.min(axis=1))
    if no_inverse.size:
        raise GroupError(f"element {no_inverse[0]} has no right inverse")
    # Light's test: (x a) y = x (a y) for all x, y and each generator a;
    # the a that pass are closed under products, so every element passes.
    # Blocks reuse two buffers; mode="clip" writes them without a copy.
    gens = _generators(table)
    left, right = np.empty((2, min(_ROWS, v), v), dtype=table.dtype)
    for a in gens:
        for s in range(0, v, _ROWS):
            n = min(_ROWS, v - s)
            np.take(table, table[s:s + n, a], axis=0, out=left[:n],
                    mode="clip")
            np.take(table[s:s + n], table[a], axis=1, out=right[:n],
                    mode="clip")
            if not np.array_equal(left[:n], right[:n]):
                x, y = np.argwhere(left[:n] != right[:n])[0]
                raise GroupError(f"associativity fails at a={a}: "
                                 f"(x a) y != x (a y) for x={s + x}, y={y}")
    return gens


def check_integer_cells(cells: list, shape: tuple):
    """Raise GroupError naming the first of cells (a table's entries,
    row-major over shape) that is not an integer; a bool is not one."""
    if {int}.issuperset(map(type, cells)):
        return
    for pos, x in enumerate(cells):
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            at = tuple(int(i) for i in np.unravel_index(pos, shape))
            raise GroupError(f"table entry {x!r} at {at} is not an integer")


def _integer_table(table) -> np.ndarray:
    """table as a square uint16 array: within the byte budget and
    range-checked before it is narrowed, so no entry can wrap;
    GroupError names the first entry that is not an integer."""
    arr = np.asarray(table)
    if arr.dtype.kind not in "iu" or not isinstance(table, np.ndarray):
        # numpy reads a True among a list's ints as 1: check each cell
        cells = np.asarray(table, dtype=object)
        check_integer_cells(cells.reshape(-1).tolist(), cells.shape)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
        raise GroupError("multiplication table must be square")
    _check_budget(len(arr))
    if arr.min() < 0 or arr.max() >= len(arr):
        raise GroupError("table entries out of range")
    return arr.astype(np.uint16, copy=False)


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
        self.order = table.shape[0]
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
        The uint16 table is filled _ROWS rows at a time: mul(g, h) gets
        the block's g-coordinates as arrays along axis 0 and h's
        coordinate i along axis i + 1, and returns the product's
        coordinates, each range-checked and added in at its stride.
        A coordinate below its range n times its stride stays below v,
        so uint16 holds every partial sum.
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
        # h's coordinate i on axis i + 1, the block's g-coordinates on 0
        h = tuple(np.arange(n).reshape((n,) + (1,) * (k - 1 - i))
                  for i, n in enumerate(shape))
        strides = [math.prod(shape[i + 1:]) for i in range(k)]
        table = np.zeros((v, v), dtype=np.uint16)
        for s in range(0, v, _ROWS):
            g = tuple(c.reshape((-1,) + (1,) * k)
                      for c in coords[s:s + _ROWS].T)
            block = table[s:s + _ROWS].reshape((-1,) + shape)
            for i, c in enumerate(mul(g, h)):
                c, n = np.asarray(c), shape[i]
                if c.dtype.kind not in "iu" or c.min() < 0 or c.max() >= n:
                    raise GroupError("product leaves the coordinate grid: "
                                     f"coordinate {i} outside 0..{n - 1}")
                block += c.astype(np.uint16, copy=False) * strides[i]
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
        mem = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", mem)
        v = self.group.order
        outside = [g for g in mem if not 0 <= g < v]
        if outside:
            raise GroupError(f"subgroup member {outside[0]} is not an "
                             f"element index 0..{v - 1}")
        if 0 not in mem:
            raise GroupError("subgroup must contain the identity")
        # a product-closed subset of a finite group holding e is a subgroup
        m = np.asarray(mem)
        open_at = np.argwhere(~np.isin(self.group.table[np.ix_(m, m)], m))
        if open_at.size:
            a, b = m[open_at[0]]
            raise GroupError(f"subgroup not closed at ({a},{b})")

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
        perm = np.asarray(self.perm)
        v = self.group.order
        if perm.dtype.kind not in "iu" or perm.shape != (v,) or \
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
        return tuple(sorted(int(self.perm[g]) for g in S))

    def order(self) -> int:
        n = 1
        cur = self.perm
        ident = np.arange(self.group.order)
        while not np.array_equal(cur, ident):
            cur = self.perm[cur]
            n += 1
        return n


# ---------------------------------------------------------------------------
# constructors


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("order must be positive")
    _check_budget(n)
    return FiniteGroup.from_elements(
        list(range(n)), lambda g, h: ((g[0] + h[0]) % n,), name=f"C{n}")


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    _check_budget(p ** k)
    els = list(itertools.product(range(p), repeat=k))
    return FiniteGroup.from_elements(
        els, lambda g, h: tuple((x + y) % p for x, y in zip(g, h)),
        name=f"C{p}^{k}")


def direct_product(G1: FiniteGroup, G2: FiniteGroup) -> FiniteGroup:
    """G1 x G2 on the pairs (a, b), with index a * |G2| + b."""
    _check_budget(G1.order * G2.order)
    t1, t2 = G1.table, G2.table
    return FiniteGroup.from_elements(
        list(itertools.product(range(G1.order), range(G2.order))),
        lambda g, h: (t1[g[0], h[0]], t2[g[1], h[1]]),
        name=f"{G1.name}x{G2.name}",
        label=lambda e: f"({G1.labels[e[0]]},{G2.labels[e[1]]})")


def heisenberg(F: Field, r: int = 1) -> FiniteGroup:
    """Heisenberg group of dimension 2r+1 over GF(q), q odd.

    Elements (x, y, z) in F^r x F^r x F with
    (x,y,z)(a,b,c) = (x+a, y+b, z+c+<x,b>).
    """
    if F.q % 2 == 0:
        raise GroupError("q must be odd")
    q = F.q
    _check_budget(q ** (2 * r + 1))
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
    if not is_prime(p) or p == 2:
        raise GroupError("p must be an odd prime")
    _check_budget(p ** 3)
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


def is_transversal(G: FiniteGroup, H: Subgroup, X):
    """(left, right): does X meet every left / right H-coset exactly once."""
    X = np.asarray(list(X))
    if X.size * len(H) != G.order:
        return (False, False)
    t, h = G.table, np.asarray(H.members)
    # right coset of g is Hg; X is a right transversal iff the sets Hx cover G
    right = np.unique(t[np.ix_(h, X)]).size == G.order
    left = np.unique(t[np.ix_(X, h)]).size == G.order
    return (left, right)


# ---------------------------------------------------------------------------
# automorphisms and orbits


def automorphism_from_images(G: FiniteGroup, images: dict) -> Automorphism:
    """Extend generator images to an automorphism; the generators must
    generate G and the images must respect every relation (verified on
    G.gens by the Automorphism audit)."""
    gens, targets = list(images), list(images.values())
    perm = np.full(G.order, -1, dtype=np.int64)
    perm[0] = 0
    t, frontier = G.table, np.zeros(1, dtype=np.int64)
    while frontier.size:  # phi(g s) = phi(g) phi(s), breadth first
        h, first = np.unique(t[frontier[:, None], gens], return_index=True)
        image = t[perm[frontier][:, None], targets].ravel()[first]
        new = perm[h] < 0
        frontier = h[new]
        perm[frontier] = image[new]
    if (perm < 0).any():
        raise GroupError("given elements do not generate G")
    return Automorphism(G, perm)


def orbits(G: FiniteGroup, autos):
    """Orbit partition of <autos> acting on G, each orbit sorted; orbits
    ordered by least element."""
    parent = list(range(G.order))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in autos:
        for g in range(G.order):
            rg, ri = find(g), find(int(a.perm[g]))
            if rg != ri:
                parent[max(rg, ri)] = min(rg, ri)
    buckets = {}
    for g in range(G.order):
        buckets.setdefault(find(g), []).append(g)
    return sorted((tuple(sorted(v)) for v in buckets.values()),
                  key=lambda o: o[0])


# ---------------------------------------------------------------------------
# central product


@dataclass
class CentralProduct:
    group: FiniteGroup
    factors: tuple  # (G1, G2)
    embed1: np.ndarray  # index map G1 -> group
    embed2: np.ndarray  # index map G2 -> group
    amalgamated: Subgroup  # image of Z1 = image of Z2 in group


def _check_iso(Z1: Subgroup, Z2: Subgroup, theta: dict):
    if set(theta) != set(Z1.members) or set(theta.values()) != set(Z2.members):
        raise GroupError("theta is not a bijection Z1 -> Z2")
    t1, t2 = Z1.group.table, Z2.group.table
    for a in Z1.members:
        for b in Z1.members:
            if theta[int(t1[a, b])] != int(t2[theta[a], theta[b]]):
                raise GroupError("theta is not an isomorphism")


def central_product(G1: FiniteGroup, G2: FiniteGroup,
                    Z1: Subgroup, Z2: Subgroup,
                    theta: dict | None = None) -> CentralProduct:
    """(G1 x G2) / D with D = {(z, theta(z)^-1) : z in Z1}.

    Z_i must be central in G_i and theta an isomorphism Z1 -> Z2
    (default: match elements in enumeration order, then verify).  Each
    embedding is audited as an injective homomorphism on G_i.gens, and
    the embedded copies must commute and meet in the amalgamated one.
    """
    # z is central iff its row of the table equals its column
    for i, Gi, Zi in ((1, G1, Z1), (2, G2, Z2)):
        zs = list(Zi.members)
        if not np.array_equal(Gi.table[zs], Gi.table[:, zs].T):
            raise GroupError(f"Z{i} is not central in G{i}")
    if len(Z1) != len(Z2):
        raise GroupError("central subgroups have different orders")
    if theta is None:
        theta = dict(zip(Z1.members, Z2.members))
    _check_iso(Z1, Z2, theta)

    v1, v2 = G1.order, G2.order
    v = v1 * v2 // len(Z1)
    _check_budget(v)
    zs = list(Z1.members)
    ws = G2.inv[[theta[z] for z in zs]]  # D = {(z, theta(z)^-1)}
    t1, t2 = G1.table, G2.table
    # pair (a, b) has the int64 key a*v2 + b; its D-coset's least pair
    # key is the coset's representative, a running minimum over D that
    # holds v1*v2 keys at a time (e is in D: it starts from the pair)
    rep_of = np.arange(v1 * v2, dtype=np.int64).reshape(v1, v2)
    for z, w in zip(zs, ws):
        np.minimum(rep_of, t1[:, z].astype(np.int64)[:, None] * v2
                   + t2[:, w].astype(np.int64), out=rep_of)
    rep_of = rep_of.reshape(-1)
    reps = np.unique(rep_of)
    idx_of_pair = np.searchsorted(reps, rep_of)

    # element i is the coset of the pair (a[i], b[i])
    a, b = np.divmod(reps, v2)
    G = FiniteGroup.from_elements(
        range(v), lambda g, h: (idx_of_pair[
            t1[a[g[0]], a[h[0]]].astype(np.int64) * v2
            + t2[b[g[0]], b[h[0]]].astype(np.int64)],),
        name=f"{G1.name}*{G2.name}",
        label=lambda i: f"[{G1.labels[a[i]]}.{G2.labels[b[i]]}]")
    embed1 = idx_of_pair[np.arange(v1) * v2]
    embed2 = idx_of_pair[:v2]
    for i, Gi, emb in ((1, G1, embed1), (2, G2, embed2)):
        if np.unique(emb).size != emb.size:
            raise GroupError(f"embed{i} is not injective")
        _check_homomorphism(Gi, G, emb, f"embed{i}")
    amalg = Subgroup(G, tuple(int(embed1[z]) for z in zs))
    # the embedded copies must commute elementwise and intersect in amalg
    if set(embed1.tolist()) & set(embed2.tolist()) != set(amalg.members):
        raise GroupError("embedded factors do not intersect in Z")
    if not np.array_equal(G.table[np.ix_(embed1, embed2)],
                          G.table[np.ix_(embed2, embed1)].T):
        raise GroupError("embedded factors do not commute")
    return CentralProduct(G, (G1, G2), embed1, embed2, amalg)
