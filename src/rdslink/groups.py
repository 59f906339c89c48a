"""Concrete finite groups as fully materialized index tables.

Elements are integers 0..v-1 with the identity at index 0.  Every
group built here carries its v x v multiplication table, so all
downstream checks are exhaustive exact arithmetic.  Heisenberg groups,
the extraspecial group of order p^3 and exponent p^2, Q8, abelian
groups, and direct/central products are provided, plus subgroups, the
center, transversal tests, automorphisms and their orbits.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .ff import Field, is_prime

TABLE_LIMIT = 65536
EXHAUSTIVE_AUDIT = 512
SAMPLE_AUDIT = 100_000


class GroupError(ValueError):
    pass


def _audit_table(table: np.ndarray):
    v = table.shape[0]
    if table.shape != (v, v):
        raise GroupError("multiplication table must be square")
    if table.min() < 0 or table.max() >= v:
        raise GroupError("table entries out of range")
    if not (np.array_equal(table[0], np.arange(v))
            and np.array_equal(table[:, 0], np.arange(v))):
        raise GroupError("index 0 is not a two-sided identity")
    # two-sided inverses: every row and column is a permutation hitting 0
    no_inverse = np.flatnonzero(table.min(axis=1))
    if no_inverse.size:
        raise GroupError(f"element {no_inverse[0]} has no right inverse")
    # associativity: exhaustive for small orders, deterministic sample above
    if v <= EXHAUSTIVE_AUDIT:
        for a in range(v):
            if not np.array_equal(table[table[a]], table[a][table]):
                raise GroupError(f"associativity fails at a={a}")
    else:
        rng = random.Random(0xC0FFEE)
        for _ in range(SAMPLE_AUDIT):
            a = rng.randrange(v)
            b = rng.randrange(v)
            c = rng.randrange(v)
            if table[table[a, b], c] != table[a, table[b, c]]:
                raise GroupError(f"associativity fails at ({a},{b},{c})")


def _integer_table(table) -> np.ndarray:
    """table as an int64 array; GroupError names the first entry that
    is not an integer."""
    arr = np.asarray(table)
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64, copy=False)
    entries = np.asarray(table, dtype=object)
    for pos, x in enumerate(entries.reshape(-1).tolist()):
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
            at = tuple(int(i) for i in np.unravel_index(pos, entries.shape))
            raise GroupError(f"table entry {x!r} at {at} is not an integer")
    return arr.astype(np.int64)


def _flat(el):
    """The integer coordinates of an element; nested tuples read flat."""
    return ([c for part in el for c in _flat(part)]
            if isinstance(el, tuple) else [el])


class FiniteGroup:
    """A finite group on indices 0..v-1 with a materialized Cayley table."""

    def __init__(self, table, labels=None, name="group", elements=None,
                 audit=True):
        table = _integer_table(table)
        if audit:
            _audit_table(table)
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
        self._orders = None

    @classmethod
    def from_elements(cls, elements, mul, name="group", label=None):
        """Materialize a group from its elements and an array product rule.

        Each element is a tuple of integer coordinates (nested tuples
        read flat, an int is one coordinate) and together they fill the
        grid of coordinate ranges once; elements[0] must be the identity.
        mul(g, h) gets every element's coordinates as arrays along
        separate axes, g's on the first half and h's on the second, and
        returns the product's coordinates: one broadcast evaluation
        covers all v^2 pairs.
        """
        v = len(elements)
        if v > TABLE_LIMIT:
            raise GroupError(f"order {v} exceeds table limit {TABLE_LIMIT}")
        coords = np.array([_flat(el) for el in elements], dtype=np.int64)
        shape = tuple(int(n) for n in coords.max(axis=0) + 1)
        grid = np.ravel_multi_index(tuple(coords.T), shape)
        if math.prod(shape) != v or np.unique(grid).size != v:
            raise GroupError("elements must fill their coordinate grid once")
        k = len(shape)
        axes = [np.arange(n).reshape((n,) + (1,) * (2 * k - 1 - i))
                for i, n in enumerate(shape + shape)]
        try:
            prod = np.ravel_multi_index(
                tuple(mul(tuple(axes[:k]), tuple(axes[k:]))), shape)
        except ValueError as exc:
            raise GroupError(f"product leaves the coordinate grid: {exc}")
        table = prod.reshape(v, v)
        if not np.array_equal(grid, np.arange(v)):  # listed off grid order
            position = np.empty(v, dtype=np.int64)
            position[grid] = np.arange(v)
            table = position[table[np.ix_(grid, grid)]]
        labels = [(label or str)(el) for el in elements]
        return cls(table, labels=labels, name=name, elements=list(elements))

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def element_order(self, g: int) -> int:
        n, x = 1, g
        while x != 0:
            x = int(self.table[x, g])
            n += 1
        return n

    def element_orders(self):
        if self._orders is None:
            self._orders = [self.element_order(g) for g in range(self.order)]
        return self._orders

    def exponent(self) -> int:
        return math.lcm(*self.element_orders())

    def is_abelian(self) -> bool:
        return np.array_equal(self.table, self.table.T)

    def to_json(self):
        return {"name": self.name, "order": self.order,
                "table": self.table.tolist(), "labels": self.labels}

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    group: FiniteGroup
    members: tuple  # sorted element indices

    def __post_init__(self):
        mem = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", mem)
        if 0 not in mem:
            raise GroupError("subgroup must contain the identity")
        mset = set(mem)
        t = self.group.table
        for a in mem:
            if int(self.group.inv[a]) not in mset:
                raise GroupError(f"subgroup not closed under inverse at {a}")
            for b in mem:
                if int(t[a, b]) not in mset:
                    raise GroupError(f"subgroup not closed at ({a},{b})")

    def __len__(self):
        return len(self.members)

    def __contains__(self, g):
        return g in set(self.members)


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
        t = self.group.table
        if not np.array_equal(perm[t], t[perm][:, perm]):
            bad = np.argwhere(perm[t] != t[perm][:, perm])[0]
            raise GroupError(
                f"not a homomorphism at pair ({bad[0]},{bad[1]})")

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
    return FiniteGroup.from_elements(
        list(range(n)), lambda g, h: ((g[0] + h[0]) % n,), name=f"C{n}")


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    if not is_prime(p):
        raise GroupError(f"{p} is not prime")
    els = list(itertools.product(range(p), repeat=k))
    return FiniteGroup.from_elements(
        els, lambda g, h: tuple((x + y) % p for x, y in zip(g, h)),
        name=f"C{p}^{k}")


def direct_product(G1: FiniteGroup, G2: FiniteGroup) -> FiniteGroup:
    v1, v2 = G1.order, G2.order
    if v1 * v2 > TABLE_LIMIT:
        raise GroupError("direct product exceeds table limit")
    t1, t2 = G1.table, G2.table
    # mixed-radix index (a1, a2) -> a1*v2 + a2
    table = (t1[:, None, :, None] * v2 + t2[None, :, None, :]).reshape(
        v1 * v2, v1 * v2)
    labels = [f"({G1.labels[a]},{G2.labels[b]})"
              for a in range(v1) for b in range(v2)]
    G = FiniteGroup(table, labels=labels, name=f"{G1.name}x{G2.name}")
    G.embed1 = np.arange(v1) * v2
    G.embed2 = np.arange(v2)
    return G


def heisenberg(F: Field, r: int = 1) -> FiniteGroup:
    """Heisenberg group of dimension 2r+1 over GF(q), q odd.

    Elements (x, y, z) in F^r x F^r x F with
    (x,y,z)(a,b,c) = (x+a, y+b, z+c+<x,b>).
    """
    if F.q % 2 == 0:
        raise GroupError("q must be odd")
    q = F.q
    if q ** (2 * r + 1) > TABLE_LIMIT:
        raise GroupError("group exceeds table limit")
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
    p2 = p * p
    els = [(a, b) for a in range(p2) for b in range(p)]
    # identity (0,0) is first in this enumeration
    els.sort()

    def mul(g, h):
        (a, b), (c, d) = g, h
        return ((a + c + p * b * c) % p2, (b + d) % p)

    return FiniteGroup.from_elements(
        els, mul, name=f"M{p ** 3}",
        label=lambda e: f"x^{e[0]}y^{e[1]}")


def quaternion8() -> FiniteGroup:
    """Q8 = <a, b : a^4 = e, a^2 = b^2, b a b^-1 = a^-1>.

    Pairs (i, j) represent a^i b^j with i mod 4, j in {0, 1}.
    """
    els = [(i, j) for j in range(2) for i in range(4)]
    els.sort(key=lambda e: (e[1], e[0]))

    def mul(g, h):
        (i, j), (k, l) = g, h
        # b a^k = a^-k b, b^2 = a^2
        return ((i + k - 2 * j * k + 2 * j * l) % 4, (j + l) % 2)

    return FiniteGroup.from_elements(
        els, mul, name="Q8", label=lambda e: f"a^{e[0]}b^{e[1]}")


# ---------------------------------------------------------------------------
# center and transversals


def center(G: FiniteGroup) -> Subgroup:
    t = G.table
    members = [g for g in range(G.order)
               if np.array_equal(t[g], t[:, g])]
    return Subgroup(G, tuple(members))


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
    the full table by the Automorphism audit)."""
    gens = list(images)
    perm = np.full(G.order, -1, dtype=np.int64)
    perm[0] = 0
    t = G.table
    frontier = [0]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = int(t[g, s])
                if perm[h] < 0:
                    perm[h] = int(t[perm[g], images[s]])
                    nxt.append(h)
        frontier = nxt
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
    (default: match elements in enumeration order, then verify).
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
    if v1 * v2 // len(Z1) > TABLE_LIMIT:
        raise GroupError("central product exceeds table limit")
    zs = list(Z1.members)
    ws = G2.inv[[theta[z] for z in zs]]  # D = {(z, theta(z)^-1)}
    t1, t2 = G1.table, G2.table
    # pair (a, b) has index a*v2 + b; its D-coset's least pair index
    # is the coset's representative
    rep_of = (t1[:, zs][:, None, :] * v2 + t2[:, ws][None, :, :]).min(
        axis=2).reshape(-1)
    reps = np.unique(rep_of)
    idx_of_pair = np.searchsorted(reps, rep_of)

    a, b = np.divmod(reps, v2)
    pairs = t1[np.ix_(a, a)] * v2
    pairs += t2[np.ix_(b, b)]
    table = idx_of_pair[pairs]
    del pairs
    labels = [f"[{G1.labels[r // v2]}.{G2.labels[r % v2]}]"
              for r in reps.tolist()]
    G = FiniteGroup(table, labels=labels,
                    name=f"{G1.name}*{G2.name}")
    embed1 = idx_of_pair[np.arange(v1) * v2]
    embed2 = idx_of_pair[:v2]
    amalg = Subgroup(G, tuple(int(embed1[z]) for z in zs))
    # the embedded copies must commute elementwise and intersect in amalg
    if set(embed1.tolist()) & set(embed2.tolist()) != set(amalg.members):
        raise GroupError("embedded factors do not intersect in Z")
    if not np.array_equal(table[np.ix_(embed1, embed2)],
                          table[np.ix_(embed2, embed1)].T):
        raise GroupError("embedded factors do not commute")
    return CentralProduct(G, embed1, embed2, amalg)
