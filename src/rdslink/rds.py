"""Verification and derivation for relative and partial difference sets:
the defining group-ring equations, semiregularity, i-commuting, the
product of two RDSs inside an ambient group, the correspondence with
antipodal distance-regular covers, developments, and the symplectic
cover graph used for comparison."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ff import Field, indices, is_int
from .groups import (CentralProduct, FiniteGroup, GroupError, Subgroup,
                     _check_budget, is_transversal)
from .groupring import Basis, GroupRingElement, class_values


class RdsError(ValueError):
    pass


class EquationFails(RdsError):
    def __init__(self, message, element=None, expected=None, actual=None):
        super().__init__(message)
        self.element = element
        self.expected = expected
        self.actual = actual


class LambdaNotPositive(RdsError):
    pass


class LemmaViolation(AssertionError):
    """The two i-commuting criteria disagreed; must never fire."""


class NotDistanceRegular(RdsError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class WrongDiameter(RdsError):
    pass


class NotTranslationInvariant(RdsError):
    """adj[x.g, y.g] != adj[x, y] for the generator g and the pair
    (x, y): the graph is not a Cayley graph on the group given."""

    def __init__(self, message, generator=None, pair=None):
        super().__init__(message)
        self.generator = generator
        self.pair = pair


@dataclass
class RdsCertificate:
    group: FiniteGroup
    X: tuple
    N: Subgroup
    m: int
    n: int
    k: int
    lam: int
    semiregular: bool
    reversible: bool
    i_commuting: bool

    @property
    def parameters(self):
        return (self.m, self.n, self.k, self.lam)

    def to_json(self):
        return {"group": self.group.name, "set": list(self.X),
                "set_labels": [self.group.labels[g] for g in self.X],
                "forbidden": list(self.N.members),
                "m": self.m, "n": self.n, "k": self.k, "lambda": self.lam,
                "semiregular": self.semiregular,
                "reversible": self.reversible,
                "i_commuting": self.i_commuting}


@dataclass
class PdsCertificate:
    group: FiniteGroup
    S: tuple
    v: int
    k: int
    lam: int
    mu: int

    @property
    def parameters(self):
        return (self.v, self.k, self.lam, self.mu)

    def to_json(self):
        return {"group": self.group.name, "set": list(self.S),
                "v": self.v, "k": self.k, "lambda": self.lam, "mu": self.mu}


@dataclass
class IntersectionArray:
    b0: int
    b1: int
    b2: int
    c1: int
    c2: int
    c3: int

    def __post_init__(self):
        if not (self.b0 > self.b1 >= self.b2 > 0):
            raise RdsError(f"infeasible b-sequence {self}")
        if not (self.c1 == 1 <= self.c2 <= self.c3):
            raise RdsError(f"infeasible c-sequence {self}")

    def as_tuple(self):
        return (self.b0, self.b1, self.b2, self.c1, self.c2, self.c3)

    def __str__(self):
        return (f"{{{self.b0},{self.b1},{self.b2};"
                f"{self.c1},{self.c2},{self.c3}}}")


# ---------------------------------------------------------------------------
# RDS / PDS verification


def verify_rds(G: FiniteGroup, X, N: Subgroup | None = None,
               basis: Basis | None = None) -> RdsCertificate:
    """Check X.X^(-1) = k e + lambda (G - N) exactly and certify.

    Without N, N is the one forbidden subgroup X allows: lambda > 0, so
    X.X^(-1) vanishes exactly on N^#, and N is e plus its zero set;
    RdsError when that set is not a subgroup.  With a certified basis
    of G (see groupring.Basis) the products are taken in it, and X must
    be a union of its classes (BasisError otherwise); N then is one
    too, as e plus a level set of X.X^(-1) once the equation holds."""
    x = GroupRingElement.indicator(G, X, basis)
    X = x.support()
    k = len(X)
    if N is not None and not (isinstance(N, Subgroup) and N.group is G):
        raise RdsError(f"forbidden subgroup is a {type(N).__name__}, not "
                       f"a Subgroup of {G.name}")
    xi = x.involution()
    xx = x * xi
    d = xx.vec.copy()
    if N is None:
        try:
            N = Subgroup(G, (0,) + tuple(np.flatnonzero(d == 0).tolist()))
        except GroupError as exc:
            raise RdsError(
                f"e plus the zero set of X.X^(-1) is not a subgroup: {exc}"
            ) from exc
    if d[0] != k:
        raise EquationFails(
            f"coefficient at identity is {int(d[0])}, expected {k}",
            element=0, expected=k, actual=int(d[0]))
    # X X^-1 - k e = lambda (G - N): zero on N, one constant off N
    d[0] -= k
    off_n = np.ones(G.order, dtype=np.int64)
    off_n[list(N.members)] = 0
    (_, lam), g = class_values(d, off_n, 2)
    if g is not None:
        if off_n[g]:
            raise EquationFails(
                f"coefficient {int(d[g])} at element {g} differs from "
                f"lambda = {lam}", element=g, expected=lam, actual=int(d[g]))
        raise EquationFails(
            f"nonzero coefficient {int(d[g])} on forbidden element {g}",
            element=g, expected=0, actual=int(d[g]))
    if not lam or lam <= 0:
        raise LambdaNotPositive(f"lambda = {lam} is not a positive integer")
    n = len(N)
    m = G.order // n
    if k * (k - 1) != lam * n * (m - 1):
        raise RdsError("parameter identity k(k-1) = lambda n (m-1) fails")
    semiregular = (k == m)
    # cross-check: X meets every right N-coset exactly once
    if semiregular and not is_transversal(G, N, X):
        raise LemmaViolation("k = m but X is not a right transversal")
    reversible = (xi == x)
    icom = is_icommuting(x, xx, N, xi)
    return RdsCertificate(G, X, N, m, n, k, lam, semiregular, reversible,
                          icom)


def is_icommuting(x: GroupRingElement, xx: GroupRingElement,
                  N: Subgroup, xi: GroupRingElement) -> bool:
    """Dual-checked for the indicator x of X, xx = X.X^(-1) and
    xi = X^(-1): X.X^(-1) = X^(-1).X must agree with X.N_ = N_.X.  For
    a reversible X, X^(-1).X is xx itself, and is not computed.
    Products are taken in x's basis, if it carries one."""
    nn = GroupRingElement.indicator(x.group, N.members, x.basis)
    by_product = (xi == x or xx == xi * x)
    by_subgroup = (x * nn == nn * x)
    if by_product != by_subgroup:
        raise LemmaViolation(
            f"i-commuting criteria disagree on X={x.support()}, "
            f"N={N.members}")
    return by_product


def verify_pds(G: FiniteGroup, S) -> PdsCertificate:
    """Check S.S^(-1) = |S| e + lambda S + mu (G^# - S) exactly."""
    s = GroupRingElement.indicator(G, S)
    S = s.support()
    k = len(S)
    d = (s * s.involution()).vec
    # classes {e}, S^# and the rest: lambda on S^#, mu on the rest
    class_of = 2 - s.vec
    class_of[0] = 0
    (_, lam, mu), g = class_values(d, class_of, 3)
    if g is not None:
        on_s = class_of[g] == 1
        raise EquationFails(
            f"coefficient not constant {'on' if on_s else 'off'} S at {g}",
            element=g, expected=lam if on_s else mu, actual=int(d[g]))
    expected_e = k + (lam or 0) * int(s.vec[0])
    if d[0] != expected_e:
        raise EquationFails(
            f"identity coefficient {int(d[0])}, expected {expected_e}",
            element=0, expected=expected_e, actual=int(d[0]))
    return PdsCertificate(G, S, G.order, k, lam or 0, mu or 0)


def rds_to_pds(G: FiniteGroup, X, N: Subgroup):
    """S = X^# union N^# for a reversible semiregular RDS with lambda = n."""
    cert = verify_rds(G, X, N)
    if not cert.semiregular or not cert.reversible:
        raise RdsError("X must be a reversible semiregular RDS")
    if cert.lam != cert.n:
        raise RdsError(f"lambda = {cert.lam} must equal n = {cert.n}")
    S = tuple(sorted((set(cert.X) | set(N.members)) - {0}))
    return S, verify_pds(G, S)


# ---------------------------------------------------------------------------
# product of RDSs


def product_sets(cp: CentralProduct, c1, c2, pairs, error) -> list:
    """The sorted sets embed1(X) embed2(Y) in cp.group, one per (X, Y)
    in pairs.  c1 and c2 are RDS or linked certificates over cp's
    factors G1 and G2 whose forbidden subgroups embed onto the
    amalgamated N; the embeddings are audited monomorphisms, so what c_i
    certifies in Z[G_i] holds for the embedded sets relative to N.
    Raises error otherwise, or when two products in one set coincide."""
    N = np.asarray(cp.amalgamated.members)
    for i, (c, Gi, emb) in enumerate(
            zip((c1, c2), cp.factors, (cp.embed1, cp.embed2)), 1):
        if c.group is not Gi:
            raise error(f"certificate {i} is over {c.group.name}, not the "
                        f"factor G{i} of the central product")
        if not np.array_equal(np.sort(emb[list(c.N.members)]), N):
            raise error(f"embed{i} does not carry certificate {i}'s "
                        f"forbidden subgroup onto the amalgamated one")
    out = []
    for X, Y in pairs:
        prods = np.sort(cp.group.table[np.ix_(cp.embed1[list(X)],
                                              cp.embed2[list(Y)])], axis=None)
        if (prods[1:] == prods[:-1]).any():
            raise error("collision in member products")
        out.append(tuple(prods.tolist()))
    return out


def rds_product(cp: CentralProduct, c1: RdsCertificate,
                c2: RdsCertificate) -> RdsCertificate:
    """The product RDS X1 X2 in the central product G = G1 G2 over N.

    c1 and c2 certify semiregular RDSs X1 in G1 and X2 in G2 whose
    forbidden subgroups embed onto N = cp.amalgamated (see product_sets),
    X1 i-commuting; the product is re-verified from scratch against the
    predicted parameters.
    """
    if not (c1.semiregular and c2.semiregular):
        raise RdsError("factor RDS is not semiregular")
    # i-commuting is an identity in Z[G1], which the embedding preserves
    if not c1.i_commuting:
        raise RdsError("X1 must be i-commuting")
    (X,) = product_sets(cp, c1, c2, [(c1.X, c2.X)], RdsError)
    cert = verify_rds(cp.group, X, cp.amalgamated)
    n, lam = cert.n, c1.lam * c2.lam
    expect = (n ** 2 * lam, n, n ** 2 * lam, n * lam)
    if cert.parameters != expect:
        raise RdsError(
            f"product parameters {cert.parameters} differ from the "
            f"predicted {expect}")
    return cert


# ---------------------------------------------------------------------------
# graphs


def certify_drg3(adj: np.ndarray, group: FiniteGroup):
    """Certify a Cayley graph on group as diameter-3 distance-regular.

    Returns (IntersectionArray, antipodal classes) where the classes
    are the equivalence classes of the distance-0-or-3 relation, each
    once, listed by least member; raises if distances exceed 3, the
    graph is disconnected, the intersection numbers vary, or the
    distance-3 relation is not an equivalence.  WrongDiameter takes
    precedence over NotDistanceRegular.

    adj must be a Cayley graph on G = group's elements, such as
    cayley_adjacency(G, S).  Each right translation x -> x.g by a
    generator g in G.gens is first checked to be an automorphism,
    adj[x.g, y.g] == adj[x, y] for every x, y (NotTranslationInvariant
    otherwise).  G.gens generates G, so x -> x.w is an automorphism
    carrying e to w for every w: the graph is vertex-transitive, and
    the distances and intersection numbers seen from e are those seen
    from every base.  adj[x, y] is then adj[e, y.x^-1], so row e alone
    decides symmetry and loops.  One breadth-first search from e then
    certifies the array, with witnesses (0, w).
    d(x, y) = d(e, y.x^-1), so the distance-3 relation is an
    equivalence exactly when C = {w : d(e, w) in {0, 3}} is closed
    under the product, and its classes are the right cosets C.w.  The
    cost is |G.gens| v^2 table-indexed cells, plus v^2 for the search
    and v for the symmetry check; nothing is sampled and no v x v float
    matrix is built.
    """
    adj = np.asarray(adj, dtype=bool)
    if adj.shape != (group.order,) * 2:
        raise RdsError(f"adjacency has {adj.shape[0]} vertices (shape "
                       f"{adj.shape}) but {group.name} has order "
                       f"{group.order}")
    t = group.table
    for g in group.gens:
        right = t[:, g].astype(np.intp)  # x -> x.g
        bad = np.take(adj[right], right, axis=1) != adj
        if bad.any():
            x, y = divmod(int(bad.argmax()), len(adj))
            raise NotTranslationInvariant(
                f"right translation by generator {g} is no automorphism: "
                f"adj[{x}, {y}] = {bool(adj[x, y])} but "
                f"adj[{int(right[x])}, {int(right[y])}] = "
                f"{bool(adj[right[x], right[y]])}", generator=g, pair=(x, y))
    # adj[x, y] = adj[e, y.x^-1]: symmetric and loop-free iff row e is
    if adj[0, 0] or not np.array_equal(adj[0, group.inv], adj[0]):
        raise RdsError("adjacency must be symmetric and loop-free")
    dist = np.full(adj.shape[0], -1, dtype=np.int8)
    dist[0] = 0
    near = []  # near[d][w] = neighbours of w at distance d from e
    for d in range(4):
        near.append(adj[dist == d].sum(axis=0))
        dist[(near[d] > 0) & (dist < 0)] = d + 1
    # -1 is beyond 4 or unreachable
    if (dist < 0).any() or dist.max() != 3:
        ecc = "over 4" if (dist < 0).any() else int(dist.max())
        raise WrongDiameter(f"base 0 has eccentricity {ecc}, expected 3")
    nums = {}
    for i in (1, 2, 3):
        # c_i on layer i, b_(i-1) on layer i - 1
        for key, layer, d in ((f"c_{i}", i, i - 1), (f"b_{i - 1}", i - 1, i)):
            ws = np.flatnonzero(dist == layer)
            counts = near[d][ws]
            nums[key] = int(counts[0])
            off = ws[counts != counts[0]]
            if off.size:
                w = int(off[0])
                raise NotDistanceRegular(
                    f"{key} is {int(near[d][w])} at base 0, vertex {w} "
                    f"but {nums[key]} at base 0, vertex {int(ws[0])}",
                    witness=(0, w))
    arr = IntersectionArray(nums["b_0"], nums["b_1"], nums["b_2"],
                            nums["c_1"], nums["c_2"], nums["c_3"])
    # d(x, y) = d(e, y.x^-1): distance 3 is an equivalence iff C is
    # closed, and its classes are the right cosets C.w
    in_c = (dist == 0) | (dist == 3)
    C = np.flatnonzero(in_c)
    if not in_c[t[np.ix_(C, C)]].all():
        raise RdsError("distance-3 relation is not an equivalence")
    return arr, dev(group, C)


def cayley_adjacency(G: FiniteGroup, S) -> np.ndarray:
    """u ~ v iff v u^-1 in S; S must be reversible and identity-free."""
    s = GroupRingElement.indicator(G, S).vec
    if s[0]:
        raise RdsError("connection set must be identity-free")
    if not np.array_equal(s[G.inv], s):
        raise RdsError("connection set must be reversible")
    adj = np.zeros((G.order, G.order), dtype=bool)
    adj[np.arange(G.order), G.table[np.flatnonzero(s)]] = True
    return adj


def cayley_drg_check(G: FiniteGroup, S):
    """Certify Cay(G, S) as a diameter-3 antipodal DRG; returns the
    intersection array and the distance-3 classes."""
    return certify_drg3(cayley_adjacency(G, S), G)


def thas_somma(F: Field, r: int):
    """Cover graph on F^(2r+1): (a, alpha) ~ (b, beta) iff
    B(a, b) = alpha - beta and a != b, for the standard symplectic form
    B(a, c) = sum_i a_i c_(r+i) - a_(r+i) c_i.  Returns (adjacency, G_B).

    G_B is F^(2r+1) under (a, alpha)(c, gamma) = (a + c, alpha + gamma
    + B(a, c)), and G_B.elements, the pairs ((a_1, ..., a_2r), alpha)
    in grid order, are the vertices.  The graph is
    Cay(G_B, {(b, 0) : b != 0}): (b, 0)(a, alpha) is
    (a + b, alpha + B(b, a)), and B(a, a + b) = B(a, b) = -B(b, a)
    since B is alternating.  Every nondegenerate alternating form is
    congruent to B, so every choice gives an isomorphic graph.
    """
    if not is_int(r) or r < 0:
        raise RdsError(f"r = {r!r} is not a non-negative int")
    d, q = 2 * r, F.q
    _check_budget(q, d + 1)
    vecs = itertools.product(F.elements(), repeat=d)
    els = [(a, alpha) for a in vecs for alpha in F.elements()]

    def mul(g, h):
        z = F.add(g[d], h[d])
        for i in range(r):  # + B(a, c)
            z = F.add(z, F.sub(F.mul(g[i], h[r + i]), F.mul(g[r + i], h[i])))
        return [F.add(x, y) for x, y in zip(g[:d], h[:d])] + [z]

    G = FiniteGroup.from_elements(els, mul, name=f"G_B({q},{r})")
    # (b, 0) has index q * b for b = 0..q^(2r) - 1 in grid order
    return cayley_adjacency(G, np.arange(q, G.order, q)), G


def dev(G: FiniteGroup, X):
    """Development {Xg : g in G}, distinct blocks only."""
    X = indices(X, G.order, RdsError, "base block member")
    rows = np.sort(G.table[X].T, axis=1)  # row g is the block Xg
    if X.size:  # in lexicographic order, as blocks compare
        rows = rows[np.lexsort(rows.T[::-1])]
    repeat = (rows[1:] == rows[:-1]).all(axis=1)
    return list(map(tuple, rows[np.r_[True, ~repeat]].tolist()))
