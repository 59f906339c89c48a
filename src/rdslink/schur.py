"""Schur-ring machinery: partitions into basic sets, structure constants,
cyclotomic partitions from automorphism orbits, and the Latin-square
amorphic partitions over elementary abelian groups of square order."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ff import Field
from .groups import FiniteGroup, Automorphism, _check_budget, orbits
from .groupring import GroupRingElement, class_values


class SRingError(ValueError):
    pass


class SchurPartition:
    """A partition of G into basic sets with {e} a class and classes
    closed under inversion."""

    def __init__(self, group: FiniteGroup, classes):
        classes = [tuple(sorted(set(c))) for c in classes]
        v = group.order
        class_of = np.full(v, -1, dtype=np.int64)
        for i, c in enumerate(classes):
            for g in c:
                if isinstance(g, bool) or not isinstance(
                        g, (int, np.integer)) or not 0 <= g < v:
                    raise SRingError(f"class {i} has member {g!r}, not an "
                                     f"element index 0..{v - 1}")
                if class_of[g] >= 0:
                    raise SRingError(f"element {g} appears in two classes")
                class_of[g] = i
        if (class_of < 0).any():
            missing = int(np.where(class_of < 0)[0][0])
            raise SRingError(f"element {missing} not covered")
        self.group = group
        self.classes = classes
        self.class_of = class_of
        self.identity_class = int(class_of[0])
        if classes[self.identity_class] != (0,):
            raise SRingError("{e} must be a class on its own")
        inv = group.inv
        for i, c in enumerate(classes):
            ic = tuple(sorted(int(inv[g]) for g in c))
            if class_of[ic[0]] != class_of[ic[-1]] or \
                    self.classes[int(class_of[ic[0]])] != ic:
                raise SRingError(f"inverse of class {i} is not a class")

    @property
    def rank(self):
        return len(self.classes)

    def class_sizes(self):
        return [len(c) for c in self.classes]

    def to_json(self):
        return {"group": self.group.name,
                "classes": [list(c) for c in self.classes]}


@dataclass
class StructureConstants:
    partition: SchurPartition
    tensor: np.ndarray  # c[X][Y][Z]

    def __getitem__(self, key):
        return int(self.tensor[key])


def verify_sring(P: SchurPartition) -> StructureConstants:
    """Check that span{X_ : X in classes} is closed under the group-ring
    product; return the full structure-constant tensor, or raise with
    the first violating (X, Y, z1, z2)."""
    G = P.group
    r = P.rank
    tensor = np.zeros((r, r, r), dtype=np.int64)
    inds = [GroupRingElement.indicator(G, c) for c in P.classes]
    # star[i] is the class of inverses of class i.  (C_i C_j)* =
    # C_star(j) C_star(i) in any group ring, so (star j, star i) takes the
    # values of (i, j) at inverse classes; of the two, the pair that comes
    # first in this loop is computed
    star = P.class_of[G.inv[[c[0] for c in P.classes]]].tolist()
    for i in range(r):
        for j in range(r):
            if (star[j], star[i]) < (i, j):
                continue
            prod = (inds[i] * inds[j]).vec
            values, bad = class_values(prod, P.class_of, r)
            if bad is not None:
                k = int(P.class_of[bad])
                c = P.classes[k]
                counts = prod[list(c)]
                raise SRingError(
                    f"product of classes {i},{j} is not constant on "
                    f"class {k}: counts {int(counts.min())} vs "
                    f"{int(counts.max())} (elements {c[0]},{bad})")
            tensor[i, j] = values
            tensor[star[j], star[i], star] = values
    return StructureConstants(P, tensor)


def cyclotomic(G: FiniteGroup, gens) -> SchurPartition:
    """Orbit partition of <gens> <= Aut(G); always an S-ring (asserted)."""
    for a in gens:
        if not isinstance(a, Automorphism):
            raise SRingError("generators must be verified automorphisms")
    P = SchurPartition(G, orbits(G, gens))
    verify_sring(P)  # Schur's theorem; must never fail
    return P


# ---------------------------------------------------------------------------
# Latin-square amorphic partitions over F_n^2


def affine_plane_group(F: Field) -> FiniteGroup:
    """Elementary abelian group of order n^2 realized as F_n x F_n."""
    _check_budget(F.q ** 2)
    els = [(x, y) for x in F.elements() for y in F.elements()]

    def mul(a, b):
        return (F.add(a[0], b[0]), F.add(a[1], b[1]))

    return FiniteGroup.from_elements(els, mul, name=f"EA({F.q}^2)")


def lines_through_origin(F: Field, G: FiniteGroup):
    """The n+1 punctured lines of F^2, enumerated by slope
    (infinity, 0, 1, ... in field order)."""
    n = F.q
    lines = [tuple(G.index[(0, y)] for y in range(1, n))]  # slope infinity
    for s in F.elements():
        lines.append(tuple(sorted(
            G.index[(x, F.mul(s, x))] for x in range(1, n))))
    return lines


def default_labeling(n: int, t: int):
    """Cells P_h over h = 0..t-1: P_0 takes the first n/t + 1 lines,
    then consecutive blocks of n/t."""
    w = n // t
    cells = [tuple(range(w + 1))]
    pos = w + 1
    for _ in range(t - 1):
        cells.append(tuple(range(pos, pos + w)))
        pos += w
    return cells


def amorphic_latin(F: Field, t: int, labeling=None):
    """Rank t+1 Latin-square amorphic partition over F_n x F_n.

    Returns (G, sets) where sets[h] for h = 0..t-1 (0 playing the role
    of the identity label) unions the lines of cell P_h.  The partition
    is re-verified as an S-ring and against the two-case product
    relation before it is returned.
    """
    n = F.q
    if t < 1 or n % t != 0:
        raise SRingError(f"t = {t} does not divide n = {n}")
    G = affine_plane_group(F)
    lines = lines_through_origin(F, G)
    if labeling is None:
        labeling = default_labeling(n, t)
    if len(labeling) != t:
        raise SRingError("labeling must have t cells")
    if sorted(len(c) for c in labeling[1:]) != [n // t] * (t - 1) or \
            len(labeling[0]) != n // t + 1:
        raise SRingError("labeling cells must have sizes n/t + 1, n/t, ...")
    if sorted(itertools.chain(*labeling)) != list(range(n + 1)):
        raise SRingError("labeling must partition the n + 1 lines")
    sets = {}
    for h, cell in enumerate(labeling):
        members = []
        for i in cell:
            members.extend(lines[i])
        sets[h] = tuple(sorted(members))
    if t > 1:
        P = SchurPartition(G, [(0,)] + [sets[h] for h in range(t)])
        verify_sring(P)
    ok, witness = check_amorph_relations(G, sets, n)
    if not ok:
        raise SRingError(f"amorph relation fails at pair {witness}")
    return G, sets


def check_amorph_relations(G: FiniteGroup, sets: dict, n: int):
    """Exact verdict on the two-case Latin-square product relation:

      X_h * X_h  = k_h(n-1) e + (n - 2 k_h) X_h + k_h(k_h - 1) G^#
      X_h * X_h' = k_h k_h' G^# - k_h' X_h - k_h X_h'   (h != h')

    with k_h = |X_h| / (n-1).  Returns (True, None) or
    (False, first offending pair)."""
    e = GroupRingElement.basis(G, 0)
    allg = GroupRingElement.indicator(G, range(G.order))
    gsharp = allg - e
    ind = {h: GroupRingElement.indicator(G, s) for h, s in sets.items()}
    k = {}
    for h, s in sets.items():
        if len(s) % (n - 1):
            return False, (h, h)
        k[h] = len(s) // (n - 1)
    for h, h2 in itertools.product(sets, repeat=2):
        lhs = ind[h] * ind[h2]
        if h == h2:
            rhs = (k[h] * (n - 1)) * e + (n - 2 * k[h]) * ind[h] \
                + (k[h] * (k[h] - 1)) * gsharp
        else:
            rhs = (k[h] * k[h2]) * gsharp - k[h2] * ind[h] - k[h] * ind[h2]
        if lhs != rhs:
            return False, (h, h2)
    return True, None
