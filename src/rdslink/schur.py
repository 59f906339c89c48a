"""Schur-ring machinery: partitions into basic sets, structure constants,
cyclotomic partitions from automorphism orbits, and the Latin-square
amorphic partitions over elementary abelian groups of square order."""

from __future__ import annotations

import itertools

import numpy as np

from .ff import Field, indices, require_ints
from .groups import FiniteGroup, Automorphism, _check_budget, orbits
from .groupring import Basis, GroupRingElement, class_values


class SRingError(ValueError):
    pass


class SchurPartition:
    """A partition of G into basic sets with {e} a class and classes
    closed under inversion, class i onto class star[i].  basis is None
    until a construction here certifies the partition as an S-ring: it
    then holds the tensor verify_sring returned, as a product basis."""

    def __init__(self, group: FiniteGroup, classes):
        v = group.order
        if not isinstance(classes, (list, tuple)):
            raise SRingError(f"classes is {classes!r}, not a sequence")
        classes = [tuple(sorted(set(indices(
            c, v, SRingError, f"class {i} member").tolist())))
            for i, c in enumerate(classes)]
        empty = [i for i, c in enumerate(classes) if not c]
        if empty:
            raise SRingError(f"class {empty[0]} is empty")
        class_of = np.full(v, -1, dtype=np.int64)
        for i, c in enumerate(classes):
            for g in c:
                if class_of[g] >= 0:
                    raise SRingError(f"element {g} appears in two classes")
                class_of[g] = i
        if (class_of < 0).any():
            missing = int(np.where(class_of < 0)[0][0])
            raise SRingError(f"element {missing} not covered")
        if classes[int(class_of[0])] != (0,):
            raise SRingError("{e} must be a class on its own")
        # g -> g^-1 is a bijection: the inverse of class i is a class iff
        # every inverse lies in class star[i], of the same size
        star = class_of[group.inv[[c[0] for c in classes]]]
        sizes = np.bincount(class_of)
        bad = sizes[star] != sizes
        bad[class_of[class_of[group.inv] != star[class_of]]] = True
        if bad.any():
            raise SRingError(f"inverse of class {bad.argmax()} is not a class")
        self.group = group
        self.classes = classes
        self.class_of = class_of
        self.star = star.tolist()
        self.basis = None

    @property
    def rank(self):
        return len(self.classes)

    def class_sizes(self):
        return [len(c) for c in self.classes]

    def to_json(self):
        return {"group": self.group.name,
                "classes": [list(c) for c in self.classes]}


def verify_sring(P: SchurPartition) -> np.ndarray:
    """Check that span{X_ : X in classes} is closed under the group-ring
    product; return the full int64 structure-constant tensor c[X][Y][Z],
    or raise with the first violating (X, Y, z1, z2)."""
    G = P.group
    r = P.rank
    tensor = np.zeros((r, r, r), dtype=np.int64)
    inds = [GroupRingElement.indicator(G, c) for c in P.classes]
    # (C_i C_j)* = C_star(j) C_star(i) in any group ring, so
    # (star j, star i) takes the values of (i, j) at inverse classes; of
    # the two, the pair that comes first in this loop is computed
    star = P.star
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
    return tensor


def cyclotomic(G: FiniteGroup, gens) -> SchurPartition:
    """Orbit partition of <gens> <= Aut(G); always an S-ring (asserted,
    and its tensor kept as P.basis)."""
    for a in gens:
        if not isinstance(a, Automorphism):
            raise SRingError("generators must be verified automorphisms")
    P = SchurPartition(G, orbits(G, gens))
    # Schur's theorem: verify_sring must never fail
    P.basis = Basis(G, P.class_of, verify_sring(P))
    return P


# ---------------------------------------------------------------------------
# Latin-square amorphic partitions over F_n^2


def affine_plane_group(F: Field) -> FiniteGroup:
    """Elementary abelian group of order n^2 realized as F_n x F_n."""
    _check_budget(F.q, 2)
    els = [(x, y) for x in F.elements() for y in F.elements()]

    def mul(a, b):
        return (F.add(a[0], b[0]), F.add(a[1], b[1]))

    return FiniteGroup.from_elements(els, mul, name=f"EA({F.q}^2)")


def lines_through_origin(F: Field):
    """The n+1 punctured lines of F^2, enumerated by slope
    (infinity, 0, 1, ... in field order), as sorted indices of
    affine_plane_group(F), where (x, y) has index x n + y."""
    n = F.q
    x = np.arange(1, n)
    lines = [tuple(x.tolist())]  # slope infinity: (0, y)
    for s in F.elements():
        lines.append(tuple(np.sort(x * n + F.mul(s, x)).tolist()))
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

    Returns (G, sets, P) where sets[h] for h = 0..t-1 (0 playing the
    role of the identity label) unions the lines of cell P_h, and P is
    the partition {e}, sets[0], ..., sets[t-1].  P is re-verified as an
    S-ring, and its structure constants against the two-case product
    relation, before it is returned with them as P.basis.
    """
    require_ints(SRingError, t=t)
    n = F.q
    if t < 1 or n % t != 0:
        raise SRingError(f"t = {t} does not divide n = {n}")
    G = affine_plane_group(F)
    lines = lines_through_origin(F)
    if labeling is None:
        labeling = default_labeling(n, t)
    if not isinstance(labeling, (list, tuple)):
        raise SRingError(f"labeling is {labeling!r}, not a sequence")
    if len(labeling) != t:
        raise SRingError("labeling must have t cells")
    labeling = [indices(c, n + 1, SRingError,
                        f"labeling cell {h} line").tolist()
                for h, c in enumerate(labeling)]
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
    # c[h, h'] holds X_h * X_h' over the classes e, X_0, ..., X_{t-1};
    # with k_h = |X_h| / (n-1), the number of lines in cell P_h:
    #   X_h * X_h  = k_h(n-1) e + (n - 2 k_h) X_h + k_h(k_h - 1) G^#
    #   X_h * X_h' = k_h k_h' G^# - k_h' X_h - k_h X_h'   (h != h')
    P = SchurPartition(G, [(0,)] + [sets[h] for h in range(t)])
    tensor = verify_sring(P)
    c = tensor[1:, 1:]
    k = [len(cell) for cell in labeling]
    for h, h2 in itertools.product(range(t), repeat=2):
        if h == h2:
            want = [k[h] * (n - 1)] + [k[h] * (k[h] - 1)] * t
            want[h + 1] += n - 2 * k[h]
        else:
            want = [0] + [k[h] * k[h2]] * t
            want[h + 1] -= k[h2]
            want[h2 + 1] -= k[h]
        if c[h, h2].tolist() != want:
            raise SRingError(f"amorph relation fails at pair {(h, h2)}")
    P.basis = Basis(G, P.class_of, tensor)
    return G, sets, P
