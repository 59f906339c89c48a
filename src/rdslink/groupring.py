"""Exact integer group-ring arithmetic over a materialized finite group.

Dense signed 64-bit coefficient vectors; every RDS / PDS / S-ring /
linked-system verification in this package reduces to products and
comparisons of these.
"""

from __future__ import annotations

import numpy as np

from .groups import FiniteGroup

_COEFF_BOUND = 2 ** 31  # |a|_1 * max|b| stays far below int64 overflow
# (h, k) pairs per gather: about 512 KB of transients.  At twice that,
# glibc's malloc gave each block's pages back to the OS and the next
# block faulted them in again (240 faults per 256 x 256 product, v = 4096).
_BLOCK = 1 << 15


class GroupRingError(ValueError):
    pass


class GroupRingElement:
    __slots__ = ("group", "vec")

    def __init__(self, group: FiniteGroup, vec):
        vec = np.asarray(vec, dtype=np.int64)
        if vec.shape != (group.order,):
            raise GroupRingError("coefficient vector length must equal |G|")
        self.group = group
        self.vec = vec

    @classmethod
    def indicator(cls, group: FiniteGroup, subset) -> "GroupRingElement":
        """The 0/1 element supported on subset, an iterable or an integer
        array of indices; GroupRingError names the first entry that is not
        an integer or not in range."""
        items = subset if isinstance(subset, np.ndarray) else list(subset)
        idx = np.asarray(items).ravel()
        # numpy reads a bool among integers as 0 or 1
        has_bool = isinstance(items, list) and not {
            bool, np.bool_}.isdisjoint(map(type, items))
        if has_bool or idx.dtype.kind not in "iu":
            for pos, x in enumerate(np.asarray(items, dtype=object).ravel()):
                if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                    raise GroupRingError(
                        f"entry {x!r} at position {pos} is not an integer")
        bad = np.flatnonzero((idx < 0) | (idx >= group.order))
        if bad.size:
            raise GroupRingError(f"index {idx[bad[0]]} out of range")
        vec = np.zeros(group.order, dtype=np.int64)
        vec[idx.astype(np.int64)] = 1
        return cls(group, vec)

    @classmethod
    def basis(cls, group: FiniteGroup, g: int) -> "GroupRingElement":
        return cls.indicator(group, [g])

    def _check(self, other):
        if not isinstance(other, GroupRingElement):
            raise TypeError("expected a GroupRingElement")
        if other.group is not self.group:
            raise GroupRingError("elements of different group rings")

    def __add__(self, other):
        self._check(other)
        return GroupRingElement(self.group, self.vec + other.vec)

    def __sub__(self, other):
        self._check(other)
        return GroupRingElement(self.group, self.vec - other.vec)

    def __rmul__(self, scalar: int):
        return GroupRingElement(self.group, int(scalar) * self.vec)

    def __neg__(self):
        return GroupRingElement(self.group, -self.vec)

    def __mul__(self, other):
        """Convolution: c_g = sum over h*k = g of a_h b_k."""
        self._check(other)
        a, b = self.vec, other.vec
        if (np.abs(a).sum() * max(1, np.abs(b).max())) >= _COEFF_BOUND:
            raise GroupRingError("coefficients too large for exact product")
        table = self.group.table
        out = np.zeros(self.group.order, dtype=np.int64)
        sa, sb = np.flatnonzero(a), np.flatnonzero(b)
        # gather the products h*k of the two supports, _BLOCK pairs at a
        # time; add.at sums the pairs that land on one element
        step = max(1, _BLOCK // max(1, sb.size))
        for i in range(0, sa.size, step):
            rows = sa[i:i + step]
            np.add.at(out, table[np.ix_(rows, sb)].ravel(),
                      np.multiply.outer(a[rows], b[sb]).ravel())
        return GroupRingElement(self.group, out)

    def involution(self) -> "GroupRingElement":
        """Coefficient transport along g -> g^-1."""
        out = np.empty_like(self.vec)
        out[self.group.inv] = self.vec
        return GroupRingElement(self.group, out)

    def scalar(self, other) -> int:
        self._check(other)
        return int(self.vec @ other.vec)

    def support(self):
        return tuple(int(g) for g in np.nonzero(self.vec)[0])

    def __eq__(self, other):
        return (isinstance(other, GroupRingElement)
                and other.group is self.group
                and np.array_equal(self.vec, other.vec))

    def __getitem__(self, g: int) -> int:
        return int(self.vec[g])

    def to_json(self):
        return {"group": self.group.name, "coeffs": self.vec.tolist()}

    def __repr__(self):
        return f"GroupRingElement({self.group.name}, {self.vec.tolist()})"


def class_values(vec, class_of, count):
    """Read a coefficient vector on a partition of G into classes 0..count-1.

    Returns each class's value, taken at its least element (None for an
    empty class), and the least index whose coefficient differs from the
    value of its class (None when vec is constant on every class).
    """
    v = len(vec)
    first = np.full(count, v)
    np.minimum.at(first, class_of, np.arange(v))
    bad = np.flatnonzero(vec != vec[first[class_of]])
    values = [int(vec[g]) if g < v else None for g in first.tolist()]
    return values, (int(bad[0]) if bad.size else None)
