"""Exact integer group-ring arithmetic over a materialized finite group.

Dense signed 64-bit coefficient vectors; every RDS / PDS / S-ring /
linked-system verification in this package reduces to products and
comparisons of these.
"""

from __future__ import annotations

import numpy as np

from .groups import FiniteGroup

# A product is computed only when max|a|, max|b| and |a|_1 * max|b| are all
# below 2^31, in Python ints so that the test itself cannot wrap.  Every
# coefficient of a*b is a sum over pairs (h, k) with h*k = g, one k for
# each h, so every weight a_h b_k and every partial sum of one element's
# pairs is an integer of magnitude at most |a|_1 * max|b| < 2^31 < 2^53:
# float64 holds each of them exactly, and summing in float64 is exact.
_COEFF_BOUND = 2 ** 31
_INT64 = (-2 ** 63, 2 ** 63)
# (h, k) pairs per gather: under 1 MB of transients.  At twice that,
# glibc's malloc gave each block's pages back to the OS and the next
# block faulted them in again (240 faults per 256 x 256 product, v = 4096).
_BLOCK = 1 << 15


class GroupRingError(ValueError):
    pass


class GroupRingElement:
    __slots__ = ("group", "vec")

    def __init__(self, group: FiniteGroup, vec):
        """vec holds one integer coefficient per element of group, each
        within int64; GroupRingError names the first entry that is not."""
        vec = _integers(vec)
        if vec.shape != (group.order,):
            raise GroupRingError("coefficient vector length must equal |G|")
        if vec.dtype.kind == "O" or vec.dtype == np.uint64:
            for pos, x in enumerate(vec.tolist()):
                if not _INT64[0] <= x < _INT64[1]:
                    raise GroupRingError(
                        f"entry {x} at position {pos} does not fit in int64")
        self.group = group
        self.vec = vec.astype(np.int64, copy=False)

    @classmethod
    def indicator(cls, group: FiniteGroup, subset) -> "GroupRingElement":
        """The 0/1 element supported on subset, an iterable or an integer
        array of indices; GroupRingError names the first entry that is not
        an integer or not in range."""
        idx = _integers(subset).ravel()
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
        if isinstance(scalar, bool) or not isinstance(
                scalar, (int, np.integer)) or not (
                _INT64[0] <= scalar < _INT64[1]):
            raise GroupRingError(f"scalar {scalar!r} is not an int64 integer")
        return GroupRingElement(self.group, np.int64(scalar) * self.vec)

    def __neg__(self):
        return GroupRingElement(self.group, -self.vec)

    def __mul__(self, other):
        """Convolution: c_g = sum over h*k = g of a_h b_k."""
        self._check(other)
        a, b = self.vec, other.vec
        a_max, b_max = _max_abs(a), _max_abs(b)
        if max(a_max, b_max) >= _COEFF_BOUND or \
                int(np.abs(a).sum()) * b_max >= _COEFF_BOUND:
            raise GroupRingError("coefficients too large for exact product")
        v = self.group.order
        flat = self.group.table.reshape(-1)
        sa, sb = np.flatnonzero(a), np.flatnonzero(b)
        wa, wb = a[sa].astype(np.float64), b[sb].astype(np.float64)
        # gather the products h*k of the two supports, _BLOCK pairs at a
        # time, and sum a_h b_k per product; exact by the bound above
        out = np.zeros(v)
        step = max(1, _BLOCK // max(1, sb.size))
        for i in range(0, sa.size, step):
            idx = np.take(flat, (sa[i:i + step] * v)[:, None] + sb)
            out += np.bincount(idx.ravel(), np.multiply.outer(
                wa[i:i + step], wb).ravel(), minlength=v)
        return GroupRingElement(self.group, out.astype(np.int64))

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


def _integers(items):
    """items, an iterable or an array, as an array of integer dtype, or
    of object dtype when an entry does not fit in 64 bits; GroupRingError
    names the first entry that is not an integer, which numpy would
    otherwise truncate (0.5), read as 0 or 1 (a bool) or parse ('1')."""
    items = items if isinstance(items, np.ndarray) else list(items)
    arr = np.asarray(items)
    # numpy reads a bool among integers as 0 or 1
    has_bool = isinstance(items, list) and not {
        bool, np.bool_}.isdisjoint(map(type, items))
    if has_bool or arr.dtype.kind not in "iu":
        arr = np.asarray(items, dtype=object)
        for pos, x in enumerate(arr.ravel()):
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                raise GroupRingError(
                    f"entry {x!r} at position {pos} is not an integer")
    return arr


def _max_abs(vec) -> int:
    """max |vec| as a Python int, which np.abs would wrap at -2^63."""
    return max(int(vec.max()), -int(vec.min()))


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
