"""Exact integer group-ring arithmetic over a materialized finite group.

Dense signed 64-bit coefficient vectors; every RDS / PDS / S-ring /
linked-system verification in this package reduces to products and
comparisons of these.  A product has two back-ends: the pair kernel,
which gathers the table at every pair of support points, and, for two
elements that carry one certified Basis, a contraction of class vectors
by the basis's structure constants.
"""

from __future__ import annotations

import numpy as np

from .ff import indices, integers, is_int
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


class BasisError(GroupRingError):
    """An operand that is not constant on a basis's classes, or an
    ambient group whose indices do not multiply as the basis assumes."""


class Basis:
    """The class sums of a certified S-ring, as a product back-end.

    The classes are {h} x C_j for h in a group H and C_0..C_(r-1) the
    classes of an S-ring A over a group P, in G = H x P with (h, g) at
    index h |P| + g; class (h, j) has index h r + j.  Then
    (h1 C_i)(h2 C_j) = h1 h2 (C_i C_j): the structure constants are
    [h1 h2 = h3] c[i, j, k], and the product of class vectors x, y is
      z[h3, k] = sum over h1 h2 = h3 of x[h1, i] y[h2, j] c[i, j, k],
    without forming the rank-|H| r tensor.  An S-ring of G itself is
    H = 1.  schur builds a basis only from a tensor verify_sring
    returned, and over() only after checking G's law; every array a
    basis holds is read-only.  ldiv[h1, h3] is the h2 with
    h1 h2 = h3."""

    def __init__(self, group: FiniteGroup, class_of, tensor, ldiv=((0,),)):
        self.group = group
        self.class_of = _frozen(class_of)
        # each class's least element, where its coefficient is read
        reps = np.full(int(self.class_of.max()) + 1, group.order)
        np.minimum.at(reps, self.class_of, np.arange(group.order))
        self.reps = _frozen(reps)
        self.tensor = _frozen(tensor)
        self.ldiv = _frozen(ldiv)

    def over(self, H: FiniteGroup, ambient: FiniteGroup) -> "Basis":
        """The basis of Z[H] x A in ambient = H x P, this basis's group
        being P.  BasisError unless the index map x -> (h, g),
        x = h |P| + g, carries ambient's law onto H x P's: T[x, s] must
        be (h_x h_s, g_x g_s) for every x and every s in ambient.gens.
        By induction on words in the generators that holds for every
        product, so the map, a bijection, is an isomorphism; that is
        |ambient.gens| |ambient| cells."""
        P = self.group
        vp = P.order
        if len(self.ldiv) != 1 or ambient.order != H.order * vp:
            raise BasisError(f"{ambient.name} is not {H.name} x {P.name} "
                             f"over an S-ring of {P.name}")
        gens = np.asarray(ambient.gens)
        h, g = np.divmod(np.arange(ambient.order), vp)
        hs, gs = np.divmod(gens, vp)
        law = (H.table[np.ix_(h, hs)].astype(np.int64) * vp
               + P.table[np.ix_(g, gs)].astype(np.int64))
        bad = np.argwhere(ambient.table[:, gens] != law)
        if bad.size:
            x, i = bad[0]
            raise BasisError(
                f"{ambient.name} is not {H.name} x {P.name} at index "
                f"h*{vp} + g: {x} times generator {gens[i]} is "
                f"{int(ambient.table[x, gens[i]])}, not {int(law[x, i])}")
        # row h1 of H's table is the permutation h2 -> h1 h2
        return Basis(ambient, h * len(self.reps) + self.class_of[g],
                     self.tensor, np.argsort(H.table, axis=1))

    def classes(self, vec) -> np.ndarray:
        """vec's class vector, x[k] the coefficient on class k;
        BasisError names the first element where vec is not constant
        on its class."""
        x = vec[self.reps]
        bad = np.flatnonzero(vec != x[self.class_of])
        if bad.size:
            g = int(bad[0])
            k = int(self.class_of[g])
            raise BasisError(
                f"coefficient {int(vec[g])} at element {g} differs from "
                f"{int(x[k])} at element {int(self.reps[k])} of its class "
                f"{k}: not a combination of class sums")
        return x

    def product(self, a, b) -> np.ndarray:
        """The coefficient vector of a b, for coefficient vectors a, b
        within GroupRingElement.__mul__'s bound.  Each sum below is a
        partial sum of a coefficient of |a| |b| (below 2^31), or of
        |a_h1| C_j (below 2^31 v <= 2^46), with integer terms: float64
        holds and adds them exactly, as in the pair kernel, and its
        matmul runs in BLAS, which int64's does not."""
        hs, r = self.ldiv.shape[0], self.tensor.shape[0]
        x = self.classes(a).reshape(hs, r).astype(np.float64)
        y = self.classes(b).reshape(hs, r).astype(np.float64)
        # w[h1, j, k] = sum over i of x[h1, i] c[i, j, k], and
        # pair[h1, h2, k] = sum over j of y[h2, j] w[h1, j, k], the C_k
        # coefficient of (h1 x[h1]) (h2 y[h2]) in A
        w = (x @ self.tensor.reshape(r, r * r)).reshape(hs, r, r)
        pair = y @ w
        z = pair[np.arange(hs)[:, None], self.ldiv].sum(axis=0)
        return z.astype(np.int64).reshape(-1)[self.class_of]


def _frozen(arr) -> np.ndarray:
    """A read-only int64 copy of arr."""
    out = np.array(arr, dtype=np.int64)
    out.setflags(write=False)
    return out


class GroupRingElement:
    __slots__ = ("group", "vec", "basis")

    def __init__(self, group: FiniteGroup, vec, basis: Basis | None = None):
        """vec holds one integer coefficient per element of group, each
        within int64; GroupRingError names the first entry that is not.
        With a basis over group, a product with an element that carries
        the same basis is taken in it."""
        vec = integers(vec, GroupRingError, "entry")
        if vec.shape != (group.order,):
            raise GroupRingError("coefficient vector length must equal |G|")
        if vec.dtype.kind == "O" or vec.dtype == np.uint64:
            for pos, x in enumerate(vec.tolist()):
                if not _INT64[0] <= x < _INT64[1]:
                    raise GroupRingError(
                        f"entry {x} at position {pos} does not fit in int64")
        if basis is not None and basis.group is not group:
            raise GroupRingError(f"basis is over {basis.group.name}, not "
                                 f"{group.name}")
        self.group = group
        self.vec = vec.astype(np.int64, copy=False)
        self.basis = basis

    @classmethod
    def indicator(cls, group: FiniteGroup, subset,
                  basis: Basis | None = None) -> "GroupRingElement":
        """The 0/1 element supported on subset, an iterable or an integer
        array of indices; GroupRingError names the first entry that is not
        an integer or not in range."""
        idx = indices(subset, group.order, GroupRingError, "entry")
        vec = np.zeros(group.order, dtype=np.int64)
        vec[idx] = 1
        return cls(group, vec, basis)

    def _check(self, other):
        if not isinstance(other, GroupRingElement):
            raise TypeError("expected a GroupRingElement")
        if other.group is not self.group:
            raise GroupRingError("elements of different group rings")

    def __add__(self, other):
        self._check(other)
        a, b = self.vec, other.vec
        return self._exact(np.add, a, b, int(a.min()) + int(b.min()),
                           int(a.max()) + int(b.max()))

    def __sub__(self, other):
        self._check(other)
        a, b = self.vec, other.vec
        return self._exact(np.subtract, a, b, int(a.min()) - int(b.max()),
                           int(a.max()) - int(b.min()))

    def __rmul__(self, scalar: int):
        if not is_int(scalar) or not _INT64[0] <= scalar < _INT64[1]:
            raise GroupRingError(f"scalar {scalar!r} is not an int64 integer")
        scalar = int(scalar)
        ends = (scalar * int(self.vec.min()), scalar * int(self.vec.max()))
        return self._exact(np.multiply, scalar, self.vec, min(ends),
                           max(ends))

    def __neg__(self):
        return self._exact(np.subtract, 0, self.vec,
                           -int(self.vec.max()), -int(self.vec.min()))

    def _exact(self, op, x, y, low: int, high: int):
        """op(x, y), whose entries lie in low..high (Python ints): in
        int64 when that range fits, else in Python ints, so that the
        constructor names the first entry int64 cannot hold instead of
        letting it wrap."""
        if not _INT64[0] <= low <= high < _INT64[1]:
            x, y = np.asarray(x, dtype=object), np.asarray(y, dtype=object)
        return GroupRingElement(self.group, op(x, y))

    def __mul__(self, other):
        """Convolution: c_g = sum over h*k = g of a_h b_k; in the basis
        both operands carry, if they carry one, else by the pair
        kernel."""
        self._check(other)
        a, b = self.vec, other.vec
        a_max, b_max = _max_abs(a), _max_abs(b)
        if max(a_max, b_max) >= _COEFF_BOUND or \
                int(np.abs(a).sum()) * b_max >= _COEFF_BOUND:
            raise GroupRingError("coefficients too large for exact product")
        if self.basis is not None and other.basis is self.basis:
            return GroupRingElement(self.group,
                                    self.basis.product(a, b), self.basis)
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
        return GroupRingElement(self.group, out, self.basis)

    def support(self):
        return tuple(np.flatnonzero(self.vec).tolist())

    def __eq__(self, other):
        return (isinstance(other, GroupRingElement)
                and other.group is self.group
                and np.array_equal(self.vec, other.vec))

    def __getitem__(self, g: int) -> int:
        return int(self.vec[g])

    def __repr__(self):
        return f"GroupRingElement({self.group.name}, {self.vec.tolist()})"


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
