"""Exact arithmetic in prime-power fields GF(p^r), p odd unless stated.

Elements are canonical integers 0..q-1 read as base-p digit vectors,
low digit = constant coefficient of the residue polynomial.  The
modulus is the lexicographically least monic irreducible polynomial of
degree r over F_p, coefficients compared low-degree-first, so every
field here is reproducible bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np


# the largest field order q = p^r supported
Q_MAX = 1 << 16


class FieldError(ValueError):
    pass


def is_int(x) -> bool:
    """Whether x is an int or a numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def require_ints(error, **args):
    """Raise error naming the first of args that is not an int."""
    for name, x in args.items():
        if not is_int(x):
            raise error(f"{name} = {x!r} is not an int")


def integers(items, error, what: str, table: bool = False) -> np.ndarray:
    """items, a sequence or a 1-d array (with table, an array of any
    shape, whose caller checks it), as an array of integer dtype, or of
    object dtype where an entry needs more than 64 bits.  error names
    an array of another shape, and the first entry that is not an
    integer, which numpy would otherwise truncate (0.5), read as 0 or 1
    (a bool), parse ('1') or unpack ([1]): "{what} {x!r} at {where} is
    not an integer", where is "position i" in a sequence and "(i, j)"
    in a table.  An integer array passes through uncopied."""
    if isinstance(items, np.ndarray):
        if not table and items.ndim != 1:
            raise error(f"{what} array has shape {items.shape}, not 1-d")
        if items.dtype.kind in "iu":
            return items
        shape = items.shape
        cells = items.astype(object, copy=False).ravel()  # Python scalars
    else:
        try:
            cells = list(items)
        except TypeError:
            raise error(f"{what} is {items!r}, not a sequence") from None
        shape = (len(cells),)  # a nested sequence is one entry, not a row
    if not {int}.issuperset(map(type, cells)):
        for pos, x in enumerate(cells):
            if not is_int(x):
                raise error(f"{what} {x!r} at {_where(pos, shape)} "
                            f"is not an integer")
    try:
        return np.array(cells, dtype=np.int64).reshape(shape)
    except OverflowError:  # an entry needs more than 64 bits
        return np.array(cells, dtype=object).reshape(shape)


def indices(items, n: int, error, what: str,
            table: bool = False) -> np.ndarray:
    """integers(items, error, what, table), each in 0..n-1; error names
    the first that is not: "{what} {x} at {where} is not an index
    0..{n-1}"."""
    arr = integers(items, error, what, table)
    if arr.size and ((arr.dtype.kind != "u" and arr.min() < 0)
                     or arr.max() >= n):
        # the first bad row, then the bad entry in it: no v x v mask
        rows = arr.reshape(len(arr), -1)
        i = int(np.argmax((rows.min(axis=1) < 0) | (rows.max(axis=1) >= n)))
        j = int(np.argmax((rows[i] < 0) | (rows[i] >= n)))
        pos = i * rows.shape[1] + j
        raise error(f"{what} {int(rows[i, j])} at {_where(pos, arr.shape)} "
                    f"is not an index 0..{n - 1}")
    return arr


def named(n: int) -> str:
    """An integer as messages name it: its digits below 2^64, past that
    its bit length, since Python will not print an int of more than
    4300 digits."""
    if abs(n) < 1 << 64:
        return str(n)
    return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"


def _where(pos: int, shape: tuple) -> str:
    """Row-major position pos in an array of shape, as messages name it."""
    if len(shape) == 1:
        return f"position {pos}"
    return str(tuple(int(i) for i in np.unravel_index(pos, shape)))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# Polynomials over Z_p are coefficient lists, low degree first, no
# trailing zeros ([] is the zero polynomial).

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        shift = len(a) - 1 - dm
        if lead:
            for j, mj in enumerate(m):
                a[shift + j] = (a[shift + j] - lead * mj) % p
        a.pop()
        _poly_trim(a)
    return a


def _is_irreducible(m, p):
    """Trial division by every lower-degree monic polynomial."""
    deg = len(m) - 1
    if deg == 1:
        return True
    if m[0] == 0:  # divisible by t
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            if not _poly_mod(m, div, p):
                return False
    return True


def _least_irreducible(p, r):
    for tail in itertools.product(range(p), repeat=r):
        m = list(tail) + [1]
        if _is_irreducible(m, p):
            return m
    raise FieldError(f"no irreducible polynomial of degree {r} over F_{p}")


def _scalar(x):
    """A Python scalar for 0-d results, the array otherwise."""
    return x.item() if np.ndim(x) == 0 else x


class Field:
    """GF(p^r) with elements encoded as integers 0..q-1.

    Addition runs on the base-p digit array, multiplication on the
    log/antilog arrays of the least primitive element g.  Every
    operation works elementwise on ints or integer arrays and returns a
    Python scalar for scalar input.
    """

    def __init__(self, p: int, r: int = 1):
        require_ints(FieldError, p=p, r=r)
        # p >= 2 gives p^r >= 2^r, so r > 16 is out of range at any p:
        # decided before the power, whose digits may be too many to print
        if p > 1 and r > 0 and (r > 16 or p ** r > Q_MAX):
            raise FieldError(f"p^r = {named(p)}^{named(r)} exceeds the "
                             f"supported range q <= {Q_MAX}")
        if not is_prime(p):
            raise FieldError(f"{named(p)} is not prime")
        if r < 1:
            raise FieldError("degree must be positive")
        q = p ** r
        self.p = p
        self.r = r
        self.q = q
        self.modulus = tuple(_least_irreducible(p, r))
        self._place = p ** np.arange(r, dtype=np.int64)
        # _digits[a] = base-p digits of a, low degree first
        self._digits = np.arange(q, dtype=np.int64)[:, None] // self._place % p
        self._exp, self._log = self._log_tables()

    def _log_tables(self):
        """exp[k] = g^k and log[g^k] = k for the least primitive g.

        log[0] = 2(q-1) and exp is 0 from 2(q-1) on, so
        exp[log[a] + log[b]] = a*b for every pair, 0 included.
        """
        p, q, n = self.p, self.q, self.q - 1
        D, place = self._digits, self._place
        # a*t for every a: shift the digits up and reduce t^r = -low
        low = np.array(self.modulus[:-1], dtype=np.int64)
        lead = D[:, -1:]
        shifted = np.concatenate([np.zeros_like(lead), D[:, :-1]], axis=1)
        times_t = (shifted - lead * low) % p @ place
        # powers[k][a] = a*t^k, so a*b = sum over the digits b_k of b_k a*t^k
        powers = [np.arange(q)]
        for _ in range(1, self.r):
            powers.append(times_t[powers[-1]])
        powers = np.array(powers)

        def mul(a, b):
            return int((D[b] @ D[powers[:, a]]) % p @ place)

        def power(a, e):
            out = 1
            while e:
                if e & 1:
                    out = mul(out, a)
                a, e = mul(a, a), e >> 1
            return out

        primes = [d for d in range(2, n + 1) if n % d == 0 and is_prime(d)]
        g = next(g for g in range(1, q)
                 if all(power(g, n // ell) != 1 for ell in primes))
        times_g = (sum(c * D[row] for c, row in zip(D[g], powers) if c)
                   % p @ place).tolist()
        exps = [1]
        while len(exps) < n:
            exps.append(times_g[exps[-1]])
        exp = np.zeros(4 * n + 1, dtype=np.int64)
        exp[:2 * n] = exps * 2
        log = np.full(q, 2 * n, dtype=np.int64)
        log[exps] = np.arange(n)
        return exp, log

    # int <-> coefficient vector

    def from_coeffs(self, c) -> int:
        return sum(d * self.p ** k for k, d in enumerate(c))

    def elements(self):
        return range(self.q)

    # arithmetic

    def add(self, a, b):
        D = self._digits
        return _scalar((D[a] + D[b]) % self.p @ self._place)

    def sub(self, a, b):
        D = self._digits
        return _scalar((D[a] - D[b]) % self.p @ self._place)

    def mul(self, a, b):
        return _scalar(self._exp[self._log[a] + self._log[b]])

    def inv(self, a):
        if (np.asarray(a) == 0).any():
            raise ZeroDivisionError("inverse of 0")
        return _scalar(self._exp[self.q - 1 - self._log[a]])

    def div(self, a, b):
        if (np.asarray(b) == 0).any():
            raise ZeroDivisionError("division by 0")
        return _scalar(self._exp[self._log[a] + self.q - 1 - self._log[b]])

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        a = np.asarray(a)
        k = self._log[a] * (n % (self.q - 1)) % (self.q - 1)
        return _scalar(np.where((a == 0) & (n > 0), 0, self._exp[k]))

    def mult_order(self, a):
        if (np.asarray(a) == 0).any():
            raise FieldError("0 has no multiplicative order")
        n = self.q - 1
        return _scalar(n // np.gcd(self._log[a], n))

    def is_square(self, a):
        """0, every element for even q, else the even powers of g."""
        return _scalar((self._log[a] % 2 == 0) | (self.q % 2 == 0))

    def to_json(self):
        return {"p": self.p, "r": self.r, "modulus": list(self.modulus)}

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.r, self.modulus)
                == (other.p, other.r, other.modulus))

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        return f"Field(p={self.p}, r={self.r})"


def field_make(p: int, r: int = 1) -> Field:
    """Deterministic GF(p^r) with the canonical modulus."""
    return Field(p, r)


def least_nonsquare(F: Field) -> int:
    """First element in canonical order that is not a square; q must be odd."""
    if F.q % 2 == 0:
        raise FieldError("no nonsquares in even characteristic")
    return int(np.flatnonzero(~F.is_square(np.arange(F.q)))[0])


def pell_solutions(F: Field, eps: int, c: int):
    """All (u, v) with u^2 - eps*v^2 = c; eps must be a nonsquare.

    There are q+1 solutions for c != 0 and only (0, 0) for c = 0.
    """
    if F.is_square(eps):
        raise FieldError(f"eps = {eps} is a square")
    x = np.arange(F.q)
    sq = F.mul(x, x)
    # u pairs with every v whose square is (u^2 - c)/eps
    want = F.div(F.sub(sq, c), eps)
    order = np.argsort(sq, kind="stable")
    lo = np.searchsorted(sq[order], want, "left")
    count = np.searchsorted(sq[order], want, "right") - lo
    start = np.cumsum(count) - count
    v = order[np.repeat(lo - start, count) + np.arange(count.sum())]
    return set(zip(np.repeat(x, count).tolist(), v.tolist()))
