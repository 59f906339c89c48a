"""A table-free oracle for the Davis-Polhill-Smith systems over GF(2^k),
and over GF(3^2) by a number-theoretic transform.

Their ambient group H x F_n^2 is elementary abelian of order 2^d, and
its table is the XOR of indices: H lists its bit tuples in binary
order, the plane's (x, y) has index x n + y with field addition the XOR
of digits, and an element (h, g) of the product has index h n^2 + g.
So every group-ring product is a dyadic convolution, which the integer
Walsh-Hadamard transform computes without reading the table:
X Y = WHT(WHT(X) WHT(Y)) / v, exact in int64 (|entries| <= v^3).
Every member product, and chi, psi, lambda, mu and nu read off them,
must equal the library's.

Over GF(3^2) the group is elementary abelian of order 3^d, its table
the digit-wise base-3 addition of indices, and every product a
convolution over Z_3^d: the transform with a cube root of unity mod the
prime 97 = 1 (mod 3) computes it mod 97, which is exact as no
coefficient exceeds |X_a| = n^2 = 81.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from rdslink.constructions import dps_system
from rdslink.ff import field_make
from rdslink.groupring import GroupRingElement
from rdslink.linked import LinkedError, verify_linked
from rdslink.rds import RdsError

# (r, t): GF(2^r) with |H| = t, v = t 4^r
SIZES = [(2, 4), (3, 8), (4, 4), (4, 16)]
IDS = [f"GF({2 ** r})-t{t}" for r, t in SIZES]


@functools.cache
def _system(r, t):
    return dps_system(field_make(2, r), t)


def _is_xor(table) -> bool:
    """Whether table[i, j] = i XOR j on every cell, 256 rows at a time."""
    idx = np.arange(len(table))
    return all(np.array_equal(table[i:i + 256], idx[i:i + 256, None] ^ idx)
               for i in range(0, len(table), 256))


def _wht(vec) -> np.ndarray:
    """Entry u is sum over g of (-1)^popcount(u & g) vec[g]."""
    a = np.array(vec, dtype=np.int64)
    h = 1
    while h < a.size:  # butterflies on blocks of 2h
        a = a.reshape(-1, 2, h)
        a = np.stack([a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]], axis=1)
        h *= 2
    return a.reshape(-1)


def _products(family, v) -> dict:
    """X_a X_b for every ordered pair (a, b) of members, by WHT."""
    spectra = []
    for X in family:
        x = np.zeros(v, dtype=np.int64)
        x[list(X)] = 1
        spectra.append(_wht(x))
    out = {}
    for a, b in itertools.product(range(len(family)), repeat=2):
        total = _wht(spectra[a] * spectra[b])
        assert not (total % v).any()
        out[a, b] = total // v
    return out


def _read(products, family, N, v):
    """chi, psi, the lambdas and (mu, nu) pairs that the products show,
    and the faults: each pair (a, b) whose product is neither
    k e + lambda (G - N) (for X_b = X_a^-1, seen as the coefficient
    k = |X_a| at e) nor two-valued with a member as a level set."""
    member = {}
    for i, X in enumerate(family):
        mask = np.zeros(v, dtype=bool)
        mask[list(X)] = True
        member[mask.tobytes()] = i
    off_n = np.ones(v, dtype=bool)
    off_n[list(N)] = False
    k = len(family[0])
    chi, psi, lams, munus, faults = {}, {}, set(), set(), []
    for (a, b), prod in products.items():
        if prod[0] == k:
            chi[a] = b
            lam = int(prod[off_n][0])
            want = np.where(off_n, lam, 0)
            want[0] = k
            lams.add(lam)
            if not np.array_equal(prod, want):
                faults.append((a, b))
            continue
        values = np.unique(prod)
        at = [member.get((prod == x).tobytes()) for x in values]
        if values.size != 2 or at == [None, None]:
            faults.append((a, b))
            continue
        c = 0 if at[0] is not None else 1
        psi[a, b] = at[c]
        munus.add((int(values[c]), int(values[1 - c])))
    return chi, psi, lams, munus, faults


@pytest.mark.parametrize("r, t", SIZES, ids=IDS)
def test_dps_products_and_certificate_against_walsh_hadamard(r, t):
    ds = _system(r, t)
    G, cert = ds.ambient, ds.certificate
    assert _is_xor(G.table)
    products = _products(cert.sets, G.order)
    ind = [GroupRingElement.indicator(G, X) for X in cert.sets]
    for (a, b), prod in products.items():
        assert np.array_equal((ind[a] * ind[b]).vec, prod), (a, b)
    chi, psi, lams, munus, faults = _read(products, cert.sets, cert.N.members,
                                          G.order)
    assert faults == []
    assert tuple(chi[a] for a in range(cert.s)) == cert.chi
    assert psi == cert.psi
    assert lams == {cert.lam}
    assert munus == {(cert.mu, cert.nu)}


@pytest.mark.parametrize("r, t", SIZES, ids=IDS)
def test_walsh_hadamard_oracle_sees_a_mutated_cell_and_a_swapped_member(r, t):
    ds = _system(r, t)
    G, cert = ds.ambient, ds.certificate
    table = G.table.copy()
    table[-1, -1] = 1  # (v - 1) XOR (v - 1) is 0
    assert not _is_xor(table)
    # X_0 trades its largest element for the least one outside X_0 and N
    X0 = set(cert.sets[0])
    out = min(set(range(G.order)) - X0 - set(cert.N.members))
    family = [tuple(sorted(X0 - {max(X0)} | {out}))] + cert.sets[1:]
    with pytest.raises((RdsError, LinkedError)):
        verify_linked(G, cert.N, family)
    faults = _read(_products(family, G.order), family, cert.N.members,
                   G.order)[-1]
    assert faults


# the number-theoretic transform over Z_3^d: mod ELL, with OMEGA a
# primitive cube root of unity
ELL = 97
OMEGA = next(w for w in range(2, ELL) if pow(w, 3, ELL) == 1)
DFT3 = np.array([[pow(OMEGA, a * b, ELL) for b in range(3)]
                 for a in range(3)], dtype=np.int64)
TERNARY = [3, 9]  # |H| = t over GF(3^2): v = 243, 729


@functools.cache
def _ternary_system(t):
    return dps_system(field_make(3, 2), t)


def _is_digit_sum(table) -> bool:
    """Whether table[i, j] is the digit-wise base-3 sum of i and j, mod
    3 in each digit, on every cell."""
    v = len(table)
    idx = np.arange(v)
    want = np.zeros((v, v), dtype=np.int64)
    place = 1
    while place < v:
        digit = idx // place % 3
        want += (digit[:, None] + digit) % 3 * place
        place *= 3
    return np.array_equal(table, want)


def _ntt(vec, matrix) -> np.ndarray:
    """vec over Z_3^d, transformed digit by digit with the 3 x 3
    matrix, mod ELL."""
    a = np.array(vec, dtype=np.int64) % ELL
    for _ in range(round(math.log(a.size, 3))):
        # transform the leading digit, then rotate it to the last place
        a = (matrix @ a.reshape(3, -1) % ELL).T.reshape(-1)
    return a


def _ntt_products(family, v) -> dict:
    """X_a X_b for every ordered pair (a, b) of members, by the
    transform and its inverse: the conjugate matrix, divided by v."""
    inverse = DFT3.T[[0, 2, 1]]  # omega^(-ab) = omega^(a (3 - b))
    scale = pow(v, -1, ELL)
    spectra = []
    for X in family:
        x = np.zeros(v, dtype=np.int64)
        x[list(X)] = 1
        spectra.append(_ntt(x, DFT3))
    return {(a, b): _ntt(spectra[a] * spectra[b] % ELL, inverse) * scale
            % ELL for a, b in itertools.product(range(len(family)), repeat=2)}


@pytest.mark.parametrize("t", TERNARY, ids=[f"GF(9)-t{t}" for t in TERNARY])
def test_ternary_dps_products_and_certificate_against_ntt(t):
    ds = _ternary_system(t)
    G, cert = ds.ambient, ds.certificate
    assert G.order == t * 81
    assert _is_digit_sum(G.table)
    products = _ntt_products(cert.sets, G.order)
    ind = [GroupRingElement.indicator(G, X) for X in cert.sets]
    for (a, b), prod in products.items():
        assert np.array_equal((ind[a] * ind[b]).vec, prod), (a, b)
    chi, psi, lams, munus, faults = _read(products, cert.sets, cert.N.members,
                                          G.order)
    assert faults == []
    assert tuple(chi[a] for a in range(cert.s)) == cert.chi
    assert psi == cert.psi
    assert lams == {cert.lam}
    assert munus == {(cert.mu, cert.nu)}


@pytest.mark.parametrize("t", TERNARY, ids=[f"GF(9)-t{t}" for t in TERNARY])
def test_ntt_oracle_sees_a_mutated_cell_and_a_swapped_member(t):
    ds = _ternary_system(t)
    G, cert = ds.ambient, ds.certificate
    table = G.table.copy()
    table[-1, -1] = 0  # the digit sum of (v - 1) with itself is not 0
    assert not _is_digit_sum(table)
    X0 = set(cert.sets[0])
    out = min(set(range(G.order)) - X0 - set(cert.N.members))
    family = [tuple(sorted(X0 - {max(X0)} | {out}))] + cert.sets[1:]
    with pytest.raises((RdsError, LinkedError)):
        verify_linked(G, cert.N, family)
    faults = _read(_ntt_products(family, G.order), family, cert.N.members,
                   G.order)[-1]
    assert faults
