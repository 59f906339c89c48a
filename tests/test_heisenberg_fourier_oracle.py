"""A table-free oracle for the Heisenberg linked systems over GF(q),
q prime, by Fourier inversion over F_l.

Heis(q) is (x, y, z)(a, b, c) = (x + a, y + b, z + c + x b), with
(x, y, z) at index x q^2 + y q + z.  Take a prime l = 1 (mod q), so
that F_l holds a q-th root of unity zeta, and l > q^2.  Its irreducible
representations over F_l are
  - the q^2 linear characters (x, y, z) -> zeta^(alpha x + beta y), and
  - for each c != 0 the degree-q representation
    rho_c(x, y, z) e_t = zeta^(c (z + x t)) e_(t+y) on F_l^q,
which is multiplicative for that law: both rho_c(g) rho_c(h) e_t and
rho_c(gh) e_t are zeta^(c (z_g + z_h + x_g y_h + (x_g + x_h) t))
e_(t + y_g + y_h).  Their degrees' squares add up to q^2 + (q-1) q^2
= v, so F_l[G] is their direct sum (Serre, Linear Representations of
Finite Groups, 6 and 12), and two elements of Z[G] with coefficients
in 0..q^2 are equal iff their images agree on every one.

The oracle checks the library's table against the law on all v^2
cells, every member product, by the pair kernel and by the S-ring
basis, against the product of the members' images, and every equation
of the certificate in the Fourier domain.  It never reads the table
for a product.
"""

import itertools

import numpy as np
import pytest

from rdslink.constructions import heisenberg_system
from rdslink.ff import field_make
from rdslink.groupring import GroupRingElement
from rdslink.linked import LinkedError, verify_linked
from rdslink.rds import RdsError

PRIMES = [3, 5, 7, 11, 13]


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class Fourier:
    """The images of elements of Z[Heis(q)] on every irreducible
    representation over F_l: lin[alpha, beta], and deg[c - 1] the
    q x q matrix of rho_c."""

    def __init__(self, q):
        self.q = q
        self.l = next(l for l in range(q * q + 1, 100 * q * q)
                      if l % q == 1 and _is_prime(l))
        a = next(a for a in range(2, self.l)
                 if pow(a, (self.l - 1) // q, self.l) != 1)
        zeta = pow(a, (self.l - 1) // q, self.l)
        self.power = np.array([pow(zeta, e, self.l) for e in range(q)])
        u = np.arange(q)
        self.dft = self.power[np.multiply.outer(u, u) % q]  # zeta^(a x)
        # twist[c - 1, t, x] = zeta^(c x t)
        c = np.arange(1, q)
        self.twist = self.power[
            c[:, None, None] * u[None, :, None] * u[None, None, :] % q]
        # degrees: q^2 linear, q - 1 of degree q
        self.degrees = [1] * q * q + [q] * (q - 1)

    def image(self, vec):
        q, l = self.q, self.l
        y = np.asarray(vec, dtype=np.int64).reshape(q, q, q) % l
        lin = self.dft @ y.sum(axis=2) % l @ self.dft.T % l
        # a[c - 1, x, y] = sum over z of Y[x, y, z] zeta^(c z)
        a = np.einsum("xyz,cz->cxy", y, self.dft[1:]) % l
        # b[c - 1, t, y] = sum over x of zeta^(c x t) a[c - 1, x, y]
        b = np.einsum("ctx,cxy->cty", self.twist, a) % l
        u = np.arange(q)
        # rho_c(Y)[s, t] = b[c - 1, t, s - t]
        deg = b[:, u[None, :], (u[:, None] - u[None, :]) % q]
        return lin, deg

    def times(self, f, g):
        return f[0] * g[0] % self.l, f[1] @ g[1] % self.l

    def scaled(self, f, s):
        return f[0] * s % self.l, f[1] * s % self.l


def _coordinates(G, q):
    coords = np.array([[c for part in el for c in
                        (part if isinstance(part, tuple) else (part,))]
                       for el in G.elements])
    assert np.array_equal(coords @ [q * q, q, 1], np.arange(G.order))
    return coords


def _law_faults(table, coords, q):
    """The cells (i, j) where table disagrees with Heis(q)'s law."""
    x, y, z = coords.T
    faults = []
    for s in range(0, len(table), 256):
        i = slice(s, s + 256)
        want = (((x[i, None] + x) % q) * q * q + ((y[i, None] + y) % q) * q
                + (z[i, None] + z + x[i, None] * y) % q)
        faults += (np.argwhere(table[i] != want) + [s, 0]).tolist()
    return faults


def _certificate_faults(fourier, images, cert, v):
    """The pairs (a, b) whose product breaks the certificate's equation
    on some irreducible representation: k I on those nontrivial on N
    and (k - lambda n) on the other nontrivial ones when X_b = X_a^-1,
    else (mu - nu) rho(X_psi(a, b)); k^2 on the trivial one."""
    q, l = fourier.q, fourier.l
    k, lam, n = cert.k, cert.lam, cert.n
    eye = np.eye(q, dtype=np.int64)
    faults = []
    for a, b in itertools.product(range(cert.s), repeat=2):
        lin, deg = fourier.times(images[a], images[b])
        if b == cert.chi[a]:
            want_lin = np.full((q, q), (k - lam * n) % l)
            want_lin[0, 0] = k * k % l
            want_deg = np.broadcast_to(k * eye % l, deg.shape)
        else:
            c_lin, want_deg = fourier.scaled(images[cert.psi[a, b]],
                                             cert.mu - cert.nu)
            want_lin = c_lin.copy()
            want_lin[0, 0] = (cert.mu * k + cert.nu * (v - k)) % l
        if not (np.array_equal(lin, want_lin)
                and np.array_equal(deg, want_deg)):
            faults.append((a, b))
    return faults


@pytest.mark.parametrize("q", PRIMES, ids=[f"q{q}" for q in PRIMES])
def test_heisenberg_system_against_fourier_inversion(q):
    hs = heisenberg_system(field_make(q))
    G, cert, basis = hs.group, hs.certificate, hs.partition.basis
    v = G.order
    fourier = Fourier(q)
    assert sum(d * d for d in fourier.degrees) == q * q + (q - 1) * q * q \
        == v
    assert _law_faults(G.table, _coordinates(G, q), q) == []
    plain = [GroupRingElement.indicator(G, X) for X in cert.sets]
    in_basis = [GroupRingElement.indicator(G, X, basis) for X in cert.sets]
    images = [fourier.image(x.vec) for x in plain]
    for a, b in itertools.product(range(cert.s), repeat=2):
        want = fourier.times(images[a], images[b])
        for prod in (plain[a] * plain[b], in_basis[a] * in_basis[b]):
            assert prod.vec.max() <= q * q < fourier.l
            got = fourier.image(prod.vec)
            assert np.array_equal(got[0], want[0]), (a, b)
            assert np.array_equal(got[1], want[1]), (a, b)
    assert _certificate_faults(fourier, images, cert, v) == []


def test_fourier_oracle_negative_controls():
    q = 5
    hs = heisenberg_system(field_make(q))
    G, cert = hs.group, hs.certificate
    coords = _coordinates(G, q)
    # a mutated cell fails the law, at that cell
    table = G.table.copy()
    table[7, 11] = table[7, 12]
    assert _law_faults(table, coords, q) == [[7, 11]]
    # a swapped member: verify_linked rejects it, and the Fourier check
    # of the certificate's equations fails on its RDS equation
    X = set(cert.sets[0])
    swapped = sorted(X - {max(X)} | {max(set(range(G.order)) - X)})
    fam = [tuple(swapped)] + list(cert.sets[1:])
    with pytest.raises((LinkedError, RdsError)):
        verify_linked(G, cert.N, fam)
    fourier = Fourier(q)
    images = [fourier.image(GroupRingElement.indicator(G, X).vec)
              for X in fam]
    faults = _certificate_faults(fourier, images, cert, G.order)
    assert (0, cert.chi[0]) in faults
    assert all(0 in pair or cert.psi.get(pair) == 0 for pair in faults)
