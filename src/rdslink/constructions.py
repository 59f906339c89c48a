"""Explicit constructions: the Heisenberg linked systems driven by the
cyclotomic partition of a cyclic matrix group, the extraspecial
M_{p^3} difference sets, the Q8 system, the generalized
Davis-Polhill-Smith systems, and the central-product assemblies behind
the two headline parameter families.  Every certificate is produced by
the generic verifiers, never by trusting the construction."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ff import (Field, field_make, least_nonsquare, is_int, is_prime,
                 require_ints)
from .groups import (FiniteGroup, Subgroup, Automorphism, _check_budget,
                     automorphism_from_images, center, central_product,
                     elementary_abelian, extraspecial_mp3, heisenberg,
                     quaternion8, direct_product)
from .linked import LinkedCertificate, linked_product, verify_linked
from .rds import rds_product, verify_pds, verify_rds
from .schur import SchurPartition, amorphic_latin, cyclotomic


class ConstructionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Heisenberg systems (dimension 3 and, by central products, 2r+1)


@dataclass
class HeisenbergSystem:
    field: Field
    group: FiniteGroup
    eps: int
    delta: int
    center: Subgroup
    partition: SchurPartition
    orbit_sets: dict  # field element i -> Y_i (indices)
    sets: dict  # field element i -> X_i = Y_i + {e}
    certificate: LinkedCertificate


def _matrix_group_generator(F: Field, eps: int):
    """The first (a, b) in product order whose matrix ((a, b), (eps*b, a))
    generates the cyclic group of order q^2-1 of the nonzero ones."""
    target = F.q * F.q - 1
    a, b = np.divmod(np.arange(1, target + 1), F.q)
    x, y = a, b  # M^k for every M at once
    order = np.zeros(target, dtype=np.int64)
    for k in range(1, target + 1):
        order[(order == 0) & (x == 1) & (y == 0)] = k
        x, y = (F.add(F.mul(x, a), F.mul(eps, F.mul(y, b))),
                F.add(F.mul(x, b), F.mul(y, a)))
    gens = np.flatnonzero(order == target)
    if not gens.size:
        raise ConstructionError("matrix group is not cyclic")
    return int(a[gens[0]]), int(b[gens[0]])


def _heisenberg_automorphism(G: FiniteGroup, F: Field, eps: int,
                             M) -> Automorphism:
    """phi(M) for M = ((a, b), (eps*b, a)) on triples (x, y, z), all
    elements at once; heisenberg(F, 1) lists them in row-major order."""
    a, b = M
    q = F.q
    half = F.inv(F.add(1, 1))
    det = F.sub(F.mul(a, a), F.mul(eps, F.mul(b, b)))
    x, y, z = np.unravel_index(np.arange(G.order), (q, q, q))
    x2 = F.add(F.mul(a, x), F.mul(eps, F.mul(b, y)))
    y2 = F.add(F.mul(b, x), F.mul(a, y))
    quad = F.mul(F.mul(a, b),
                 F.add(F.mul(F.mul(x, x), half),
                       F.mul(eps, F.mul(F.mul(y, y), half))))
    z2 = F.add(F.add(quad, F.mul(eps, F.mul(F.mul(b, b), F.mul(x, y)))),
               F.mul(det, z))
    return Automorphism(G, np.ravel_multi_index((x2, y2, z2), (q, q, q)))


def heisenberg_system(F: Field, eps: int | None = None) -> HeisenbergSystem:
    """The linked system {X_i : i in F_q} in the dimension-3 Heisenberg
    group over F_q, q odd, with forbidden subgroup the center."""
    if F.q % 2 == 0:
        raise ConstructionError("q must be odd")
    q = F.q
    if eps is None:
        eps = least_nonsquare(F)
    elif not is_int(eps) or not 0 <= eps < q:
        raise ConstructionError(f"eps = {eps!r} is not an element 0..{q - 1}")
    elif F.is_square(eps):
        raise ConstructionError(f"eps = {eps} is a square")
    G = heisenberg(F, 1)
    phi_gen = _heisenberg_automorphism(G, F, eps,
                                       _matrix_group_generator(F, eps))
    # phi is a homomorphism on the cyclic matrix group, so it is
    # injective iff the audited phi(gen) has the group's order q^2 - 1
    if phi_gen.order() != q * q - 1:
        raise ConstructionError("phi is not injective on the matrices")

    P = cyclotomic(G, [phi_gen])
    Z = center(G)
    if len(Z) != q:
        raise ConstructionError("center has unexpected order")
    zsharp = Z.members[1:]  # members are sorted, e = 0 first
    classes = set(P.classes)
    if zsharp not in classes:
        raise ConstructionError("Z^# is not a single orbit")
    off = [c for c in P.classes if c != (0,) and c != zsharp]
    if len(off) != q or any(len(c) != q * q - 1 for c in off):
        raise ConstructionError("off-center orbits have unexpected sizes")

    orbit_sets = {}
    for i in F.elements():
        rep = G.index[((1,), (0,), i)]
        Yi = P.classes[int(P.class_of[rep])]
        orbit_sets[i] = Yi
    if len({v for v in orbit_sets.values()}) != q:
        raise ConstructionError("orbit representatives collide")
    sets = {i: tuple(sorted(orbit_sets[i] + (0,))) for i in F.elements()}

    fam = [sets[i] for i in F.elements()]
    cert = verify_linked(G, Z, fam)

    # delta = (16 eps)^(-1): completing the square in the Pell equation
    # behind the psi count produces the constant term 1/(16 eps), a
    # nonsquare since eps is one and 16 is a square
    sixteen = 16 % F.p
    delta = F.inv(F.mul(sixteen, eps))
    if F.is_square(delta):
        raise ConstructionError("delta must be a nonsquare")
    # extracted characteristic pair against the closed formulas
    for a, b in itertools.product(range(q), repeat=2):
        if F.add(a, b) == 0:
            if cert.chi[a] != b:
                raise ConstructionError("chi(i) != -i")
            continue
        want = F.div(F.add(F.mul(a, b), delta), F.add(a, b))
        if cert.psi[(a, b)] != want:
            raise ConstructionError(
                f"psi({a},{b}) = {cert.psi[(a, b)]} differs from "
                f"(ij+delta)/(i+j) = {want}")
    return HeisenbergSystem(F, G, eps, delta, Z, P, orbit_sets, sets, cert)


def _iterated_product(cert, base_cert, r, product):
    """Multiply cert by r - 1 copies of base_cert with product
    (rds_product or linked_product), each over the central product that
    amalgamates their forbidden subgroups; returns the last certificate.

    Each step after the first amalgamates along the previous one: the
    subgroup it built is base_cert.N's image under embed2.  Each step
    multiplies the order by |G_base| / |N|: every order is checked
    against the table budget before the first product is built."""
    Z, theta = base_cert.N, None
    v = cert.group.order
    for _ in range(r - 1):
        v = v * base_cert.group.order // len(Z)
        _check_budget(v)
    for _ in range(r - 1):
        cp = central_product(cert.group, base_cert.group, cert.N, Z,
                             theta=theta)
        cert = product(cp, cert, base_cert)
        theta = {int(cp.embed2[z]): z for z in Z.members}
    return cert


def heisenberg_system_2r(F: Field, r: int) -> LinkedCertificate:
    """Linked system in the Heisenberg group of dimension 2r+1,
    assembled by iterated products over central products (f = id)."""
    require_ints(ConstructionError, r=r)
    if r < 1:
        raise ConstructionError("r must be >= 1")
    base = heisenberg_system(F).certificate
    return _iterated_product(base, base, r, linked_product)


# ---------------------------------------------------------------------------
# extraspecial M_{p^3}


@dataclass
class ExtraspecialSystem:
    p: int
    group: FiniteGroup
    xi: int
    sigma: Automorphism
    tau: Automorphism
    sigma_i: list
    partition: SchurPartition
    Y: Subgroup
    Z: Subgroup
    X_sets: list  # X_i, i = 0..p-1
    Y_certs: list  # Y_i = X_i + Y, forbidden Z
    Z_certs: list  # Z_i = X_i + Z, forbidden Y
    pds_certs: list  # S_i = X_i + Y^# + Z^#


def _least_primitive_root_mod_p2(p: int) -> int:
    p2 = p * p
    phi = p * (p - 1)
    for g in range(2, p2):
        if g % p == 0:
            continue
        order, cur = 1, g
        while cur != 1:
            cur = cur * g % p2
            order += 1
        if order == phi:
            return g
    raise ConstructionError(f"no primitive root mod {p}^2")


def extraspecial_rds(p: int) -> ExtraspecialSystem:
    """All the M_{p^3} machinery: the Frobenius automorphism group, its
    orbit partition, the 2p difference-set certificates and p partial
    difference sets, and the automorphisms moving X_0 to X_i."""
    require_ints(ConstructionError, p=p)
    if not is_prime(p) or p == 2:
        raise ConstructionError("p must be an odd prime")
    G = extraspecial_mp3(p)
    p2 = p * p
    x_idx = G.index[(1, 0)]
    y_idx = G.index[(0, 1)]
    root = _least_primitive_root_mod_p2(p)
    xi = pow(root, p, p2)
    eta_xi = xi % p

    # sigma: x -> x y z^((p+1)/2), y -> y
    c = (p + 1) // 2
    sigma = automorphism_from_images(
        G, {x_idx: G.index[((1 + p * c) % p2, 1)], y_idx: y_idx})
    # tau: x -> x^xi, y -> y
    tau = automorphism_from_images(
        G, {x_idx: G.index[(xi, 0)], y_idx: y_idx})
    if sigma.order() != p or tau.order() != p - 1:
        raise ConstructionError("sigma or tau has wrong order")
    # tau sigma tau^-1 = sigma^eta: tau normalizes <sigma>, and
    # |sigma| = p and |tau| = p - 1 are coprime, so K = <sigma><tau> is
    # the Frobenius group of order p(p-1)
    eta = pow(eta_xi, -1, p)
    sigma_eta = np.arange(G.order)
    for _ in range(eta):
        sigma_eta = sigma.perm[sigma_eta]
    if not np.array_equal(tau.perm[sigma.perm[np.argsort(tau.perm)]],
                          sigma_eta):
        raise ConstructionError(f"tau sigma tau^-1 != sigma^{eta}")

    P = cyclotomic(G, [sigma, tau])
    if P.rank != 3 * p:
        raise ConstructionError(f"rank {P.rank}, expected {3 * p}")

    Ymem = tuple(G.index[(0, b)] for b in range(p))
    Zmem = tuple(G.index[(pc, 0)] for pc in range(0, p2, p))
    Ysub = Subgroup(G, tuple(sorted(Ymem)))
    Zsub = Subgroup(G, tuple(sorted(Zmem)))

    inv2 = pow(2, -1, p)
    xi_powers = sorted({pow(xi, j, p2) for j in range(p - 1)})
    if len(xi_powers) != p - 1:
        raise ConstructionError("xi powers collide")
    X0 = []
    for alpha in xi_powers:
        for beta in range(p):
            gamma = (alpha % p) * beta * inv2 % p
            X0.append(G.index[((alpha + p * gamma) % p2, beta)])
    X0 = tuple(sorted(X0))

    # the right translates by y^i, i = 0..p-1; X_0 is the first
    ys = [G.index[(0, i)] for i in range(p)]
    X_sets = [tuple(x.tolist()) for x in np.sort(G.table[np.ix_(X0, ys)].T)]
    zcosets = {tuple(z.tolist()) for z in
               np.sort(G.table[np.ix_(Zsub.members[1:], ys)].T)}
    # the partition must be exactly {y^i}, Z^# y^i, X_i
    singles = {(y,) for y in ys}
    if set(P.classes) != singles | zcosets | set(X_sets):
        raise ConstructionError("partition differs from the expected list")

    sigma_i = []
    for i in range(p):
        si = automorphism_from_images(
            G, {x_idx: G.index[(1, i)], y_idx: y_idx})
        if si.apply_set(X0) != X_sets[i]:
            raise ConstructionError(f"sigma_{i}(X_0) != X_{i}")
        if si.apply_set(Ysub.members) != Ysub.members or \
                si.apply_set(Zsub.members) != Zsub.members:
            raise ConstructionError(f"sigma_{i} moves Y or Z")
        sigma_i.append(si)

    Y_certs, Z_certs, pds_certs = [], [], []
    for i in range(p):
        Yi = tuple(sorted(set(X_sets[i]) | set(Ymem)))
        Zi = tuple(sorted(set(X_sets[i]) | set(Zmem)))
        cy = verify_rds(G, Yi, Zsub)
        cz = verify_rds(G, Zi, Ysub)
        if cy.parameters != (p2, p, p2, p) or cz.parameters != (p2, p, p2, p):
            raise ConstructionError("Y_i or Z_i has wrong parameters")
        if not cy.reversible or not cz.reversible:
            raise ConstructionError("Y_i or Z_i is not reversible")
        Si = tuple(sorted(set(X_sets[i])
                          | (set(Ymem) - {0}) | (set(Zmem) - {0})))
        cs = verify_pds(G, Si)
        if cs.parameters != (p ** 3, p2 + p - 2, p - 2, p + 2):
            raise ConstructionError("S_i has wrong PDS parameters")
        Y_certs.append(cy)
        Z_certs.append(cz)
        pds_certs.append(cs)

    return ExtraspecialSystem(p, G, xi, sigma, tau, sigma_i, P, Ysub, Zsub,
                              X_sets, Y_certs, Z_certs, pds_certs)


# ---------------------------------------------------------------------------
# Q8


def q8_system() -> LinkedCertificate:
    """{X_1, X_2 = X_1^(-1)} in Q8 relative to the center."""
    G = quaternion8()
    e = G.index[(0, 0)]
    a = G.index[(0, 1)]
    b = G.index[(1, 0)]
    ba = G.mul(b, a)
    X1 = (e, a, b, ba)
    X2 = tuple(np.sort(G.inv[list(X1)]).tolist())
    Z = center(G)
    return verify_linked(G, Z, [X1, X2])


def q8_system_2r(r: int) -> LinkedCertificate:
    """Central product of r quaternion groups, linked with f = id."""
    require_ints(ConstructionError, r=r)
    if r < 1:
        raise ConstructionError("r must be >= 1")
    base = q8_system()
    return _iterated_product(base, base, r, linked_product)


# ---------------------------------------------------------------------------
# generalized Davis-Polhill-Smith


@dataclass
class DpsSystem:
    n_field: Field
    t: int
    H: FiniteGroup
    plane: FiniteGroup  # elementary abelian of order n^2
    ambient: FiniteGroup  # H x plane
    endos: list  # matrices of the multipliers in S, zero first
    amorphic_sets: dict
    families: list  # Y_f index sets, f in S^#
    certificate: LinkedCertificate


def dps_system(F: Field, t: int, s: int | None = None,
               labeling=None) -> DpsSystem:
    """Linked system {Y_f : f in S^#} in H x G with forbidden subgroup H.

    n = |F|, t = |H| = p^j a prime-power divisor of n, s = |S| = p^i a
    divisor of t; the amorphic Latin-square sets over G = F x F are
    glued along S^# as Y_f = {e} + union of h^f X_h.
    """
    if s is None:
        s = t
    require_ints(ConstructionError, t=t, s=s)
    n = F.q
    if t < 2 or n % t:
        raise ConstructionError(f"t = {t} must divide n = {n} and be >= 2")
    p = F.p
    if s < 2 or t % s:
        raise ConstructionError(f"s = {s} must be a power of {p} dividing t")
    # t | n = p^r and s | t, so both are powers of p
    j = next(e for e in range(F.r + 1) if p ** e == t)
    i = next(e for e in range(j + 1) if p ** e == s)
    if s - 1 < 2:
        raise ConstructionError("a single set is not a linked system")

    H = elementary_abelian(p, j)
    plane, sets = amorphic_latin(F, t, labeling)
    ambient = direct_product(H, plane)
    vg = plane.order
    # S multiplies H = GF(p^j) by the span of 1, tau, ..., tau^(i-1), tau
    # a root of the modulus; a nonzero multiplier is invertible.  H lists
    # h = (h_0, ..., h_(j-1)) with h_0 most significant, the field
    # h_0 + h_1 tau + ..., so field_of[idx] reverses idx's digits
    Fh = field_make(p, j)
    S = [Fh.from_coeffs(c) for c in itertools.product(range(p), repeat=i)]
    field_of = np.array([Fh.from_coeffs(h) for h in H.elements])
    h_of = np.argsort(field_of)
    place = p ** np.arange(j)
    # column k of the matrix of a holds the digits of a tau^k
    endos = [tuple(map(tuple, (Fh.mul(a, place)[None] // place[:, None]
                               % p).tolist())) for a in S]

    fams = []
    for a in S[1:]:
        hf = h_of[Fh.mul(a, field_of)] * vg  # h -> h^f, shifted into H x G
        members = np.sort(np.concatenate(
            [[0]] + [hf[h] + np.asarray(sets[h]) for h in range(t)]))
        if members.size != n * n or (members[1:] == members[:-1]).any():
            raise ConstructionError("|Y_f| != n^2")
        fams.append(tuple(members.tolist()))

    N = Subgroup(ambient, tuple(h_idx * vg for h_idx in range(t)))
    cert = verify_linked(ambient, N, fams)
    expect = (n * n, t, n * n, n * n // t, s - 1,
              n + (n - 1) * n // t, (n - 1) * n // t)
    if cert.parameters != expect:
        raise ConstructionError(
            f"parameters {cert.parameters} differ from predicted {expect}")
    # with these parameters verify_linked has shown every non-inverse
    # product to be n Y_psi + ((n-1)n/t)(H x G) and Y_f Y_chi(f) to be the
    # RDS equation: the product identity, Y_f^(-1) = Y_(-f) among it,
    # holds iff chi and psi add the multipliers
    key = {a: k for k, a in enumerate(S[1:])}
    for (a1, k1), (a2, k2) in itertools.product(key.items(), repeat=2):
        a = Fh.add(a1, a2)
        if a == 0:
            ok = cert.chi[k1] == k2
        else:
            ok = cert.chi[k1] != k2 and cert.psi[(k1, k2)] == key[a]
        if not ok:
            raise ConstructionError(
                f"product identity fails for pair ({k1},{k2})")
    return DpsSystem(F, t, H, plane, ambient, endos, sets, fams, cert)


# ---------------------------------------------------------------------------
# Theorem-level assembly: (p^2r, p, p^2r, p^(2r-1)) in exponent p^2


def theorem_1_2_rds(p: int, r: int):
    """Central product of one M_{p^3} (carrying Y_0) with r-1
    dimension-3 Heisenberg factors (each carrying X_0); returns
    (group, set, certificate)."""
    require_ints(ConstructionError, p=p, r=r)
    if not is_prime(p) or p == 2:
        raise ConstructionError("p must be an odd prime")
    if r < 1:
        raise ConstructionError("r must be >= 1")
    es = extraspecial_rds(p)
    cert = es.Y_certs[0]  # Y_0 = X_0 + Y, reversible hence i-commuting
    if r > 1:
        hs = heisenberg_system(field_make(p))
        # member_certs[0] certifies X_0 relative to the center
        cert = _iterated_product(cert, hs.certificate.member_certs[0], r,
                                 rds_product)
    expect = (p ** (2 * r), p, p ** (2 * r), p ** (2 * r - 1))
    if cert.parameters != expect:
        raise ConstructionError(
            f"parameters {cert.parameters} differ from {expect}")
    if cert.group.exponent() != p * p:
        raise ConstructionError("ambient group does not have exponent p^2")
    return cert.group, cert.X, cert
