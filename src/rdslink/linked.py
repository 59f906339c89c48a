"""Closed linked systems of RDSs: verification of the two-case product
equation, extraction of the characteristic pair (chi, psi), the two
feasible (mu, nu) branches, the associated group on S + {infinity},
and products of linked systems over central products."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ff import indices, is_prime
from .groups import CentralProduct, FiniteGroup, Subgroup, Automorphism
from .groupring import GroupRingElement
from .rds import product_sets, verify_rds


class LinkedError(ValueError):
    pass


class InverseNotInFamily(LinkedError):
    pass


class ProductNotTwoValued(LinkedError):
    pass


class LevelSetNotMember(LinkedError):
    pass


class NonIntegralBranch(LinkedError):
    pass


@dataclass
class LinkedCertificate:
    group: FiniteGroup
    N: Subgroup
    sets: list  # list of sorted index tuples, indexed by 0..s-1
    m: int
    n: int
    k: int
    lam: int
    s: int
    mu: int
    nu: int
    chi: tuple  # chi[alpha] in 0..s-1
    psi: dict  # (alpha, beta) -> gamma, off the diagonal
    member_certs: list
    branch_note: str = ""

    @property
    def parameters(self):
        return (self.m, self.n, self.k, self.lam, self.s, self.mu, self.nu)

    def to_json(self):
        return {"group": self.group.name,
                "forbidden": list(self.N.members),
                "sets": [list(x) for x in self.sets],
                "m": self.m, "n": self.n, "k": self.k, "lambda": self.lam,
                "s": self.s, "mu": self.mu, "nu": self.nu,
                "chi": list(self.chi),
                "psi": [[self.psi.get((a, b), None) for b in range(self.s)]
                        for a in range(self.s)],
                "branch_note": self.branch_note}


def verify_linked(G: FiniteGroup, N: Subgroup | None,
                  family) -> LinkedCertificate:
    """Verify a closed linked system and extract everything from the data.

    Without N, N is the forbidden subgroup the first member's certificate
    finds (see verify_rds), and the other members are certified against
    it.  chi maps a to the member whose indicator is X_a's involution;
    for every non-inverse pair the product must take exactly two
    coefficient values, the indicator of one level set being a member's;
    (mu, nu) are read off and cross-checked against the closed formulas
    (one sign branch must match).
    """
    ind = [GroupRingElement.indicator(G, X) for X in family]
    sets = [x.support() for x in ind]
    s = len(sets)
    if s < 2:
        raise LinkedError("a linked system needs at least 2 members")
    # a member is keyed by its packed indicator, and so is a level set
    lookup = {_key(x.vec): i for i, x in enumerate(ind)}
    if len(lookup) != s:
        raise LinkedError("family members must be pairwise distinct")
    certs = [verify_rds(G, sets[0], N)]
    N = certs[0].N
    certs += [verify_rds(G, X, N) for X in sets[1:]]
    params = {c.parameters for c in certs}
    if len(params) != 1:
        raise LinkedError(f"members have different parameters: {params}")
    m, n, k, lam = certs[0].parameters

    chi = tuple(lookup.get(_key(x.involution().vec)) for x in ind)
    if None in chi:
        raise InverseNotInFamily(
            f"inverse of member {chi.index(None)} not in family")
    assert all(chi[chi[a]] == a for a in range(s))

    # (X_a X_b)* = X_b* X_a* = X_chi(b) X_chi(a) in any group ring, and
    # * carries the level set X_c to X_chi(c): a pair whose partner
    # (chi b, chi a) is done reads psi off it, with the same (mu, nu)
    psi = {}
    mu = nu = None
    for a, b in itertools.product(range(s), repeat=2):
        if b == chi[a]:
            continue  # this case is exactly the RDS equation, verified above
        if (chi[b], chi[a]) in psi:
            psi[(a, b)] = chi[psi[(chi[b], chi[a])]]
            continue
        prod = (ind[a] * ind[b]).vec
        lo, hi = int(prod.min()), int(prod.max())
        at_lo = prod == lo
        if lo == hi or np.count_nonzero(at_lo | (prod == hi)) != prod.size:
            raise ProductNotTwoValued(f"product of members {a},{b} takes "
                                      f"values {sorted(set(prod.tolist()))}")
        # the mu-level set is the family member; try both values
        for cand, mask in (((lo, hi), at_lo), ((hi, lo), ~at_lo)):
            g = lookup.get(_key(mask))
            if g is not None:
                break
        else:
            raise LevelSetNotMember(
                f"no level set of product {a},{b} is a family member")
        if mu is None:
            mu, nu = cand
        elif (mu, nu) != cand:
            raise LinkedError(
                f"(mu, nu) not constant across pairs: ({cand[0]},{cand[1]}) "
                f"at {a},{b} vs ({mu},{nu})")
        psi[(a, b)] = g

    if mu * k + nu * (m * n - k) != k * k:
        raise LinkedError("counting identity mu k + nu(mn - k) = k^2 fails")
    branches = munu_branches(m, n, k)
    if (mu, nu) not in branches:
        raise LinkedError(f"computed (mu, nu) = ({mu},{nu}) matches neither "
                          f"closed branch {branches}")
    return LinkedCertificate(G, N, sets, m, n, k, lam, s, mu, nu, chi, psi,
                             certs)


def _key(vec) -> bytes:
    """The support of vec as bytes, one bit an element."""
    return np.packbits(vec != 0).tobytes()


def munu_by_sign(m: int, n: int, k: int) -> dict:
    """{sign: (mu, nu)} for the closed formulas on the + and - sign
    branches; only branches with nonnegative integer values are kept."""
    num = k * (m * n - k)
    den = m * (n - 1)
    if num % den:
        raise NonIntegralBranch(f"{num}/{den} is not an integer")
    sq = num // den
    root = math.isqrt(sq)
    if root * root != sq:
        raise NonIntegralBranch(f"sqrt({sq}) is not an integer")
    out = {}
    for sign in (+1, -1):
        mu_num = k * k + sign * (m * n - k) * root
        nu_num = k * (k - sign * root)
        if mu_num % (m * n) or nu_num % (m * n):
            continue
        mu, nu = mu_num // (m * n), nu_num // (m * n)
        if mu >= 0 and nu >= 0:
            out[sign] = (mu, nu)
    if not out:
        raise NonIntegralBranch(
            f"no integral (mu, nu) branch for (m, n, k) = ({m},{n},{k})")
    return out


def munu_branches(m: int, n: int, k: int):
    """The feasible (mu, nu) pairs of munu_by_sign, + branch first."""
    return list(munu_by_sign(m, n, k).values())


# ---------------------------------------------------------------------------
# the associated group


@dataclass
class AssociatedGroup:
    group: FiniteGroup
    kind: str  # "cyclic", "elementary_abelian", "abelian", "nonabelian"
    invariant_factors: tuple  # for abelian kinds

    @property
    def order(self):
        return self.group.order

    def to_json(self):
        return {"order": self.order, "kind": self.kind,
                "invariant_factors": list(self.invariant_factors)}


def _abelian_invariant_factors(orders):
    """Invariant factors n_1, n_2, ... (each dividing the one before) of
    an abelian group, read off the list of its element orders: for a
    prime p, #{g : g^(p^i) = e} = p^(c_i), and c_i - c_(i-1) of its
    cyclic p-factors have order p^i or more, so each of the first
    c_i - c_(i-1) invariant factors takes one more p."""
    v = len(orders)
    orders = np.array(orders)
    factors = []
    for p in [p for p in range(2, v + 1) if v % p == 0 and is_prime(p)]:
        count, q = 1, p  # count = #{g : g^(q/p) = e}
        while (more := int(np.count_nonzero(q % orders == 0))) > count:
            at_least = round(math.log(more // count, p))
            factors += [1] * (at_least - len(factors))
            for j in range(at_least):
                factors[j] *= p
            count, q = more, q * p
    return tuple(factors)


def associated_group(s: int, chi, psi) -> AssociatedGroup:
    """Build the group on {infinity} + S from (chi, psi) and classify it.

    Raises if the extended table fails the group axioms, which signals
    that (chi, psi) did not come from a genuine closed linked system.
    """
    chi = indices(chi, s, LinkedError, "chi")
    if len(chi) != s or any(chi[chi[a]] != a for a in range(s)):
        raise LinkedError("chi must be an involution of S")
    if not isinstance(psi, dict):
        raise LinkedError(f"psi = {psi!r} is not a dict from pairs to S")
    cells = np.zeros((s, s), dtype=object)  # psi(a, b) at (a, b)
    for a, b in itertools.product(range(s), repeat=2):
        if b != chi[a]:
            if (a, b) not in psi:
                raise LinkedError(
                    f"psi undefined off the diagonal at ({a},{b})")
            cells[a, b] = psi[a, b]
    # infinity has index 0 and a in S index a + 1; a chi(a) = infinity
    v = s + 1
    table = np.zeros((v, v), dtype=np.int64)
    table[0] = table[:, 0] = np.arange(v)
    table[1:, 1:] = indices(cells, s, LinkedError, "psi", table=True) + 1
    table[np.arange(1, v), chi + 1] = 0
    try:
        G = FiniteGroup(table, name=f"S^inf({s})")
    except Exception as exc:
        raise LinkedError(f"associated table is not a group: {exc}") from exc

    orders = G.element_orders()
    if max(orders) == v:
        kind = "cyclic"
        invs = (v,)
    elif G.is_abelian():
        invs = _abelian_invariant_factors(orders)
        if len(set(orders[1:])) == 1 and is_prime(orders[1]):
            kind = "elementary_abelian"
        else:
            kind = "abelian"
    else:
        kind = "nonabelian"
        invs = ()
    return AssociatedGroup(G, kind, invs)


# ---------------------------------------------------------------------------
# product of linked systems


def linked_product(cp: CentralProduct, L1: LinkedCertificate,
                   L2: LinkedCertificate, f=None) -> LinkedCertificate:
    """{X_alpha Y_f(alpha)} over the central product cp, re-verified
    from scratch relative to N = cp.amalgamated.

    L1 and L2 are systems over the factors G1 and G2 of cp whose
    forbidden subgroups embed onto N (see rds.product_sets).  f must fix
    infinity and be an automorphism of the shared associated group
    (default: identity).  The realized (mu, nu) is whatever the
    exhaustive verification finds; disagreement with the closed
    recurrence is recorded in branch_note, not hidden.
    """
    if L1.s != L2.s:
        raise LinkedError("systems have different index sets")
    if L1.chi != L2.chi or L1.psi != L2.psi:
        raise LinkedError("systems have different characteristic pairs")
    s = L1.s
    assoc = associated_group(s, L1.chi, L1.psi)
    if f is None:
        f = {a: a for a in range(s)}
    else:
        if not isinstance(f, dict):
            raise LinkedError(f"f = {f!r} is not a dict from S to S")
        f = dict(zip(indices(f, s, LinkedError, "f key").tolist(),
                     indices(f.values(), s, LinkedError, "f value").tolist()))
        if set(f) != set(range(s)) or set(f.values()) != set(range(s)):
            raise LinkedError("f must permute S (and fix infinity)")
        # f must extend to an automorphism of the associated group, where
        # infinity has index 0 and a in S index a + 1
        perm = np.array([0] + [f[a] + 1 for a in range(s)])
        try:
            Automorphism(assoc.group, perm)
        except Exception as exc:
            raise LinkedError(
                f"f is not an automorphism of the associated group: {exc}"
            ) from exc

    family = product_sets(cp, L1, L2,
                          [(L1.sets[a], L2.sets[f[a]]) for a in range(s)],
                          LinkedError)
    cert = verify_linked(cp.group, cp.amalgamated, family)
    n = cert.n
    mu_rec = L1.mu * L2.mu + (n - 1) * L1.nu * L2.nu
    nu_rec = L1.mu * L2.nu + L2.mu * L1.nu + (n - 2) * L1.nu * L2.nu
    if (cert.mu, cert.nu) != (mu_rec, nu_rec):
        cert.branch_note = (
            f"realized (mu, nu) = ({cert.mu},{cert.nu}) differs from the "
            f"recurrence prediction ({mu_rec},{nu_rec})")
    return cert
