import itertools
import math
import re

import numpy as np
import pytest
from sympy import factorint
from sympy.combinatorics import Permutation, PermutationGroup

from rdslink.constructions import q8_system_2r
from rdslink.groups import (Subgroup, central_product, cyclic,
                            direct_product, quaternion8)
from rdslink.groupring import GroupRingError
from rdslink.linked import (InverseNotInFamily, LinkedError,
                            NonIntegralBranch, _abelian_invariant_factors,
                            associated_group, linked_product, munu_branches,
                            verify_linked)
from rdslink.rds import RdsError, verify_rds


def test_munu_branches_known_values():
    assert set(munu_branches(9, 3, 9)) == {(5, 2), (1, 4)}
    assert set(munu_branches(4, 2, 4)) == {(3, 1), (1, 3)}
    assert set(munu_branches(81, 3, 81)) == {(33, 24), (21, 30)}
    assert set(munu_branches(16, 2, 16)) == {(10, 6), (6, 10)}
    assert set(munu_branches(25, 5, 25)) == {(9, 4), (1, 6)}


def test_munu_branches_nonintegral():
    with pytest.raises(NonIntegralBranch):
        munu_branches(5, 2, 5)


def test_q8_certificate_shape(q8cert):
    assert q8cert.parameters == (4, 2, 4, 2, 2, 1, 3)
    assert q8cert.chi == (1, 0)  # chi = swap
    assert q8cert.psi == {(0, 0): 1, (1, 1): 0}
    assert (q8cert.mu, q8cert.nu) in munu_branches(4, 2, 4)


def test_verify_linked_requires_inverses(heis3):
    G = heis3.group
    Z = heis3.center
    # {X_0, X_1} omits X_1^(-1) = X_2
    with pytest.raises(InverseNotInFamily):
        verify_linked(G, Z, [heis3.sets[0], heis3.sets[1]])


def test_verify_linked_rejects_float_entries(heis3):
    # int() would read X_0 + 0.4 as X_0 and certify the system
    fam = [list(X) for X in heis3.sets.values()]
    fam[0] = [g + 0.4 for g in fam[0]]
    with pytest.raises(GroupRingError, match="not an integer"):
        verify_linked(heis3.group, heis3.center, fam)


def test_verify_linked_rejects_tiny_family(heis3):
    with pytest.raises(LinkedError):
        verify_linked(heis3.group, heis3.center, [heis3.sets[0]])


def test_verify_linked_counting_identity(heis3):
    c = heis3.certificate
    assert c.mu * c.k + c.nu * (c.m * c.n - c.k) == c.k * c.k


def test_associated_group_q8(q8cert):
    a = associated_group(q8cert.s, q8cert.chi, q8cert.psi)
    assert a.kind == "cyclic"
    assert a.order == 3


def test_associated_group_heisenberg(heis3):
    c = heis3.certificate
    a = associated_group(c.s, c.chi, c.psi)
    assert a.kind == "cyclic"
    assert a.order == 4  # q + 1


def test_associated_group_dps_elementary_abelian(dps4):
    c = dps4.certificate
    a = associated_group(c.s, c.chi, c.psi)
    assert a.order == 4
    assert a.kind == "elementary_abelian"
    assert a.invariant_factors == (2, 2)


def test_associated_group_validation():
    with pytest.raises(LinkedError):
        associated_group(2, (1, 1), {})  # chi not an involution
    with pytest.raises(LinkedError):
        associated_group(2, (1, 0), {})  # psi missing off the diagonal
    # a psi that breaks associativity must be rejected
    with pytest.raises(LinkedError):
        associated_group(3, (0, 1, 2),
                         {(0, 1): 0, (0, 2): 0, (1, 0): 0, (1, 2): 0,
                          (2, 0): 0, (2, 1): 0, (1, 1): 0, (0, 0): 1})


@pytest.mark.parametrize("chi, psi, where", [
    ((0, 5), {}, "chi[1] = 5"),
    ((1, 0), {(0, 0): 7, (1, 1): 0}, "psi(0, 0) = 7"),
    ((1, 0), {(0, 0): 1, (1, 1): "x"}, "psi(1, 1) = 'x'"),
], ids=["chi-out-of-range", "psi-out-of-range", "psi-not-an-int"])
def test_associated_group_rejects_entries_out_of_range(chi, psi, where):
    with pytest.raises(LinkedError, match=re.escape(where)):
        associated_group(2, chi, psi)


@pytest.mark.parametrize("orders", [(2, 4), (2, 6), (3, 9), (2, 2, 4),
                                    (6, 6), (2, 3)],
                         ids=lambda o: "x".join(f"C{n}" for n in o))
def test_invariant_factors_of_cyclic_products_against_sympy(orders):
    G = cyclic(orders[0])
    for n in orders[1:]:
        G = direct_product(G, cyclic(n))
    invs = _abelian_invariant_factors(G)
    # largest first, each factor dividing the one before it
    assert all(x % y == 0 for x, y in zip(invs, invs[1:]))
    assert math.prod(invs) == G.order
    P = PermutationGroup([Permutation(row) for row in G.table.tolist()])
    assert sorted(P.abelian_invariants()) == sorted(
        p ** e for f in invs for p, e in factorint(f).items())


def test_psi_commutative_gives_abelian(heis3):
    c = heis3.certificate
    for (a, b), g in c.psi.items():
        assert c.psi[(b, a)] == g


@pytest.mark.parametrize("system", ["heis3", "heis5", "q8cert", "dps3",
                                    "dps4", "q8_2r"])
def test_associated_group_against_sympy(request, system):
    # sympy classifies the left-regular permutation group of the table
    c = (q8_system_2r(2) if system == "q8_2r"
         else request.getfixturevalue(system))
    c = getattr(c, "certificate", c)
    a = associated_group(c.s, c.chi, c.psi)
    P = PermutationGroup([Permutation(row) for row in a.group.table.tolist()])
    assert P.order() == a.order == c.s + 1
    assert P.is_abelian == a.group.is_abelian()
    invs = _abelian_invariant_factors(a.group)
    assert a.kind == "nonabelian" or invs == a.invariant_factors
    # sympy lists prime-power cyclic factors; the factors here are
    # invariant factors, each dividing the one before it
    assert all(x % y == 0 for x, y in zip(invs, invs[1:]))
    assert sorted(P.abelian_invariants()) == sorted(
        p ** e for f in invs for p, e in factorint(f).items())


@pytest.mark.parametrize("system", ["heis3", "q8cert", "dps3"])
def test_every_single_swap_of_a_member_breaks_the_system(request, system):
    c = request.getfixturevalue(system)
    c = getattr(c, "certificate", c)
    G, family = c.group, [tuple(X) for X in c.sets]
    swaps = 0
    for i, X in enumerate(family):
        for out, into in itertools.product(X, range(G.order)):
            if into in X:
                continue
            Y = tuple(sorted(set(X) - {out} | {into}))
            with pytest.raises((LinkedError, RdsError)):
                verify_linked(G, c.N, family[:i] + [Y] + family[i + 1:])
            swaps += 1
    assert swaps == len(family) * c.k * (G.order - c.k)


def test_linked_product_over_every_f(heis3):
    # Heis(3) o Heis(3): the associated group is C4 with chi = (0, 2, 1),
    # whose automorphisms are the identity and (1 2)
    L = heis3.certificate
    assert L.chi == (0, 2, 1)
    cp = central_product(L.group, L.group, L.N, L.N)
    for f in itertools.permutations(range(3)):
        if f in ((0, 1, 2), (0, 2, 1)):
            cert = linked_product(cp, L, L, f=dict(enumerate(f)))
            assert cert.parameters == (81, 3, 81, 27, 3, 33, 24)
        else:
            with pytest.raises(LinkedError, match="not an automorphism"):
                linked_product(cp, L, L, f=dict(enumerate(f)))


def test_linked_product_takes_systems_of_the_factors(q8cert):
    G, N = q8cert.group, q8cert.N
    Q = quaternion8()  # a rebuilt copy of Q8
    copy = verify_linked(Q, Subgroup(Q, N.members), q8cert.sets)
    with pytest.raises(LinkedError, match="not the factor G2"):
        linked_product(central_product(G, G, N, N), q8cert, copy)
    # over {e}, the direct product: the center N does not embed onto {e}
    e = Subgroup(G, (0,))
    with pytest.raises(LinkedError, match="embed1 does not carry"):
        linked_product(central_product(G, G, e, e), q8cert, q8cert)


def _linked_by_all_pairs(G, N, family):
    """sets, chi, psi, (mu, nu) and the members' parameters, from every
    product X_a X_b with b != chi(a), each counted off the Cayley table."""
    sets = [tuple(sorted(X)) for X in family]
    s = len(sets)
    chi = tuple(sets.index(tuple(sorted(G.inv[list(X)].tolist())))
                for X in sets)
    psi, munu = {}, set()
    for a, b in itertools.product(range(s), repeat=2):
        if b == chi[a]:
            continue
        prod = np.bincount(G.table[np.ix_(sets[a], sets[b])].ravel(),
                           minlength=G.order)
        values = np.unique(prod).tolist()
        assert len(values) == 2
        for mu, nu in (values, values[::-1]):
            level = tuple(np.flatnonzero(prod == mu).tolist())
            if level in sets:
                psi[(a, b)] = sets.index(level)
                munu.add((mu, nu))
                break
    assert len(psi) == s * (s - 1) and len(munu) == 1
    members = [verify_rds(G, X, N).parameters for X in sets]
    return sets, chi, psi, munu.pop(), members


@pytest.fixture(scope="module")
def heis3_products(heis3):
    """Heis(3) o Heis(3) for both automorphisms f of C4, id and (1 2)."""
    L = heis3.certificate
    cp = central_product(L.group, L.group, L.N, L.N)
    return [linked_product(cp, L, L, f=dict(enumerate(f)))
            for f in ((0, 1, 2), (0, 2, 1))]


@pytest.mark.parametrize("system", ["heis3", "heis5", "q8cert", "dps3",
                                    "dps4", "heis3o3-id", "heis3o3-(12)"])
def test_verify_linked_agrees_with_all_pairs(request, system):
    # verify_linked computes one product of each pair (a, b), (chi b, chi a)
    # and reads the other off it at inverses
    if system.startswith("heis3o3"):
        c = request.getfixturevalue("heis3_products")[
            system.endswith("(12)")]
    else:
        c = getattr(request.getfixturevalue(system), "certificate",
                    request.getfixturevalue(system))
    cert = verify_linked(c.group, c.N, c.sets)
    sets, chi, psi, munu, members = _linked_by_all_pairs(c.group, c.N, c.sets)
    assert cert.sets == sets and cert.chi == chi and cert.psi == psi
    assert (cert.mu, cert.nu) == munu
    assert [m.parameters for m in cert.member_certs] == members
    # unless chi is the identity, some psi(a, b) differs from the value at
    # its partner (chi b, chi a), so reading it off needs chi
    assert chi == tuple(range(len(chi))) or any(
        psi[(chi[b], chi[a])] != g for (a, b), g in psi.items())
