import re

import numpy as np
import pytest

from rdslink.ff import field_make
from rdslink.groupring import GroupRingElement, GroupRingError
from rdslink.groups import (Subgroup, center, central_product, cyclic,
                            direct_product, elementary_abelian,
                            extraspecial_mp3, heisenberg)
from rdslink.linked import verify_linked
from rdslink.rds import (EquationFails, IntersectionArray, LambdaNotPositive,
                         RdsError, WrongDiameter, cayley_adjacency,
                         certify_drg3, dev, is_icommuting,
                         rds_product, rds_to_pds, thas_somma, verify_pds,
                         verify_rds)


def test_verify_rds_small():
    # {0,1} is a (2,2,2,1)-RDS in C4 relative to {0,2}
    G = cyclic(4)
    N = Subgroup(G, (0, 2))
    cert = verify_rds(G, (0, 1), N)
    assert cert.parameters == (2, 2, 2, 1)
    assert cert.semiregular
    assert not cert.reversible
    assert cert.i_commuting


def test_verify_rds_failure_witness():
    G = cyclic(4)
    N = Subgroup(G, (0, 2))
    with pytest.raises(EquationFails) as ei:
        verify_rds(G, (0, 2), N)  # hits the forbidden subgroup
    assert ei.value.element is not None


def test_verify_rds_rejects_float_entries(heis3):
    # int() would read X_0 + 0.4 as X_0, a (9, 3, 9, 3)-RDS
    X = [g + 0.4 for g in heis3.sets[0]]
    with pytest.raises(GroupRingError, match="not an integer"):
        verify_rds(heis3.group, X, heis3.center)


@pytest.mark.parametrize("forbidden, named", [
    (lambda G: (0, 2), "tuple"),
    (lambda G: [0, 2], "list"),
    (lambda G: Subgroup(cyclic(4), (0, 2)), "Subgroup")],
    ids=["tuple", "list", "other-group"])
def test_forbidden_must_be_a_subgroup_of_the_group(forbidden, named):
    # a tuple once raised AttributeError: 'tuple' object has no 'group'
    G = cyclic(4)
    N = forbidden(G)
    message = f"^forbidden subgroup is a {named}, not a Subgroup of C4$"
    with pytest.raises(RdsError, match=message):
        verify_rds(G, (0, 1), N)
    with pytest.raises(RdsError, match=message):
        verify_linked(G, N, [(0, 1), (0, 3)])


def test_lambda_not_positive():
    G = cyclic(4)
    N = Subgroup(G, (0, 2))
    with pytest.raises((LambdaNotPositive, RdsError)):
        verify_rds(G, (0,), N)


def test_find_forbidden():
    G = cyclic(4)
    assert verify_rds(G, (0, 1)).N.members == (0, 2)


def test_find_forbidden_above_old_scan_cap():
    # X = {(x, x^2)} in C47 x C47 (order 2209): X.X^(-1) hits (d, d(x+y))
    # once for each d != 0 and misses {0} x C47^#
    G = direct_product(cyclic(47), cyclic(47))
    X = [x * 47 + x * x % 47 for x in range(47)]
    cert = verify_rds(G, X)
    assert cert.N.members == tuple(range(47))
    assert cert.parameters == (47, 47, 47, 1)
    assert cert == verify_rds(G, X, cert.N)


def test_verify_rds_zero_set_not_subgroup():
    # in C8, {0,1}.{0,1}^(-1) vanishes on {2,...,6}, which with 0 is no
    # subgroup
    with pytest.raises(RdsError, match="not a subgroup"):
        verify_rds(cyclic(8), (0, 1))


def _single_swaps(G, X):
    """(out, in, swapped set) for every member out and non-member in."""
    X = set(X)
    return [(a, b, tuple(sorted(X - {a} | {b})))
            for a in sorted(X) for b in range(G.order) if b not in X]


def test_every_single_swap_rejected(heis3, es3, dps3):
    flagships = [(heis3.group, heis3.sets[0], heis3.center),
                 (es3.group, es3.Y_certs[0].X, es3.Z),
                 (dps3.ambient, dps3.families[0], dps3.certificate.N)]
    for G, X, N in flagships:
        swaps = _single_swaps(G, X)
        assert len(swaps) == 162
        for _, _, Y in swaps:
            with pytest.raises(EquationFails):
                verify_rds(G, Y, N)


def test_q8_swaps_within_a_coset_verify(q8cert):
    # X_1 is a transversal of N = {e, a^2}: trading x for x a^2 keeps it one
    G, X, N = q8cert.group, q8cert.sets[0], q8cert.N
    a2 = N.members[1]
    kept = 0
    for x, y, Y in _single_swaps(G, X):
        if y == G.mul(x, a2):
            assert verify_rds(G, Y, N).parameters == (4, 2, 4, 2)
            kept += 1
        else:
            with pytest.raises(EquationFails):
                verify_rds(G, Y, N)
    assert kept == 4


def test_icommuting_dual_criteria_abelian():
    G = cyclic(6)
    N = Subgroup(G, (0, 3))
    x = GroupRingElement.indicator(G, (0, 1))
    xi = x.involution()
    assert is_icommuting(x, x * xi, N, xi)


def test_verify_pds_paley():
    # Paley: S = {1, 4} in C5 is a (5,2,0,1)-PDS
    G = cyclic(5)
    cert = verify_pds(G, (1, 4))
    assert cert.parameters == (5, 2, 0, 1)


def test_verify_pds_rejects_float_entries():
    with pytest.raises(GroupRingError, match="not an integer"):
        verify_pds(cyclic(5), (1.4, 4))


def test_rds_to_pds_requires_reversible():
    G = cyclic(4)
    N = Subgroup(G, (0, 2))
    with pytest.raises(RdsError):
        rds_to_pds(G, (0, 1), N)


def test_rds_product_takes_certificates_of_the_factors(es3, heis3):
    # M27 carrying Y_0 (forbidden Z) times Heis(3) carrying X_0, over Z
    cp = central_product(es3.group, heis3.group, es3.Z, heis3.center)
    c2 = heis3.certificate.member_certs[0]
    cert = rds_product(cp, es3.Y_certs[0], c2)
    assert cert.parameters == (81, 3, 81, 27)
    assert cert.N is cp.amalgamated
    # Y_0 over a rebuilt copy of M27, and Z_0, whose forbidden subgroup
    # is Y while the central product amalgamates Z
    M = extraspecial_mp3(3)
    copy = verify_rds(M, es3.Y_certs[0].X, Subgroup(M, es3.Z.members))
    for c1, message in ((copy, "not the factor G1"),
                        (es3.Z_certs[0], "embed1 does not carry")):
        with pytest.raises(RdsError, match=message):
            rds_product(cp, c1, c2)


def test_intersection_array_feasibility():
    IntersectionArray(8, 6, 1, 1, 3, 8)
    with pytest.raises(RdsError):
        IntersectionArray(1, 6, 1, 1, 3, 8)
    with pytest.raises(RdsError):
        IntersectionArray(8, 6, 1, 2, 3, 8)
    assert str(IntersectionArray(8, 6, 1, 1, 3, 8)) == "{8,6,1;1,3,8}"


def _hypercube(d):
    v = 2 ** d
    adj = np.zeros((v, v), dtype=bool)
    for u in range(v):
        for bit in range(d):
            adj[u, u ^ (1 << bit)] = True
    return adj


def test_certify_drg3_hypercube():
    G = elementary_abelian(2, 3)
    assert np.array_equal(_hypercube(3), cayley_adjacency(G, (1, 2, 4)))
    arr, classes = certify_drg3(_hypercube(3), G)
    assert arr.as_tuple() == (3, 2, 1, 1, 2, 3)
    assert len(classes) == 4
    assert all(len(c) == 2 for c in classes)  # antipodal pairs


def test_certify_drg3_wrong_diameter():
    G = elementary_abelian(2, 4)
    assert np.array_equal(_hypercube(4), cayley_adjacency(G, (1, 2, 4, 8)))
    with pytest.raises(WrongDiameter, match="eccentricity 4"):
        certify_drg3(_hypercube(4), G)  # diameter 4
    # the octagon C8 has diameter 4 too
    v = 8
    adj = np.zeros((v, v), dtype=bool)
    for u in range(v):
        adj[u, (u + 1) % v] = adj[(u + 1) % v, u] = True
    with pytest.raises(WrongDiameter, match="eccentricity 4"):
        certify_drg3(adj, cyclic(v))


def test_cayley_adjacency_validation():
    G = cyclic(5)
    with pytest.raises(RdsError):
        cayley_adjacency(G, (0, 1, 4))  # identity in connection set
    with pytest.raises(RdsError):
        cayley_adjacency(G, (1, 2))  # not reversible
    adj = cayley_adjacency(G, (1, 4))
    assert adj.sum() == 10  # 2-regular on 5 vertices


def test_cayley_adjacency_rejects_float_entries():
    with pytest.raises(GroupRingError, match="not an integer"):
        cayley_adjacency(cyclic(5), (1.5, 4))


def test_dev():
    G = cyclic(4)
    blocks = dev(G, (0, 1))
    assert len(blocks) == 4
    assert (0, 1) in blocks


def test_symplectic_form_checks():
    adj, G = thas_somma(field_make(3), 1)
    assert adj.shape == (27, 27) and G.order == 27


@pytest.mark.parametrize("r", [-1, True, 1.5, "1"],
                         ids=["r-minus-1", "r-True", "r-1.5", "r-str"])
def test_thas_somma_rejects_malformed_input(r):
    with pytest.raises(RdsError, match=re.escape(
            f"r = {r!r} is not a non-negative int")):
        thas_somma(field_make(5), r)


def test_heisenberg_rds_manual():
    # direct verification against a hand-rolled group-ring computation
    F = field_make(3)
    G = heisenberg(F, 1)
    Z = center(G)
    # X = gamma-form set for i=0 plus identity
    half = F.inv(2)
    X = {0}
    for a in range(3):
        for b in range(3):
            if (a, b) == (0, 0):
                continue
            X.add(G.index[((a,), (b,), F.mul(F.mul(a, b), half))])
    cert = verify_rds(G, tuple(sorted(X)), Z)
    assert cert.parameters == (9, 3, 9, 3)
    assert cert.reversible and cert.semiregular and cert.i_commuting
    # cross-check transversality with cosets
    cosets = dev(G, Z.members)  # the right cosets Zg
    for c in cosets:
        assert len(set(c) & X) == 1
