from collections import Counter

import numpy as np
import pytest

from rdslink.ff import field_make
from rdslink.groups import (Automorphism, FiniteGroup, GroupError, Subgroup,
                            automorphism_from_images, center,
                            central_product, cyclic, direct_product,
                            elementary_abelian, extraspecial_mp3,
                            heisenberg, is_transversal, orbits, quaternion8)
from rdslink.rds import dev


def test_cyclic():
    G = cyclic(6)
    assert G.order == 6
    assert G.element_orders() == [1, 6, 3, 2, 3, 6]
    assert G.is_abelian()
    assert G.exponent() == 6


def test_elementary_abelian():
    G = elementary_abelian(3, 2)
    assert G.order == 9
    assert G.exponent() == 3
    assert G.is_abelian()


def test_direct_product():
    G = direct_product(cyclic(4), cyclic(2))
    assert G.order == 8
    assert G.is_abelian()
    assert G.exponent() == 4
    # embeddings are homomorphic images
    assert G.mul(int(G.embed1[1]), int(G.embed2[1])) == 1 * 2 + 1


def test_audit_rejects_bad_table():
    t = cyclic(5).table.copy()
    t[1, 1] = 1  # row 1 no longer a permutation
    with pytest.raises(GroupError):
        FiniteGroup(t)


def test_audit_rejects_shifted_identity():
    t = cyclic(3).table[[1, 0, 2]]
    with pytest.raises(GroupError):
        FiniteGroup(t)


def test_audit_rejects_non_integer_entry():
    with pytest.raises(GroupError, match=r"0\.9 at \(1, 1\)"):
        FiniteGroup([[0, 1], [1, 0.9]])


def test_from_elements_rejects_product_off_grid():
    with pytest.raises(GroupError, match="coordinate grid"):
        FiniteGroup.from_elements([0, 1, 2], lambda g, h: (g[0] + h[0],))


def test_heisenberg_basic():
    G = heisenberg(field_make(3), 1)
    assert G.order == 27
    assert not G.is_abelian()
    assert G.exponent() == 3
    Z = center(G)
    assert len(Z) == 3
    assert Z.members == tuple(G.index[((0,), (0,), z)] for z in range(3))


def test_heisenberg_commutator_is_central():
    F = field_make(3)
    G = heisenberg(F, 1)
    Z = set(center(G).members)
    for a in range(G.order):
        for b in range(G.order):
            comm = G.mul(G.mul(a, b), int(G.inv[G.mul(b, a)]))
            assert comm in Z


def test_heisenberg_even_rejected():
    with pytest.raises(GroupError):
        heisenberg(field_make(2, 2), 1)


def test_extraspecial_mp3():
    G = extraspecial_mp3(3)
    assert G.order == 27
    assert G.exponent() == 9
    assert not G.is_abelian()
    Z = center(G)
    assert Z.members == tuple(sorted(G.index[(3 * c, 0)] for c in range(3)))
    # y x y^-1 = x^(1+p)
    x, y = G.index[(1, 0)], G.index[(0, 1)]
    assert G.mul(G.mul(y, x), int(G.inv[y])) == G.index[(4, 0)]


def test_quaternion8():
    G = quaternion8()
    assert G.order == 8
    assert Counter(G.element_orders()) == {1: 1, 2: 1, 4: 6}
    a, b = G.index[(1, 0)], G.index[(0, 1)]
    # b^2 = a^2 and b a b^-1 = a^-1
    assert G.mul(b, b) == G.index[(2, 0)]
    assert G.mul(G.mul(b, a), int(G.inv[b])) == G.index[(3, 0)]


def test_subgroup_validation():
    G = cyclic(6)
    Subgroup(G, (0, 2, 4))
    with pytest.raises(GroupError):
        Subgroup(G, (0, 2))  # not closed
    with pytest.raises(GroupError):
        Subgroup(G, (1, 5))  # no identity


def test_subgroup_closure_and_cosets():
    G = cyclic(12)
    H = Subgroup(G, (0, 4, 8))
    cosets = dev(G, H.members)  # the right cosets Hg
    assert cosets == [(0, 4, 8), (1, 5, 9), (2, 6, 10), (3, 7, 11)]
    assert sorted(g for c in cosets for g in c) == list(range(12))


def test_transversal():
    G = cyclic(6)
    H = Subgroup(G, (0, 3))
    assert is_transversal(G, H, [0, 1, 2]) == (True, True)
    assert is_transversal(G, H, [0, 1, 4]) == (False, False)


def test_automorphism_validation():
    G = cyclic(5)
    inv_map = Automorphism(G, np.array([0, 4, 3, 2, 1]))
    assert inv_map.order() == 2
    assert orbits(G, [inv_map]) == [(0,), (1, 4), (2, 3)]
    with pytest.raises(GroupError):
        Automorphism(G, np.array([0, 2, 1, 3, 4]))  # not a homomorphism
    with pytest.raises(GroupError):
        Automorphism(G, np.array([1, 0, 2, 3, 4]))  # moves identity
    with pytest.raises(GroupError, match="permutation"):
        Automorphism(cyclic(3), [0, 1, 7])  # image out of range
    with pytest.raises(GroupError, match="permutation"):
        Automorphism(cyclic(3), [0, 1, 2.5])  # not an integer


def test_automorphism_from_images():
    G = cyclic(5)
    a = automorphism_from_images(G, {1: 2})  # x -> x^2
    assert a(1) == 2 and a(2) == 4
    assert a.order() == 4
    with pytest.raises(GroupError):
        automorphism_from_images(cyclic(6), {2: 2})  # 2 does not generate


def test_is_normal():
    G = quaternion8()
    # 1, Z = <a^2>, <a>, <b>, <ab>, Q8 (indices: a^i b^j -> 4j + i)
    subs = [(0,), (0, 2), (0, 1, 2, 3), (0, 2, 4, 6), (0, 2, 5, 7),
            tuple(range(8))]
    for members in subs:
        # g h g^-1 for every g (rows) and h in H (columns)
        conjugates = G.table[G.table[:, members], G.inv[:, None]]
        assert np.isin(conjugates, members).all()  # every one is normal


def test_central_product_q8_q8():
    G1 = quaternion8()
    Z = center(G1)
    cp = central_product(G1, G1, Z, Z)
    G = cp.group
    assert G.order == 32
    assert len(cp.amalgamated) == 2
    im1, im2 = cp.embed1, cp.embed2
    # embedded factors commute elementwise
    for a in im1:
        for b in im2:
            assert G.mul(int(a), int(b)) == G.mul(int(b), int(a))
    # embeddings are monomorphisms
    for a in range(8):
        for b in range(8):
            assert int(im1[G1.mul(a, b)]) == G.mul(int(im1[a]), int(im1[b]))


def test_central_product_rejects_noncentral():
    G1 = quaternion8()
    H = Subgroup(G1, (0, 1, 2, 3))  # <a> is not central
    with pytest.raises(GroupError, match="Z1 is not central in G1"):
        central_product(G1, G1, H, H)
    with pytest.raises(GroupError, match="Z2 is not central in G2"):
        central_product(G1, G1, center(G1), H)


@pytest.mark.parametrize("theta, message", [
    ({0: 0, 1: 2, 2: 1, 3: 3}, "theta is not an isomorphism"),
    ({0: 0, 1: 1, 2: 2, 3: 2}, "theta is not a bijection"),
])
def test_central_product_audits_theta(theta, message):
    C4 = cyclic(4)
    Z = Subgroup(C4, (0, 1, 2, 3))
    with pytest.raises(GroupError, match=message):
        central_product(C4, C4, Z, Z, theta=theta)
