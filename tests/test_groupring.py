import random

import pytest

from rdslink.groups import cyclic, quaternion8
from rdslink.groupring import GroupRingElement, GroupRingError


def test_indicator_and_basics():
    G = cyclic(4)
    a = GroupRingElement.indicator(G, [0, 1])
    assert a.coeff_sum() == 2
    assert a.support() == (0, 1)
    assert a[0] == 1 and a[2] == 0
    with pytest.raises(GroupRingError):
        GroupRingElement.indicator(G, [7])


def test_cyclic_convolution_matches_polynomials():
    # Z[C_n] is Z[x]/(x^n - 1); convolution = polynomial product
    n = 6
    G = cyclic(n)
    rng = random.Random(1)
    for _ in range(25):
        a = [rng.randrange(-5, 6) for _ in range(n)]
        b = [rng.randrange(-5, 6) for _ in range(n)]
        want = [0] * n
        for i in range(n):
            for j in range(n):
                want[(i + j) % n] += a[i] * b[j]
        got = GroupRingElement(G, a) * GroupRingElement(G, b)
        assert got.vec.tolist() == want


def test_ring_laws_random_triples():
    G = quaternion8()
    rng = random.Random(2)
    for _ in range(120):
        a, b, c = (GroupRingElement(
            G, [rng.randrange(-3, 4) for _ in range(8)]) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a * b).involution() == b.involution() * a.involution()
        assert a.involution().involution() == a


def test_identity_element():
    G = quaternion8()
    e = GroupRingElement.basis(G, 0)
    a = GroupRingElement.indicator(G, [1, 4, 7])
    assert e * a == a and a * e == a


def test_scalar_pairing():
    # coefficient of e in a * b^(-1) equals the scalar product <a, b>
    G = quaternion8()
    rng = random.Random(3)
    for _ in range(100):
        a = GroupRingElement(G, [rng.randrange(2) for _ in range(8)])
        b = GroupRingElement(G, [rng.randrange(2) for _ in range(8)])
        assert (a * b.involution())[0] == a.scalar(b)


def test_mismatched_groups_rejected():
    a = GroupRingElement.indicator(cyclic(4), [0])
    b = GroupRingElement.indicator(cyclic(4), [0])
    with pytest.raises(GroupRingError):
        a * b  # distinct group objects


def test_overflow_guard():
    G = cyclic(4)
    big = GroupRingElement(G, [2 ** 30] * 4)
    with pytest.raises(GroupRingError):
        big * big


def test_noncommutative_convolution():
    G = quaternion8()
    a_el = G.index[(1, 0)]
    b_el = G.index[(0, 1)]
    x = GroupRingElement.basis(G, a_el)
    y = GroupRingElement.basis(G, b_el)
    assert x * y != y * x
    assert (x * y).support() == (G.mul(a_el, b_el),)
