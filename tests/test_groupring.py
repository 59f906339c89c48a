import random
import tracemalloc

import numpy as np
import pytest

from rdslink import groupring
from rdslink.ff import field_make
from rdslink.groups import (cyclic, elementary_abelian, extraspecial_mp3,
                            heisenberg, quaternion8)
from rdslink.groupring import GroupRingElement, GroupRingError


def test_indicator_and_basics():
    G = cyclic(4)
    a = GroupRingElement.indicator(G, [0, 1])
    assert a.vec.sum() == 2
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
    a_el = G.index[(0, 1)]
    b_el = G.index[(1, 0)]
    x = GroupRingElement.basis(G, a_el)
    y = GroupRingElement.basis(G, b_el)
    assert x * y != y * x
    assert (x * y).support() == (G.mul(a_el, b_el),)


def test_indicator_accepts_iterables_and_integer_arrays():
    G = cyclic(6)
    want = [0, 1, 0, 1, 0, 1]
    for subset in ([1, 3, 5], (5, 3, 1), {1, 3, 5}, range(1, 6, 2),
                   np.array([1, 3, 5]), np.array([5, 1, 3], dtype=np.uint8),
                   [np.int64(1), 3, 5, 5]):
        assert GroupRingElement.indicator(G, subset).vec.tolist() == want
    for subset in ([], set(), range(0), np.array([], dtype=np.int64)):
        assert GroupRingElement.indicator(G, subset).vec.tolist() == [0] * 6


@pytest.mark.parametrize("subset, witness", [
    ([1.7], "entry 1.7 at position 0"),
    ([0, 2, 2.0], "entry 2.0 at position 2"),
    ([0, True], "entry True at position 1"),
    ((0, 1, np.bool_(False)), "entry np.False_ at position 2"),
    (["3"], "entry '3' at position 0"),
    (np.array([1.0, 2.0]), "entry 1.0 at position 0"),
    (np.array([True]), "entry True at position 0"),
    ([0, 6, -1], "index 6 out of range"),
    (np.array([3, -2]), "index -2 out of range"),
    ([2 ** 70], "index 1180591620717411303424 out of range"),
])
def test_indicator_rejects_non_integer_or_out_of_range(subset, witness):
    with pytest.raises(GroupRingError, match=witness):
        GroupRingElement.indicator(cyclic(6), subset)


def _convolve_by_definition(G, a, b):
    """c_g = sum over h*k = g of a_h b_k, one pair (h, k) at a time."""
    out = [0] * G.order
    for h in range(G.order):
        for k in range(G.order):
            out[G.mul(h, k)] += int(a[h]) * int(b[k])
    return out


@pytest.mark.parametrize("block", [None, 5])
@pytest.mark.parametrize("G", [
    cyclic(12), quaternion8(), heisenberg(field_make(3)),
    extraspecial_mp3(3)], ids=lambda G: G.name)
def test_convolution_matches_definition(monkeypatch, G, block):
    # block = 5 splits every product into several row blocks, and puts
    # more than a block of pairs in a single row of a dense operand
    if block is not None:
        monkeypatch.setattr(groupring, "_BLOCK", block)
    rng = np.random.default_rng(G.order)
    v = G.order
    sparse = np.zeros(v, dtype=np.int64)
    sparse[rng.choice(v, 3, replace=False)] = rng.integers(-9, 10, 3)
    single = np.zeros(v, dtype=np.int64)
    single[rng.integers(v)] = -7
    operands = {"dense": rng.integers(-9, 10, v), "sparse": sparse,
                "single": single, "zero": np.zeros(v, dtype=np.int64)}
    for a in operands.values():
        for b in operands.values():
            got = GroupRingElement(G, a) * GroupRingElement(G, b)
            assert got.vec.tolist() == _convolve_by_definition(G, a, b)


def test_convolution_over_many_blocks_stays_bounded():
    # v^2 = 2^24 pairs in hundreds of blocks; gathering them at once would
    # allocate two v x v int64 arrays, 256 MB
    G = elementary_abelian(2, 12)
    one = GroupRingElement(G, np.ones(G.order, dtype=np.int64))
    tracemalloc.start()
    try:
        square = one * one
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert square == G.order * one
    assert peak < 8 * 2 ** 20
