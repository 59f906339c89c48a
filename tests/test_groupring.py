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
    e = GroupRingElement.indicator(G, [0])
    a = GroupRingElement.indicator(G, [1, 4, 7])
    assert e * a == a and a * e == a


def test_scalar_pairing():
    # coefficient of e in a * b^(-1) equals the scalar product <a, b>
    G = quaternion8()
    rng = random.Random(3)
    for _ in range(100):
        a = GroupRingElement(G, [rng.randrange(2) for _ in range(8)])
        b = GroupRingElement(G, [rng.randrange(2) for _ in range(8)])
        assert (a * b.involution())[0] == int(a.vec @ b.vec)


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


@pytest.mark.parametrize("a, b", [
    # 2^62 * 2 wraps to -2^63 in int64
    ([2 ** 62, 0, 0, 0], [2, 0, 0, 0]),
    # |a|_1 = 4 (2^62 + 1) wraps to 4 in int64
    ([2 ** 62 + 1] * 4, [1, 0, 0, 0]),
    ([1, 0, 0, 0], [-2 ** 63, 0, 0, 0]),
    ([2 ** 31, 0, 0, 0], [0, 0, 0, 0]),
])
def test_overflow_guard_is_computed_without_wrapping(a, b):
    G = cyclic(4)
    with pytest.raises(GroupRingError, match="too large"):
        GroupRingElement(G, a) * GroupRingElement(G, b)


@pytest.mark.parametrize("G", [cyclic(12), heisenberg(field_make(3))],
                         ids=lambda G: G.name)
def test_signed_dense_product_at_the_coefficient_bound(G):
    # |a|_1 * max|b| = 2^31 - 1, the largest product the guard admits;
    # b = sign(a) at inverses puts all of |a|_1 on the identity
    v = G.order
    rng = np.random.default_rng(v)
    a = rng.integers(1, 2 ** 31 // v, v) * rng.choice([-1, 1], v)
    a[-1] = np.sign(a[-1]) * (2 ** 31 - 1 - np.abs(a[:-1]).sum())
    b = np.empty(v, dtype=np.int64)
    b[G.inv] = np.sign(a)
    assert np.abs(a).sum() * np.abs(b).max() == 2 ** 31 - 1
    got = GroupRingElement(G, a) * GroupRingElement(G, b)
    assert got.vec.tolist() == _convolve_by_definition(G, a, b)
    assert got[0] == 2 ** 31 - 1
    b[0] = 2 * b[0]
    with pytest.raises(GroupRingError, match="too large"):
        GroupRingElement(G, a) * GroupRingElement(G, b)


@pytest.mark.parametrize("vec, witness", [
    ([0.5, 1, 0, 0], "entry 0.5 at position 0 is not an integer"),
    ([0, 1, 2.0, 0], "entry 2.0 at position 2 is not an integer"),
    ([0, True, 0, 0], "entry True at position 1 is not an integer"),
    (["1", 0, 0, 0], "entry '1' at position 0 is not an integer"),
    (np.array([0.25, 0, 0, 0]), "entry 0.25 at position 0 is not an integer"),
    (np.array([0, 0, 1, 0], dtype=bool),
     "entry False at position 0 is not an integer"),
    ([0, 2 ** 70, 0, 0], "entry 1180591620717411303424 at position 1 does "
                         "not fit in int64"),
    ([0, 0, -1, 2 ** 63], "entry 9223372036854775808 at position 3 does "
                          "not fit in int64"),
    (np.array([0, 2 ** 64 - 1, 0, 0], dtype=np.uint64),
     "entry 18446744073709551615 at position 1 does not fit in int64"),
    ([0, 1, 0], "length must equal"),
])
def test_constructor_rejects_non_integer_coefficients(vec, witness):
    with pytest.raises(GroupRingError, match=witness):
        GroupRingElement(cyclic(4), vec)


def test_constructor_accepts_integer_arrays_of_any_width():
    G = cyclic(4)
    for vec in ([0, -1, 2 ** 63 - 1, -2 ** 63], (1, 2, 3, 4),
                np.array([1, 2, 3, 4], dtype=np.uint8),
                np.array([-1, 2, 3, 4], dtype=np.int32),
                [np.int64(1), np.uint16(2), 3, 4]):
        x = GroupRingElement(G, vec)
        assert x.vec.dtype == np.int64
        assert x.vec.tolist() == [int(c) for c in vec]


@pytest.mark.parametrize("scalar", [0.5, 2.0, True, "2", 2 ** 63])
def test_scalar_multiple_rejects_non_integers(scalar):
    x = GroupRingElement.indicator(cyclic(4), [1, 2])
    with pytest.raises(GroupRingError, match="scalar"):
        scalar * x


def test_scalar_multiple():
    x = GroupRingElement.indicator(cyclic(4), [1, 2])
    assert (3 * x).vec.tolist() == (np.int64(3) * x).vec.tolist() == [
        0, 3, 3, 0]
    assert (-2 ** 62 * x)[1] == -2 ** 62


@pytest.mark.parametrize("make, wraps_to", [
    (lambda x, y: x + x + x, -2 ** 62),
    (lambda x, y: 3 * x, -2 ** 62),
    (lambda x, y: -y, -2 ** 63),
    (lambda x, y: y - x, 2 ** 62),
    (lambda x, y: np.int64(2) * x, -2 ** 63)],
    ids=["x+x+x", "3x", "-y", "y-x", "int64(2)x"])
def test_linear_operations_refuse_to_wrap(make, wraps_to):
    # over C4 with x = 2^62 e and y = -2^63 e, int64 arithmetic would
    # give the wrapped value silently
    G = cyclic(4)
    x = GroupRingElement(G, [2 ** 62, 0, 0, 0])
    y = GroupRingElement(G, [-2 ** 63, 0, 0, 0])
    with pytest.raises(GroupRingError, match="at position 0 does not fit "
                                             "in int64") as info:
        make(x, y)
    assert str(wraps_to) not in str(info.value)


def test_linear_operations_are_exact_near_the_int64_ends():
    # the Python-int bounds from the extremes would overflow here, but
    # no entry does: the exact path must accept
    G = cyclic(4)
    top, bottom = 2 ** 63 - 1, -2 ** 63
    a = GroupRingElement(G, [top, bottom + 1, 0, 1])
    b = GroupRingElement(G, [bottom + 1, top, 0, -1])
    assert (a + b).vec.tolist() == [0, 0, 0, 0]
    assert (a - a).vec.tolist() == [0, 0, 0, 0]
    assert (-a).vec.tolist() == [-top, top, 0, -1]
    assert (-1 * a).vec.tolist() == [-top, top, 0, -1]
    assert (a + b).vec.dtype == (-a).vec.dtype == np.int64


def test_noncommutative_convolution():
    G = quaternion8()
    a_el = G.index[(0, 1)]
    b_el = G.index[(1, 0)]
    x = GroupRingElement.indicator(G, [a_el])
    y = GroupRingElement.indicator(G, [b_el])
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
    # each id names the case by the message's earlier wording
    pytest.param([0, 6, -1], "entry 6 at position 1 is not an index 0..5",
                 id="subset7-index 6 out of range"),
    pytest.param(np.array([3, -2]),
                 "entry -2 at position 1 is not an index 0..5",
                 id="subset8-index -2 out of range"),
    pytest.param([2 ** 70], "entry 1180591620717411303424 at position 0 "
                 "is not an index 0..5",
                 id="subset9-index 1180591620717411303424 out of range"),
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
