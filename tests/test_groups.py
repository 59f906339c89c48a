import functools
import itertools
import math
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdslink import constructions
from rdslink.constructions import q8_system_2r, theorem_1_2_rds
from rdslink.ff import field_make, least_nonsquare
from rdslink.groups import (TABLE_BYTES, Automorphism, FiniteGroup,
                            GroupError, Subgroup, _check_budget,
                            _check_homomorphism, automorphism_from_images,
                            center, central_product, cyclic, direct_product,
                            elementary_abelian, extraspecial_mp3,
                            heisenberg, is_transversal, orbits, quaternion8)
from rdslink.rds import dev


def test_cyclic():
    G = cyclic(6)
    assert G.order == 6
    assert G.table.dtype == np.uint16
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
    # the pair (a, b) has index a * 2 + b
    assert G.index[(1, 1)] == 1 * 2 + 1
    assert G.mul(G.index[(1, 0)], G.index[(0, 1)]) == G.index[(1, 1)]


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


@pytest.mark.parametrize("table, where", [
    ([[0, True], [True, 0]], "True at (0, 1)"),
    ([[0, 1], [1, False]], "False at (1, 1)"),
    (np.array([[False, True], [True, False]]), "False at (0, 0)")])
def test_audit_rejects_bool_entry(table, where):
    # numpy reads [0, True] as an int array: the cells must be checked
    with pytest.raises(GroupError, match=re.escape(where)):
        FiniteGroup(table)


@pytest.mark.parametrize("table", [
    [[0, 1], [1, 2 ** 32]], [[0, 1], [1, -2 ** 32]], [[0, 1], [1, 2 ** 70]],
    [[0, 1], [1, -2 ** 70]],  # an object array of Python ints
    np.array([[0, 1], [1, 2 ** 32]], dtype=np.int64),
    np.array([[0, 1], [1, 2 ** 32]], dtype=np.uint64),
    [[0, 1], [1, 2 ** 16]], [[0, 1], [1, 2 ** 16 + 1]],
    np.array([[0, 1], [1, 2 ** 16]], dtype=np.int64),
    np.array([[0, 1], [2 ** 16 + 1, 2 ** 16]], dtype=np.int32)])
def test_audit_range_checks_before_narrowing(table):
    # in uint16, 2**16 and 2**32 would wrap to 0 and 2**16 + 1 to 1,
    # each making a valid C2 table; the witness is the first cell, in
    # row-major order, that is no index 0..1
    i, j = next((i, j) for i, j in itertools.product(range(2), repeat=2)
                if not 0 <= int(table[i][j]) <= 1)
    with pytest.raises(GroupError, match=re.escape(
            f"table entry {int(table[i][j])} at ({i}, {j}) is not an "
            f"index 0..1")):
        FiniteGroup(table)


def test_audit_rejects_one_row_swap_in_c3_7():
    # order 2187: sampled associativity triples missed this swap
    t = elementary_abelian(3, 7).table.copy()
    t[1, [1, 2]] = t[1, [2, 1]]
    with pytest.raises(GroupError, match=re.escape(
            "permutation check: column 2 repeats 2 (at rows 0 and 1)")):
        FiniteGroup(t)


def test_audit_rejects_nonassociative_loop():
    # identity 0, a right inverse in every row, and Latin, but
    # (1 1) 2 = 2 while 1 (1 2) = 1 3 = 4
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(GroupError, match=re.escape(
            "commutation check: t (z s) != (t z) s at t=1, z=1, s=2")):
        FiniteGroup(loop)


def _associative(t):
    """Brute force over all v^3 triples: (x y) z == x (y z)."""
    return np.array_equal(t[t], t[:, t])


def _is_group(t):
    """Brute force: 0 a two-sided identity, every row and column a
    permutation, and (x y) z == x (y z) for all v^3 triples, one x at a
    time."""
    v = len(t)
    ident = np.arange(v)
    if not (np.array_equal(t[0], ident) and np.array_equal(t[:, 0], ident)
            and (np.sort(t, axis=0) == ident[:, None]).all()
            and (np.sort(t, axis=1) == ident).all()):
        return False
    return all(np.array_equal(t[t[x]], t[x][t]) for x in range(v))


CHECKS = ("permutation check", "walk check", "commutation check",
          "row check")


@pytest.mark.parametrize("make", [quaternion8,
                                  lambda: elementary_abelian(2, 3),
                                  lambda: extraspecial_mp3(3)],
                         ids=["Q8", "C2^3", "M27"])
def test_audit_agrees_with_brute_force_on_every_row_swap(make):
    base = make().table
    v = len(base)
    assert _associative(base)
    for row in range(1, v):
        for c1, c2 in itertools.combinations(range(1, v), 2):
            t = base.copy()
            t[row, [c1, c2]] = t[row, [c2, c1]]
            try:
                FiniteGroup(t)
                accepted = True
            except GroupError as exc:
                assert str(exc).startswith(CHECKS)
                accepted = False
            assert accepted == _associative(t), (row, c1, c2)


PROPERTY_GROUPS = {  # small enough for the v^3 brute force
    "C3^5": lambda: elementary_abelian(3, 5),
    "M27": lambda: extraspecial_mp3(3),
    "Q8*Q8": lambda: _central_square(quaternion8),
    "C2^7": lambda: elementary_abelian(2, 7),
}


@functools.lru_cache(maxsize=None)
def _property_table(name):
    return PROPERTY_GROUPS[name]().table


@st.composite
def _relabeled_and_mutated(draw):
    """A group table relabeled by a permutation that fixes 0 (another
    group table), then left alone, with two cells of one row swapped,
    or with one cell rewritten."""
    name = draw(st.sampled_from(sorted(PROPERTY_GROUPS)))
    base = _property_table(name)
    v = len(base)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    perm = np.r_[0, 1 + np.random.default_rng(seed).permutation(v - 1)]
    t = np.empty_like(base)
    t[np.ix_(perm, perm)] = perm[base]
    kind = draw(st.sampled_from(["none", "swap", "rewrite"]))
    r, c = draw(st.integers(0, v - 1)), draw(st.integers(0, v - 1))
    if kind == "swap":
        c2 = (c + draw(st.integers(1, v - 1))) % v
        t[r, [c, c2]] = t[r, [c2, c]]
    elif kind == "rewrite":
        t[r, c] = (int(t[r, c]) + draw(st.integers(1, v - 1))) % v
    return name, kind, t


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_relabeled_and_mutated())
def test_audit_accepts_exactly_the_groups(case):
    name, kind, t = case
    try:
        FiniteGroup(t)
        accepted = True
    except GroupError as exc:
        assert str(exc).startswith(
            CHECKS + ("index 0 is not a two-sided identity",))
        accepted = False
    assert accepted == _is_group(t) == (kind == "none"), (name, kind)


def _cayley_dickson(n):
    """The 2 * 2^n units +-e_i of the Cayley-Dickson algebra of
    dimension 2^n, +-e_i at index i + 2^n * (sign is -), under
    (a, b)(c, d) = (a c - d* b, d a + b c*): Q8 at n = 2, the octonion
    loop at n = 3."""
    def unit(i, j, n):  # e_i e_j = sign * e_k, as (sign, k)
        if n == 0:
            return 1, 0
        h = 1 << (n - 1)
        conj = 1 if j % h == 0 else -1  # conj(e_j) = conj * e_j
        if i < h and j < h:
            return unit(i, j, n - 1)
        if i < h:  # (a, 0)(0, d) = (0, d a)
            s, k = unit(j - h, i, n - 1)
            return s, k + h
        if j < h:  # (0, b)(c, 0) = (0, b c*)
            s, k = unit(i - h, j, n - 1)
            return conj * s, k + h
        s, k = unit(j - h, i - h, n - 1)  # (0, b)(0, d) = (-d* b, 0)
        return -conj * s, k

    m = 1 << n
    t = np.zeros((2 * m, 2 * m), dtype=np.int64)
    for x, y in itertools.product(range(2 * m), repeat=2):
        s, k = unit(x % m, y % m, n)
        if (x >= m) != (y >= m):
            s = -s
        t[x, y] = k + (m if s < 0 else 0)
    return t


def test_audit_rejects_the_octonion_loop():
    # doubling the quaternions gives a Moufang loop of order 16: 0 is a
    # two-sided identity and every row and column is a permutation, but
    # it is not associative.  Doubling once less gives Q8, a group
    q8 = _cayley_dickson(2)
    assert _is_group(q8)
    assert FiniteGroup(q8).exponent() == 4
    octonions = _cayley_dickson(3)
    v = len(octonions)
    assert (np.sort(octonions, axis=0) == np.arange(v)[:, None]).all()
    assert (np.sort(octonions, axis=1) == np.arange(v)).all()
    assert not _associative(octonions)
    # the Moufang identity z (x (z y)) = ((z x) z) y for all x, y, z
    t = octonions
    x, y, z = np.indices((v, v, v))
    assert np.array_equal(t[z, t[x, t[z, y]]], t[t[t[z, x], z], y])
    with pytest.raises(GroupError, match=re.escape(
            "commutation check: t (z s) != (t z) s at t=1, z=4, s=2")):
        FiniteGroup(octonions)


def test_audit_rejects_a_wrong_row_off_the_generators():
    # only row y changes, and neither it nor the two columns swapped in
    # it belongs to a generator: the generators' rows and columns are
    # those of Heis(3), so only the row check can see the change
    G = heisenberg(field_make(3), 1)
    y, c1, c2 = [g for g in range(1, G.order) if g not in G.gens][:3]
    t = G.table.copy()
    t[y, [c1, c2]] = t[y, [c2, c1]]
    assert not _is_group(t)
    assert np.array_equal(t[G.gens], G.table[G.gens])
    assert np.array_equal(t[:, G.gens], G.table[:, G.gens])
    with pytest.raises(GroupError, match="row check"):
        FiniteGroup(t)


def _generated(G, gens):
    reached = {0}
    frontier = {0}
    while frontier:
        frontier = {G.mul(g, s) for g in frontier for s in gens} - reached
        reached |= frontier
    return reached


def _central_square(make):
    G = make()
    return central_product(G, G, center(G), center(G)).group


CONSTRUCTORS = {
    "C1": lambda: cyclic(1),
    "C12": lambda: cyclic(12),
    "C2^5": lambda: elementary_abelian(2, 5),
    "C5^2": lambda: elementary_abelian(5, 2),
    "Heis(3)": lambda: heisenberg(field_make(3), 1),
    "Heis(9)": lambda: heisenberg(field_make(3, 2), 1),
    "Heis(3,2)": lambda: heisenberg(field_make(3), 2),
    "M125": lambda: extraspecial_mp3(5),
    "Q8": quaternion8,
    "Q8xC3": lambda: direct_product(quaternion8(), cyclic(3)),
    "C4xC2^2": lambda: direct_product(cyclic(4), elementary_abelian(2, 2)),
    "Q8*Q8": lambda: _central_square(quaternion8),
    "Heis(3)*Heis(3)": lambda: _central_square(
        lambda: heisenberg(field_make(3), 1)),
}


@pytest.mark.parametrize("name", list(CONSTRUCTORS))
def test_gens_generate_and_are_few(name):
    G = CONSTRUCTORS[name]()
    assert len(G.gens) <= math.log2(G.order)
    assert _generated(G, G.gens) == set(range(G.order))
    # z is central iff its whole row of the table equals its column
    t = G.table
    full = [g for g in range(G.order) if np.array_equal(t[g], t[:, g])]
    assert center(G).members == tuple(full)


IRREDUNDANT = {  # a p-group's irredundant generating sets all have size d
    "M27": (lambda: extraspecial_mp3(3), 2),
    "Q8": (quaternion8, 2),
    "Heis(9)": (lambda: heisenberg(field_make(3, 2), 1), 4),
    "thm12(3,3)": (lambda: theorem_1_2_rds(3, 3)[0], 6),
    "Q8^o4": (lambda: q8_system_2r(4).group, 8),
    "C2^12": (lambda: elementary_abelian(2, 12), 12),
}


@pytest.mark.parametrize("name", list(IRREDUNDANT))
def test_gens_are_irredundant(name):
    make, d = IRREDUNDANT[name]
    G = make()
    assert len(G.gens) == d
    assert _generated(G, G.gens) == set(range(G.order))
    for a in G.gens:
        rest = [b for b in G.gens if b != a]
        assert _generated(G, rest) != set(range(G.order)), a


def test_automorphism_witness_is_a_generator():
    G = extraspecial_mp3(3)
    perm = np.arange(G.order)
    perm[[1, 2]] = perm[[2, 1]]  # fixes e, not a homomorphism
    with pytest.raises(GroupError, match="not a homomorphism") as info:
        Automorphism(G, perm)
    g, s = map(int, str(info.value).split("(")[1].rstrip(")").split(","))
    assert s in G.gens
    assert perm[G.mul(g, s)] != G.mul(int(perm[g]), int(perm[s]))


@pytest.mark.parametrize("make", [quaternion8, lambda: cyclic(5)],
                         ids=["Q8", "C5"])
def test_automorphism_agrees_with_all_pairs(make):
    G = make()
    t = G.table
    for i, j in itertools.combinations(range(1, G.order), 2):
        perm = np.arange(G.order)
        perm[[i, j]] = perm[[j, i]]
        try:
            Automorphism(G, perm)
            accepted = True
        except GroupError:
            accepted = False
        assert accepted == np.array_equal(perm[t], t[np.ix_(perm, perm)])


def test_table_budget_refuses_before_allocating():
    # a missing check would allocate about 7 GB, or list about 10**9
    # elements: cap the child's address space so that it fails fast
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        "from rdslink.cli import main\n"
        "from rdslink.constructions import heisenberg_system_2r\n"
        "from rdslink.ff import field_make\n"
        "from rdslink.groups import (GroupError, cyclic,\n"
        "                            elementary_abelian, extraspecial_mp3)\n"
        "from rdslink.schur import affine_plane_group\n"
        "for make in (lambda: heisenberg_system_2r(field_make(3, 2), 2),\n"
        "             lambda: cyclic(10 ** 9),\n"
        "             lambda: elementary_abelian(2, 34),\n"
        "             lambda: extraspecial_mp3(1009),\n"
        "             lambda: affine_plane_group(field_make(2, 16))):\n"
        "    try:\n"
        "        make()\n"
        "    except GroupError as exc:\n"
        "        print(exc)\n"
        "print('exit', main(['construct', 'extraspecial', '--p', '1009']))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env={"PYTHONPATH": ":".join(sys.path),
                              "OPENBLAS_NUM_THREADS": "1"})
    assert out.returncode == 0, out.stderr
    for v in (59049, 10 ** 9, 2 ** 34, 1009 ** 3, 2 ** 32):
        need = 2 * v * v
        assert need > TABLE_BYTES
        assert f"order {v} needs a {need:,}-byte table" in out.stdout
    assert out.stdout.endswith("exit 1\n")
    assert out.stderr == (f"error: GroupError: order {1009 ** 3} needs a "
                          f"{2 * 1009 ** 6:,}-byte table, over the "
                          f"{TABLE_BYTES:,}-byte budget\n")


def test_budget_admits_order_32768_and_refuses_32769():
    # 2 bytes an entry: 2 * 32768**2 is TABLE_BYTES exactly
    tracemalloc.start()
    try:
        _check_budget(32768)
        need = f"order 32769 needs a {2 * 32769 ** 2:,}-byte table"
        with pytest.raises(GroupError, match=need):
            _check_budget(32769)
        # a user table is refused before it is scanned or narrowed
        with pytest.raises(GroupError, match=need):
            FiniteGroup(np.broadcast_to(np.int64(0), (32769, 32769)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("make1, v2, peak_mb", [
    (lambda: cyclic(300), 300, 8),
    (lambda: direct_product(cyclic(128), cyclic(32)), 32, 48)],
    ids=["C300", "C128xC32"])
def test_central_product_widens_before_keys_pass_uint16(make1, v2, peak_mb):
    # G1 * C_v2 amalgamating Z1 = {0..v2-1} with all of C_v2 is G1,
    # table and all.  Pair keys a * v2 + b reach 89,999 (C300) in the
    # coset search and 130,048 + b (C128xC32) in the product rule, where
    # uint16 would wrap
    G1, G2 = make1(), cyclic(v2)
    Z1 = Subgroup(G1, tuple(range(v2)))
    Z2 = Subgroup(G2, tuple(range(v2)))
    # the coset search keeps v1 * v2 keys at a time; keeping all
    # v1 * v2 * |Z| peaked at 209 MiB (C300) and at 73 MiB beside the
    # 32 MiB table (C128xC32)
    tracemalloc.start()
    try:
        G = central_product(G1, G2, Z1, Z2).group
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_mb * 2 ** 20
    assert G.element_orders() == G1.element_orders()
    assert np.array_equal(G.table, G1.table)


def test_from_elements_peak_is_near_its_table():
    # the table fills in row blocks: no v^2 temporary sits beside it
    tracemalloc.start()
    try:
        G = cyclic(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * G.table.nbytes


@pytest.mark.parametrize("elements", [
    [(0, 0), (1, 0), (0, 1), (1, 1)],  # the grid, but column-major
    [(0, 0), (0, 1), (0, 1), (1, 1)],  # (1, 0) missing
    [(0, 0), (0, 1), (1, 0)],  # too few for the 2 x 2 grid
    [0, 2, 1], [1, 0], [0, 1, 5]])
def test_from_elements_requires_row_major_grid_order(elements):
    def mul(g, h):
        return tuple((x + y) % 2 for x, y in zip(g, h))

    with pytest.raises(GroupError, match="row-major order"):
        FiniteGroup.from_elements(elements, mul)


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
    a, b = G.index[(0, 1)], G.index[(1, 0)]
    # b^2 = a^2 and b a b^-1 = a^-1
    assert G.mul(b, b) == G.index[(0, 2)]
    assert G.mul(G.mul(b, a), int(G.inv[b])) == G.index[(0, 3)]


def test_subgroup_validation():
    G = cyclic(6)
    Subgroup(G, (0, 2, 4))
    with pytest.raises(GroupError):
        Subgroup(G, (0, 2))  # not closed
    with pytest.raises(GroupError):
        Subgroup(G, (1, 5))  # no identity
    with pytest.raises(GroupError, match="member -3 at position 2 is not"):
        Subgroup(G, (0, 3, -3))  # -3 would index as 3
    with pytest.raises(GroupError, match="member 99 at position 1 is not"):
        Subgroup(G, (0, 99))
    with pytest.raises(GroupError, match=r"not closed at \(2,2\)"):
        Subgroup(G, (0, 2, 3))


@pytest.mark.parametrize("make, members, witness", [
    # e plus the zero set of X X^-1 for X = {0, 1}
    (lambda: cyclic(4096), (0,) + tuple(range(2, 4095)), (2, 4093)),
    # C2^12 lists its bits high to low, so 0..1023 is a subgroup: its
    # 1024 rows close, and the first open product is in a later block
    (lambda: elementary_abelian(2, 12), tuple(range(3072)), (1024, 2048))],
    ids=["C4096", "C2^12"])
def test_subgroup_rejects_a_large_open_set_in_blocks(make, members, witness):
    G = make()
    tracemalloc.start()
    try:
        with pytest.raises(GroupError, match=re.escape(
                f"subgroup not closed at ({witness[0]},{witness[1]})")):
            Subgroup(G, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every product at once gathered 2 |H|^2 bytes, about one table
    assert peak < G.table.nbytes // 32
    # the witness is the first product outside the set, row-major
    m = np.array(members)
    a, b = np.argwhere(~np.isin(G.table[np.ix_(m, m)], m))[0]
    assert (m[a], m[b]) == witness


@pytest.mark.parametrize("member", [1.5, "2", None, True, (0,)])
def test_subgroup_rejects_a_member_that_is_no_index(member):
    with pytest.raises(GroupError, match=re.escape(
            f"subgroup member {member!r} at position 1 is not an integer")):
        Subgroup(cyclic(4), (0, member))


def test_subgroup_closure_and_cosets():
    G = cyclic(12)
    H = Subgroup(G, (0, 4, 8))
    cosets = dev(G, H.members)  # the right cosets Hg
    assert cosets == [(0, 4, 8), (1, 5, 9), (2, 6, 10), (3, 7, 11)]
    assert sorted(g for c in cosets for g in c) == list(range(12))


def test_transversal():
    G = cyclic(6)
    H = Subgroup(G, (0, 3))
    assert is_transversal(G, H, [0, 1, 2]) is True
    assert is_transversal(G, H, [0, 1, 4]) is False


def test_automorphism_validation():
    G = cyclic(5)
    inv_map = Automorphism(G, np.array([0, 4, 3, 2, 1]))
    assert inv_map.order() == 2
    assert orbits(G, [inv_map]) == [(0,), (1, 4), (2, 3)]
    with pytest.raises(GroupError):
        Automorphism(G, np.array([0, 2, 1, 3, 4]))  # not a homomorphism
    with pytest.raises(GroupError):
        Automorphism(G, np.array([1, 0, 2, 3, 4]))  # moves identity
    with pytest.raises(GroupError, match="image 7 at position 2 is not an "
                       "index 0..2"):
        Automorphism(cyclic(3), [0, 1, 7])
    with pytest.raises(GroupError, match=r"image 2\.5 at position 2 is not "
                       "an integer"):
        Automorphism(cyclic(3), [0, 1, 2.5])


def test_automorphism_from_images():
    G = cyclic(5)
    a = automorphism_from_images(G, {1: 2})  # x -> x^2
    assert a(1) == 2 and a(2) == 4
    assert a.order() == 4
    with pytest.raises(GroupError):
        automorphism_from_images(cyclic(6), {2: 2})  # 2 does not generate
    # M27: x^a y^b -> x^(2a) y^b respects y x y^-1 = x^4
    M = extraspecial_mp3(3)
    x, y = M.index[(1, 0)], M.index[(0, 1)]
    phi = automorphism_from_images(M, {x: M.index[(2, 0)], y: y})
    assert [phi(g) for g in range(27)] == [
        M.index[(2 * a % 9, b)] for a, b in M.elements]
    with pytest.raises(GroupError):
        automorphism_from_images(M, {x: y, y: x})  # orders 9 and 3


def _closure_orbits(v, perms):
    """Orbits by brute force: each point's closure under the maps, in
    order of least point."""
    seen, out = set(), []
    for x in range(v):
        if x in seen:
            continue
        orbit, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for a in perms:
                z = int(a[y])
                if z not in orbit:
                    orbit.add(z)
                    todo.append(z)
        seen |= orbit
        out.append(tuple(sorted(orbit)))
    return out


def _composed_order(perm):
    """The least n with perm^n the identity, by composing."""
    n, power = 1, perm
    while not np.array_equal(power, np.arange(perm.size)):
        power, n = perm[power], n + 1
    return n


def _heisenberg_multipliers():
    F = field_make(5)
    eps = least_nonsquare(F)
    G = heisenberg(F, 1)
    phi = constructions._heisenberg_automorphism(
        G, F, eps, constructions._matrix_group_generator(F, eps))
    return G, [phi]


def _frobenius_of_m125():
    es = constructions.extraspecial_rds(5)
    return es.group, [es.sigma, es.tau]


def _units_of(n):
    G = cyclic(n)
    return G, [Automorphism(G, np.arange(n) * u % n)
               for u in range(1, n) if math.gcd(u, n) == 1]


@pytest.mark.parametrize("make", [
    _heisenberg_multipliers, _frobenius_of_m125,
    functools.partial(_units_of, 1), functools.partial(_units_of, 24),
    functools.partial(_units_of, 49), functools.partial(_units_of, 60)],
    ids=["heis5-cyclotomic", "m125-frobenius", "C1-units", "C24-units",
         "C49-units", "C60-units"])
def test_orbits_and_orders_match_brute_force(make):
    G, autos = make()
    for some in [autos, autos[:1], autos[1:], autos[::-1], autos[1::3]]:
        assert orbits(G, some) == _closure_orbits(
            G.order, [a.perm for a in some])
    assert [a.order() for a in autos] == [
        _composed_order(a.perm) for a in autos]


def test_orbits_match_the_cyclotomic_partitions():
    G, autos = _heisenberg_multipliers()
    F = field_make(5)
    assert autos[0].order() == 24  # q^2 - 1
    assert constructions.heisenberg_system(F).partition.classes == \
        _closure_orbits(G.order, [autos[0].perm])
    G, autos = _frobenius_of_m125()
    assert [a.order() for a in autos] == [5, 4]
    assert len(_closure_orbits(G.order, [a.perm for a in autos])) == 15


def test_automorphism_from_images_matches_the_unit_multipliers():
    for n in (1, 2, 9, 24, 49):
        G = cyclic(n)
        for u in range(n):
            if math.gcd(u, n) == 1:
                phi = automorphism_from_images(G, {1 % n: u % n})
                assert phi.perm.tolist() == (np.arange(n) * u % n).tolist()


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
    assert G.elements is None and G.index is None
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


def test_embedding_audit_rejects_a_swapped_embedding():
    G1 = quaternion8()
    Z = center(G1)
    cp = central_product(G1, G1, Z, Z)
    assert cp.factors == (G1, G1)
    emb = cp.embed1.copy()
    emb[[1, 4]] = emb[[4, 1]]  # a and b trade images: still injective
    with pytest.raises(GroupError, match="embed1 is not a homomorphism"):
        _check_homomorphism(G1, cp.group, emb, "embed1")


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
