import functools
import itertools
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from rdslink import cli
from rdslink.constructions import q8_system
from rdslink.ff import (Field, FieldError, field_make, is_prime,
                        least_nonsquare, pell_solutions)
from rdslink.groupring import GroupRingElement, GroupRingError
from rdslink.groups import (Automorphism, FiniteGroup, GroupError, Subgroup,
                            automorphism_from_images, central_product, cyclic)
from rdslink.linked import LinkedError, associated_group, linked_product
from rdslink.rds import RdsError, dev
from rdslink.schur import SRingError, SchurPartition, amorphic_latin


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def test_bad_parameters():
    with pytest.raises(FieldError):
        Field(4)
    with pytest.raises(FieldError):
        Field(3, 0)


def test_canonical_modulus():
    # lexicographically least monic irreducibles, low-degree-first
    assert field_make(2, 2).modulus == (1, 1, 1)  # t^2 + t + 1
    assert field_make(3, 2).modulus == (1, 0, 1)  # t^2 + 1
    assert field_make(5, 1).modulus == (0, 1)


def test_prime_field_arithmetic():
    F = field_make(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.sub(0, 2) == 5
    assert F.pow(3, 6) == 1


def test_extension_field_axioms():
    F = field_make(3, 2)
    els = list(F.elements())
    assert len(els) == 9
    for a, b in itertools.product(els, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        for c in els:
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    for a in els:
        if a:
            assert F.mul(a, F.inv(a)) == 1


def test_multiplicative_group_cyclic():
    for (p, r) in [(3, 2), (5, 1), (7, 1), (2, 2)]:
        F = field_make(p, r)
        orders = {F.mult_order(a) for a in F.elements() if a}
        assert F.q - 1 in orders  # some element generates


def _digits(F, a):
    """The base-p digits of a, low degree first."""
    return [a // F.p ** k % F.p for k in range(F.r)]


def test_coeffs_roundtrip():
    F = field_make(3, 2)
    for a in F.elements():
        assert F._digits[a].tolist() == _digits(F, a)
        assert F.from_coeffs(_digits(F, a)) == a


def test_squares_and_nonsquares():
    for q in (3, 5, 7, 9):
        p = 3 if q == 9 else q
        r = 2 if q == 9 else 1
        F = field_make(p, r)
        squares = [a for a in F.elements() if F.is_square(a)]
        assert len(squares) == (q + 1) // 2  # 0 plus (q-1)/2 nonzero squares
    assert least_nonsquare(field_make(3)) == 2
    assert least_nonsquare(field_make(5)) == 2
    assert least_nonsquare(field_make(7)) == 3


def test_least_nonsquare_even_char_rejected():
    with pytest.raises(FieldError):
        least_nonsquare(field_make(2, 2))


def test_pell_solution_counts():
    for q in (3, 5, 7):
        F = field_make(q)
        eps = least_nonsquare(F)
        assert pell_solutions(F, eps, 0) == {(0, 0)}
        for c in range(1, q):
            assert len(pell_solutions(F, eps, c)) == q + 1


def test_pell_rejects_square_coefficient():
    F = field_make(5)
    with pytest.raises(FieldError):
        pell_solutions(F, 4, 1)



def _oracle(F):
    """Independent GF(p^r) arithmetic: sympy's dense polynomials over
    Z_p, highest degree first, reduced modulo F.modulus.  Returns add,
    mul, power and the multiplicative order."""
    from sympy import factorint
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import (gf_add, gf_mul, gf_pow_mod, gf_rem,
                                         gf_strip)

    p = F.p
    mod = list(reversed(F.modulus))

    def poly(a):
        return gf_strip([ZZ(d) for d in reversed(_digits(F, a))])

    def num(f):
        return F.from_coeffs([int(d) for d in reversed(f)])

    def add(a, b):
        return num(gf_add(poly(a), poly(b), p, ZZ))

    def mul(a, b):
        return num(gf_rem(gf_mul(poly(a), poly(b), p, ZZ), mod, p, ZZ))

    def power(a, n):
        return num(gf_pow_mod(poly(a), n, mod, p, ZZ))

    def order(a):
        """The least n with a^n = 1: strip from q - 1 every prime that
        keeps a^n = 1."""
        n = F.q - 1
        for ell in factorint(n):
            while n % ell == 0 and power(a, n // ell) == 1:
                n //= ell
        return n

    return add, mul, power, order


@pytest.mark.parametrize("p, r", [(2, 4), (3, 3), (5, 2)])
def test_full_tables_against_sympy(p, r):
    F = field_make(p, r)
    add, mul, power, order = _oracle(F)
    xs = list(F.elements())
    squares = {mul(b, b) for b in xs}
    for a in xs:
        assert [F.add(a, b) for b in xs] == [add(a, b) for b in xs]
        assert [F.mul(a, b) for b in xs] == [mul(a, b) for b in xs]
        assert F.is_square(a) is (a in squares)
        if a:
            assert mul(a, F.inv(a)) == 1
            assert F.mult_order(a) == order(a)


@pytest.mark.parametrize("p, r", [(2, 16), (3, 10)])
def test_large_fields_against_sympy(p, r):
    """500 seeded pairs in fields of more than 4096 elements; inverses
    and squares on 50 of them.  Orders are checked on elements of the
    subfield GF(p^(r/2)), which have small order."""
    import random

    F = field_make(p, r)
    add, mul, power, order = _oracle(F)
    q = F.q
    rng = random.Random(q)
    pairs = [(rng.randrange(1, q), rng.randrange(q)) for _ in range(500)]
    for a, b in pairs:
        assert F.add(a, b) == add(a, b)
        assert F.mul(a, b) == mul(a, b)
    for a, _ in pairs[:50]:
        assert mul(a, F.inv(a)) == 1
        assert F.is_square(a) is (q % 2 == 0
                                  or power(a, (q - 1) // 2) == 1)
    into_subfield = (q - 1) // (p ** (r // 2) - 1)
    for a, _ in pairs[:20]:
        c = power(a, into_subfield)
        assert F.mult_order(c) == order(c)


# ---------------------------------------------------------------------------
# integer and index inputs: one check, ff.integers / ff.indices, behind
# every entry point that takes element indices

NOT_A_SEQUENCE = 5


@functools.cache
def _q8_product():
    L = q8_system()
    return central_product(L.group, L.group, L.N, L.N), L


def _placed(base, where, x):
    """base with x at where: a position, a (row, column) pair, or
    ("key", k) or ("value", k) of a dict."""
    if isinstance(base, dict):
        part, k = where
        return {(x if part == "key" and a == k else a):
                (x if part == "value" and a == k else b)
                for a, b in base.items()}
    out = [list(row) if isinstance(row, (list, tuple)) else row
           for row in base]
    if isinstance(where, tuple):
        out[where[0]][where[1]] = x
    else:
        out[where] = x
    return out


class Entry(NamedTuple):
    call: Callable  # the entry point, given the input
    base: object  # a valid input
    at: object  # where a bad entry goes in base (see _placed)
    error: type
    what: str  # what the message calls the entries
    where: str | None  # where the message says the bad entry is
    n: int | None  # the index range; None where only types are checked
    whole: bool = True  # whether a non-sequence for base meets the check
    # for an entry point that takes a dict: its name, and what it maps
    dict_of: tuple | None = None


C4 = cyclic(4)
Z = Subgroup(C4, (0, 2))


def _f(f):
    cp, L = _q8_product()
    return linked_product(cp, L, L, f)


ENTRY_POINTS = {
    "GroupRingElement": Entry(lambda x: GroupRingElement(C4, x),
                              [0, 1, 2, 3], 2, GroupRingError, "entry",
                              "position 2", None),
    "indicator": Entry(lambda x: GroupRingElement.indicator(C4, x),
                       [0, 1, 2], 1, GroupRingError, "entry", "position 1",
                       4),
    "FiniteGroup": Entry(FiniteGroup, [[0, 1], [1, 0]], (1, 1), GroupError,
                         "table entry", "(1, 1)", 2),
    "Subgroup": Entry(lambda x: Subgroup(C4, x), [0, 2], 1, GroupError,
                      "subgroup member", "position 1", 4),
    "Automorphism": Entry(lambda x: Automorphism(C4, x), [0, 3, 2, 1], 3,
                          GroupError, "automorphism image", "position 3", 4),
    "images-key": Entry(lambda x: automorphism_from_images(C4, x), {1: 3},
                        ("key", 1), GroupError, "generator", "position 0", 4,
                        dict_of=("images", "generators to images")),
    "images-value": Entry(lambda x: automorphism_from_images(C4, x), {1: 3},
                          ("value", 1), GroupError, "image", "position 0", 4,
                          whole=False),
    "theta-key": Entry(lambda x: central_product(C4, C4, Z, Z, x),
                       {0: 0, 2: 2}, ("key", 2), GroupError, "theta key",
                       "position 1", 4, dict_of=("theta", "Z1 to Z2")),
    "theta-value": Entry(lambda x: central_product(C4, C4, Z, Z, x),
                         {0: 0, 2: 2}, ("value", 2), GroupError,
                         "theta value", "position 1", 4, whole=False),
    "SchurPartition": Entry(lambda x: SchurPartition(C4, [(0,), x, (1, 3)]),
                            [2], 0, SRingError, "class 1 member",
                            "position 0", 4),
    # the list of classes itself: only a non-sequence applies
    "SchurPartition-classes": Entry(lambda x: SchurPartition(C4, x), None,
                                    None, SRingError, "classes", None, None),
    "amorphic_latin": Entry(
        lambda x: amorphic_latin(field_make(2, 2), 2, [x, (3, 4)]),
        [0, 1, 2], 2, SRingError, "labeling cell 0 line", "position 2", 5),
    # the labeling itself: only a non-sequence applies
    "amorphic_latin-labeling": Entry(
        lambda x: amorphic_latin(field_make(2, 2), 2, x), None, None,
        SRingError, "labeling", None, None),
    "dev": Entry(lambda x: dev(C4, x), [0, 1], 1, RdsError,
                 "base block member", "position 1", 4),
    "chi": Entry(lambda x: associated_group(2, x, {(0, 0): 1, (1, 1): 0}),
                 [1, 0], 1, LinkedError, "chi", "position 1", 2),
    "psi": Entry(lambda x: associated_group(2, (1, 0), x),
                 {(0, 0): 1, (1, 1): 0}, ("value", (1, 1)), LinkedError,
                 "psi", "(1, 1)", 2, whole=False,
                 dict_of=("psi", "pairs to S")),
    # f that is not a dict has its own LinkedError (f = 5 is not a dict)
    "f-key": Entry(_f, {0: 1, 1: 0}, ("key", 1), LinkedError, "f key",
                   "position 1", 2, whole=False, dict_of=("f", "S to S")),
    "f-value": Entry(_f, {0: 1, 1: 0}, ("value", 0), LinkedError, "f value",
                     "position 0", 2, whole=False),
    # the cli checks types; the layer that owns the set checks the range
    "load-sets": Entry(lambda x: cli._load_sets("s.json", [x]), [0, 1], 1,
                       GroupError, "s.json: set 0 member", "position 1",
                       None, whole=False),
    "load-group": Entry(
        lambda x: cli._load_group("g.json", {"order": 2, "table": x}),
        [0, 1, 1, 0], 3, GroupError, "g.json: table entry", "(1, 1)",
        None, whole=False),
}
BAD = [True, 1.5, "1", [1], -1, "n", NOT_A_SEQUENCE]
# where a set is expected, a 2-d array whose entries are in range
TWO_D = np.array([[0], [1]])
# where a dict is expected, a sequence of keys that are in range
NOT_A_DICT = [0, 1]


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name, e in ENTRY_POINTS.items() for bad in BAD
    if (e.whole if bad is NOT_A_SEQUENCE else e.base is not None and (
        e.n is not None or bad not in (-1, "n")) and not (
        # a list is no dict key
        bad == [1] and isinstance(e.at, tuple) and e.at[0] == "key"))] + [
    # an entry point whose entries sit at a position takes a set
    (name, TWO_D) for name, e in ENTRY_POINTS.items()
    if e.whole and (e.where or "").startswith("position")] + [
    (name, NOT_A_DICT) for name, e in ENTRY_POINTS.items() if e.dict_of],
    ids=lambda p: p if isinstance(p, str) else (
        "2-d" if p is TWO_D else repr(p)))
def test_every_index_entry_point_rejects_bad_input(name, bad):
    """Each entry point raises its module's typed error, naming the
    entry and its position.  Automorphism and dev once took True as 1;
    a float key of automorphism_from_images, True in theta, and
    Subgroup(G, 5) or SchurPartition(G, 5) raised a stray error; a
    nested [1] was read as a row of the table or set; a 2-d array was
    read as a set; and a list given for a dict, or a labeling that is
    no sequence, raised a stray error."""
    e = ENTRY_POINTS[name]
    if bad is TWO_D:
        arg, message = bad, f"{e.what} array has shape {bad.shape}, not 1-d"
    elif bad is NOT_A_DICT:
        arg, message = bad, (f"{e.dict_of[0]} = {bad!r} is not a dict from "
                             f"{e.dict_of[1]}")
    elif bad is NOT_A_SEQUENCE:
        arg, message = bad, f"{e.what} is {bad!r}, not a sequence"
    elif bad in (-1, "n"):
        x = -1 if bad == -1 else e.n
        arg = _placed(e.base, e.at, x)
        message = f"{e.what} {x} at {e.where} is not an index 0..{e.n - 1}"
    else:
        arg = _placed(e.base, e.at, bad)
        message = f"{e.what} {bad!r} at {e.where} is not an integer"
    with pytest.raises(e.error, match=f"^{re.escape(message)}$"):
        e.call(arg)
