import itertools

import pytest

from rdslink.ff import (Field, FieldError, field_make, is_prime,
                        least_nonsquare, pell_solutions)


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
