"""The certified-basis product back-end against the pair kernel.

heisenberg_system verifies inside its cyclotomic S-ring and dps_system
inside Z[H] x A, A the amorphic Latin-square S-ring; every certificate
must equal the one the pair kernel gives, field by field, and every
basis product must equal the pair kernel's.  Negative controls: an
operand that is not a union of classes, an ambient whose indices do
not multiply as H x P, and a write to a basis's arrays."""

import dataclasses
import random

import numpy as np
import pytest

from rdslink import constructions
from rdslink.constructions import dps_system, heisenberg_system
from rdslink.ff import field_make
from rdslink.groupring import (Basis, BasisError, GroupRingElement,
                               GroupRingError)
from rdslink.groups import FiniteGroup, cyclic
from rdslink.linked import LinkedCertificate, verify_linked
from rdslink.rds import is_icommuting, verify_rds
from rdslink.schur import amorphic_latin

HEIS = [(3, 1), (5, 1), (7, 1), (3, 2)]
# every t the default s = t admits: t | n and t - 1 >= 2
DPS = [(2, 2, 4), (2, 3, 4), (2, 3, 8), (3, 2, 3), (3, 2, 9), (2, 4, 4),
       (2, 4, 8), (2, 4, 16)]


def _dps_basis(ds):
    """Z[H] x A over ds.ambient, from a fresh amorphic S-ring."""
    P = amorphic_latin(ds.n_field, ds.t)[2]
    return P.basis.over(ds.H, ds.ambient)


def _assert_same(with_basis, plain):
    for field in dataclasses.fields(LinkedCertificate):
        assert getattr(with_basis, field.name) == \
            getattr(plain, field.name), field.name
    assert with_basis.to_json() == plain.to_json()


@pytest.mark.parametrize("p, r", HEIS, ids=[f"q{p ** r}" for p, r in HEIS])
def test_heisenberg_certificate_equals_the_pair_kernel(p, r):
    hs = heisenberg_system(field_make(p, r))
    plain = verify_linked(hs.group, hs.center,
                          [hs.sets[i] for i in range(p ** r)])
    _assert_same(hs.certificate, plain)


@pytest.mark.parametrize("p, r, t", DPS,
                         ids=[f"GF({p ** r})-t{t}" for p, r, t in DPS])
def test_dps_certificate_equals_the_pair_kernel(p, r, t):
    ds = dps_system(field_make(p, r), t)
    plain = verify_linked(ds.ambient, ds.certificate.N, ds.families)
    _assert_same(ds.certificate, plain)


def test_constructions_run_no_pair_kernel_in_verify_linked(monkeypatch):
    # outside verify_sring, the certificate of the S-ring, every
    # product a construction takes is a basis product
    seen, inside = [], []
    mul = GroupRingElement.__mul__
    verify = constructions.verify_linked

    def spy_mul(self, other):
        if inside:
            seen.append(self.basis is not None and other.basis is self.basis)
        return mul(self, other)

    def spy_verify(*args, **kwargs):
        inside.append(True)
        try:
            return verify(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(GroupRingElement, "__mul__", spy_mul)
    monkeypatch.setattr(constructions, "verify_linked", spy_verify)
    heisenberg_system(field_make(5))
    dps_system(field_make(2, 3), 8)
    assert seen and all(seen)


def _random_union(rng, basis):
    """Random small coefficients, constant on every class."""
    x = np.array([rng.randrange(-3, 4) for _ in basis.reps])
    return x[basis.class_of]


@pytest.mark.parametrize("name", ["heis5", "heis9", "dps-GF(8)-t4",
                                  "dps-GF(9)-t3"])
def test_basis_products_equal_the_pair_kernel(name):
    if name.startswith("heis"):
        hs = heisenberg_system(field_make(*{"heis5": (5,),
                                            "heis9": (3, 2)}[name]))
        G, basis = hs.group, hs.partition.basis
    else:
        ds = dps_system(*{"dps-GF(8)-t4": (field_make(2, 3), 4),
                          "dps-GF(9)-t3": (field_make(3, 2), 3)}[name])
        G, basis = ds.ambient, _dps_basis(ds)
    rng = random.Random(name)
    for _ in range(20):
        a, b = _random_union(rng, basis), _random_union(rng, basis)
        in_basis = (GroupRingElement(G, a, basis)
                    * GroupRingElement(G, b, basis))
        assert in_basis.basis is basis
        assert in_basis == GroupRingElement(G, a) * GroupRingElement(G, b)


def test_member_that_is_no_union_of_classes_is_named(dps4):
    G, cert = dps4.ambient, dps4.certificate
    basis = _dps_basis(dps4)
    fam = list(cert.sets)
    # trade the last element of Y_0 for the least one outside it
    out = min(set(range(G.order)) - set(fam[0]))
    fam[0] = tuple(sorted(set(fam[0]) - {fam[0][-1]} | {out}))
    for verify in (lambda: verify_linked(G, cert.N, fam, basis),
                   lambda: verify_rds(G, fam[0], cert.N, basis)):
        with pytest.raises(BasisError, match=r"^coefficient \d at element "
                           r"\d+ differs from \d at element \d+ of its "
                           r"class \d+: not a combination of class sums$"):
            verify()


def test_permuted_ambient_fails_the_law_check(dps4):
    G = dps4.ambient
    P = amorphic_latin(dps4.n_field, dps4.t)[2]
    # the same group with two indices swapped: still a group, but index
    # h |P| + g no longer multiplies as (h, g)
    perm = np.arange(G.order)
    perm[[1, 2]] = perm[[2, 1]]
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    relabelled = FiniteGroup(table, name="relabelled")
    with pytest.raises(BasisError, match="relabelled is not"):
        P.basis.over(dps4.H, relabelled)
    # and the true ambient passes
    assert P.basis.over(dps4.H, G).group is G


def test_basis_arrays_are_read_only(heis3):
    basis = heis3.partition.basis
    for arr in (basis.tensor, basis.class_of, basis.reps, basis.ldiv):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] += 1


def test_basis_must_be_over_the_group(heis3):
    with pytest.raises(GroupRingError, match="basis is over Heis"):
        GroupRingElement.indicator(cyclic(3), (0,),
                                   heis3.partition.basis)
    assert isinstance(heis3.partition.basis, Basis)


def test_icommuting_skips_the_product_of_a_reversible_set(monkeypatch,
                                                          heis3, dps4):
    cases = [(dps4.ambient, dps4.certificate.sets[0], dps4.certificate.N,
              True),
             (heis3.group, heis3.sets[1], heis3.center, False)]
    # the flag of the full dual check, X X^(-1) = X^(-1) X
    full = []
    for G, X, N, _ in cases:
        x = GroupRingElement.indicator(G, X)
        full.append(x * x.involution() == x.involution() * x)
    calls = []
    mul = GroupRingElement.__mul__
    monkeypatch.setattr(GroupRingElement, "__mul__",
                        lambda self, other: calls.append(1) or
                        mul(self, other))
    for (G, X, N, reversible), want in zip(cases, full):
        calls.clear()
        cert = verify_rds(G, X, N)
        assert (cert.reversible, cert.i_commuting) == (reversible, want)
        # X X^(-1), X N and N X; X^(-1) X only when X is not reversible
        assert len(calls) == (3 if reversible else 4)
        x = GroupRingElement.indicator(G, X)
        xi = x.involution()
        assert is_icommuting(x, x * xi, N, xi) == want
