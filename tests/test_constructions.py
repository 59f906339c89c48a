import re
import subprocess
import sys

import numpy as np
import pytest

from rdslink import constructions
from rdslink.ff import FieldError, field_make
from rdslink.groups import (GroupError, center, cyclic, elementary_abelian,
                            heisenberg, is_transversal)
from rdslink.linked import LinkedError, verify_linked
from rdslink.rds import thas_somma
from rdslink.constructions import (ConstructionError, dps_system,
                                   extraspecial_rds, heisenberg_system,
                                   heisenberg_system_2r, q8_system,
                                   q8_system_2r, theorem_1_2_rds)
from rdslink.schur import SRingError, amorphic_latin


# ---------------------------------------------------------------------------
# Heisenberg


def test_heisenberg_system_q3(heis3):
    c = heis3.certificate
    assert c.parameters == (9, 3, 9, 3, 3, 1, 4)
    assert heis3.eps == 2
    assert heis3.delta == 2
    assert heis3.partition.rank == 5  # {e}, Z^#, three Y_i


def test_heisenberg_orbits_are_gamma_form(heis3):
    # each K-orbit Y_i = {(a, b, ab/2 + (a^2 - eps b^2) i) : (a,b) != 0}
    F, G, eps = heis3.field, heis3.group, heis3.eps
    half = F.inv(2)
    for i in F.elements():
        gamma = set()
        for a in F.elements():
            for b in F.elements():
                if (a, b) == (0, 0):
                    continue
                z = F.add(F.mul(F.mul(a, b), half),
                          F.mul(F.sub(F.mul(a, a),
                                      F.mul(eps, F.mul(b, b))), i))
                gamma.add(G.index[((a,), (b,), z)])
        assert set(heis3.orbit_sets[i]) == gamma


def test_heisenberg_transversals(heis3):
    for i, X in heis3.sets.items():
        assert len(heis3.orbit_sets[i]) == 8  # q^2 - 1
        assert is_transversal(heis3.group, heis3.center, X)


def test_heisenberg_chi_psi(heis5):
    F, c = heis5.field, heis5.certificate
    delta = heis5.delta
    for a in F.elements():
        assert c.chi[a] == F.sub(0, a)
        for b in F.elements():
            if F.add(a, b) == 0:
                continue
            assert c.psi[(a, b)] == F.div(F.add(F.mul(a, b), delta),
                                          F.add(a, b))


def test_heisenberg_rejects_even_and_square_eps():
    with pytest.raises(ConstructionError):
        heisenberg_system(field_make(2, 2))
    with pytest.raises(ConstructionError):
        heisenberg_system(field_make(5), eps=4)


@pytest.mark.parametrize("eps", [2.0, 7, -1, "2", True])
def test_heisenberg_rejects_an_eps_outside_the_field(eps):
    with pytest.raises(ConstructionError, match=re.escape(
            f"eps = {eps!r} is not an element 0..4")):
        heisenberg_system(field_make(5), eps=eps)


@pytest.mark.parametrize("entry", ["a", 2.0, None, True])
def test_dps_rejects_a_labeling_entry_that_is_no_line(entry):
    # GF(4), t = 4: cells of 2, 1, 1 and 1 of the five lines
    with pytest.raises(SRingError, match=re.escape(
            f"labeling cell 0 line {entry!r} at position 1 is not an "
            f"integer")):
        dps_system(field_make(2, 2), 4, labeling=[(0, entry), (2,), (3,),
                                                  (4,)])


def test_heisenberg_2r_base_case():
    F = field_make(3)
    cert = heisenberg_system_2r(F, 1)
    assert cert.parameters == (9, 3, 9, 3, 3, 1, 4)


def test_heisenberg_2r_r2():
    cert = heisenberg_system_2r(field_make(3), 2)
    assert cert.parameters[:5] == (81, 3, 81, 27, 3)
    assert cert.group.order == 3 ** 5
    assert (cert.mu, cert.nu) in {(33, 24), (21, 30)}


# ---------------------------------------------------------------------------
# extraspecial


def test_extraspecial_provenance(es3):
    # least primitive root mod 9 is 2, xi = 2^3 = 8
    assert es3.xi == 8
    assert es3.sigma.order() == 3
    assert es3.tau.order() == 2
    assert es3.partition.rank == 9  # 3p


@pytest.mark.parametrize("p", [3, 5])
def test_frobenius_group_order_matches_closure(p, es3):
    # extraspecial_rds reads |<sigma, tau>| = p(p-1) off one conjugation;
    # list the group by closure instead
    es = es3 if p == 3 else extraspecial_rds(p)
    gens = [es.sigma.perm, es.tau.perm]
    seen = {tuple(range(es.group.order))}
    frontier = [np.arange(es.group.order)]
    while frontier:
        new = [g[cur] for cur in frontier for g in gens]
        frontier = [x for x in new if tuple(x) not in seen]
        seen.update(tuple(x) for x in frontier)
    assert len(seen) == p * (p - 1)


def test_extraspecial_rejects_tau_off_the_frobenius_relation(monkeypatch):
    # for p = 5, tau: x -> x^(xi^3) still has order p - 1, but it
    # conjugates sigma to sigma^(eta^3), not sigma^eta
    p, p2 = 5, 25
    xi = pow(constructions._least_primitive_root_mod_p2(p), p, p2)
    real = constructions.automorphism_from_images

    def skewed(G, images):
        x_idx = G.index[(1, 0)]
        if images[x_idx] == G.index[(xi, 0)]:
            images = {**images, x_idx: G.index[(pow(xi, 3, p2), 0)]}
        return real(G, images)

    monkeypatch.setattr(constructions, "automorphism_from_images", skewed)
    with pytest.raises(ConstructionError, match="tau sigma tau"):
        extraspecial_rds(p)


def test_extraspecial_certificates(es3):
    p = es3.p
    for cy, cz in zip(es3.Y_certs, es3.Z_certs):
        assert cy.parameters == (9, 3, 9, 3)
        assert cz.parameters == (9, 3, 9, 3)
        assert cy.reversible and cz.reversible
    for cs in es3.pds_certs:
        assert cs.parameters == (27, 10, 1, 5)


def test_extraspecial_nonnormal_forbidden(es3):
    G = es3.group
    for H, normal in ((es3.Y, False), (es3.Z, True)):
        # g h g^-1 for every g (rows) and h in H (columns)
        conjugates = G.table[G.table[:, H.members], G.inv[:, None]]
        assert np.isin(conjugates, H.members).all() == normal


def test_extraspecial_sigma_i_moves_x0(es3):
    for i, si in enumerate(es3.sigma_i):
        assert si.apply_set(es3.X_sets[0]) == es3.X_sets[i]


def test_extraspecial_x_sets_reversible(es3):
    G = es3.group
    for X in es3.X_sets:
        assert tuple(sorted(int(G.inv[g]) for g in X)) == X


def test_extraspecial_family_not_linked(es3):
    # the Y_i (and Z_i) collections do not form linked systems: their
    # off-diagonal products are not two-valued with a member level set
    G = es3.group
    with pytest.raises(LinkedError):
        verify_linked(G, es3.Z, [c.X for c in es3.Y_certs])
    with pytest.raises(LinkedError):
        verify_linked(G, es3.Y, [c.X for c in es3.Z_certs])


def test_extraspecial_p2_rejected():
    with pytest.raises(ConstructionError):
        extraspecial_rds(2)
    with pytest.raises(ConstructionError):
        extraspecial_rds(4)


# ---------------------------------------------------------------------------
# Q8


def test_q8_system(q8cert):
    assert q8cert.parameters == (4, 2, 4, 2, 2, 1, 3)
    G = q8cert.group
    assert q8cert.sets[1] == tuple(sorted(int(G.inv[g])
                                          for g in q8cert.sets[0]))


def test_q8_2r():
    cert = q8_system_2r(2)
    assert cert.parameters[:5] == (16, 2, 16, 8, 2)
    assert cert.group.order == 32
    assert (cert.mu, cert.nu) in {(10, 6), (6, 10)}


# ---------------------------------------------------------------------------
# DPS


@pytest.mark.parametrize("p, r, t, s, endos", [
    (3, 1, 3, 3, [((0,),), ((1,),), ((2,),)]),
    (2, 2, 4, 4, [((0, 0), (0, 0)), ((0, 1), (1, 1)), ((1, 0), (0, 1)),
                  ((1, 1), (1, 0))]),
    (2, 3, 8, 4, [((0, 0, 0), (0, 0, 0), (0, 0, 0)),
                  ((0, 0, 1), (1, 0, 0), (0, 1, 1)),
                  ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                  ((1, 0, 1), (1, 1, 0), (0, 1, 0))]),
    (3, 2, 9, 9, [((0, 0), (0, 0)), ((0, 2), (1, 0)), ((0, 1), (2, 0)),
                  ((1, 0), (0, 1)), ((1, 2), (1, 1)), ((1, 1), (2, 1)),
                  ((2, 0), (0, 2)), ((2, 2), (1, 2)), ((2, 1), (2, 2))]),
], ids=["n3-s3", "n4-s4", "n8-s4", "n9-s9"])
def test_dps_endomorphism_matrices(p, r, t, s, endos):
    # the multiplications by the span of 1, tau, ..., tau^(i-1) in
    # GF(p^j), as matrices on C_p^j: zero first, then product order of
    # the coefficient vectors
    assert dps_system(field_make(p, r), t, s).endos == endos


def test_dps_systems(dps3, dps4):
    assert dps3.certificate.parameters == (9, 3, 9, 3, 2, 5, 2)
    assert dps4.certificate.parameters == (16, 4, 16, 4, 3, 7, 3)


def test_dps_inverse_matching(dps3):
    amb = dps3.ambient
    inv0 = tuple(sorted(int(amb.inv[g]) for g in dps3.families[0]))
    assert inv0 in dps3.families


def _swap_psi(cert):
    cert.psi[(0, 0)], cert.psi[(1, 1)] = cert.psi[(1, 1)], cert.psi[(0, 0)]


def _fix_chi(cert):
    cert.chi = (0, 1)


@pytest.mark.parametrize("corrupt", [_swap_psi, _fix_chi])
def test_dps_rejects_chi_psi_off_the_endomorphism_sum(monkeypatch, corrupt):
    # Y_1 Y_1 = n Y_2 + ... over GF(3): psi(0, 0) must be 1, chi(0) = 1
    real = constructions.verify_linked

    def corrupted(*args):
        cert = real(*args)
        corrupt(cert)
        return cert

    monkeypatch.setattr(constructions, "verify_linked", corrupted)
    with pytest.raises(ConstructionError, match=r"pair \(0,0\)"):
        dps_system(field_make(3), 3)


def test_dps_bad_parameters():
    with pytest.raises(ConstructionError):
        dps_system(field_make(3), 2)  # t does not divide n
    with pytest.raises(ConstructionError):
        dps_system(field_make(2, 2), 4, s=2)  # s - 1 < 2
    with pytest.raises(ConstructionError):
        dps_system(field_make(5), 5, s=3)  # s not a power of p


@pytest.mark.parametrize("build, error, witness", [
    (lambda: q8_system_2r(True), ConstructionError, "r = True"),
    (lambda: theorem_1_2_rds(3, True), ConstructionError, "r = True"),
    (lambda: cyclic(True), GroupError, "n = True"),
    (lambda: q8_system_2r(2.0), ConstructionError, "r = 2.0"),
    (lambda: heisenberg_system_2r(field_make(3), 2.0), ConstructionError,
     "r = 2.0"),
    (lambda: theorem_1_2_rds(3, 2.0), ConstructionError, "r = 2.0"),
    (lambda: extraspecial_rds(3.0), ConstructionError, "p = 3.0"),
    (lambda: cyclic(2.5), GroupError, "n = 2.5"),
    (lambda: elementary_abelian(2, 1.5), GroupError, "k = 1.5"),
    (lambda: field_make(3, 2.0), FieldError, "r = 2.0"),
    (lambda: field_make(3.0), FieldError, "p = 3.0"),
    (lambda: heisenberg(field_make(3), 1.5), GroupError, "r = 1.5"),
    (lambda: amorphic_latin(field_make(2, 2), 2.0), SRingError, "t = 2.0"),
    (lambda: dps_system(field_make(2, 2), 2.0), ConstructionError,
     "t = 2.0")],
    ids=["q8-2r-True", "thm12-True", "cyclic-True", "q8-2r-2.0",
         "heis-2r-2.0", "thm12-2.0", "extraspecial-3.0", "cyclic-2.5",
         "elementary-1.5", "field-r-2.0", "field-p-3.0", "heisenberg-1.5",
         "amorphic-2.0", "dps-2.0"])
def test_size_arguments_must_be_ints(build, error, witness):
    # a bool is not taken as 1, and a float is refused by name
    with pytest.raises(error, match=f"^{re.escape(witness)} is not an int$"):
        build()


@pytest.mark.parametrize("build, witness", [
    (lambda: elementary_abelian(2, -1), "k = -1"),
    (lambda: heisenberg(field_make(3), -1), "r = -1")],
    ids=["elementary-minus-1", "heisenberg-minus-1"])
def test_size_arguments_must_not_be_negative(build, witness):
    with pytest.raises(GroupError,
                       match=f"^{re.escape(witness)} is negative$"):
        build()
    # the least sizes are groups: C2^0 = {e} and Heis(3, 0) = GF(3)
    assert elementary_abelian(2, 0).order == 1
    assert heisenberg(field_make(3), 0).order == 3


@pytest.mark.parametrize("build, error, witness", [
    (lambda: field_make(3, 10000), FieldError,
     "p^r = 3^10000 exceeds the supported range q <= 65536"),
    (lambda: elementary_abelian(2, 20000), GroupError,
     "order 2^20000 needs a 2*2^40000-byte table"),
    (lambda: heisenberg(field_make(3), 5000), GroupError,
     "order 3^10001 needs a 2*3^20002-byte table"),
    (lambda: thas_somma(field_make(3), 5000), GroupError,
     "order 3^10001 needs a 2*3^20002-byte table")],
    ids=["field-3^10000", "elementary-2^20000", "heisenberg-3^10001",
         "thas-somma-3^10001"])
def test_huge_sizes_are_named_as_powers(build, error, witness):
    # an order past Python's int-to-str digit limit is never printed
    with pytest.raises(error, match=f"^{re.escape(witness)}"):
        build()


M61 = 2 ** 61 - 1  # prime: trial division to its square root never ends
HUGE = "<16610-bit integer>"  # 10**5000, past Python's int-to-str limit


@pytest.mark.parametrize("call, error, message", [
    ("groups.extraspecial_mp3(M61)", "GroupError",
     f"order {M61}^3 needs a 2*{M61}^6-byte table"),
    ("groups.elementary_abelian(M61, 0)", "GroupError",
     f"p = {M61} exceeds 32,768, the largest order"),
    ("constructions.extraspecial_rds(M61)", "GroupError",
     f"order {M61}^3 needs a 2*{M61}^6-byte table"),
    ("constructions.theorem_1_2_rds(M61, 2)", "GroupError",
     f"order {M61}^3 needs a 2*{M61}^6-byte table"),
    ("groups.cyclic(10 ** 5000)", "GroupError",
     f"order {HUGE} needs a 2*{HUGE}^2-byte table"),
    ("groups.elementary_abelian(3, 10 ** 5000)", "GroupError",
     f"order 3^{HUGE} needs a 2*3^<16611-bit integer>-byte table"),
    ("constructions.dps_system(ff.field_make(2, 2), 10 ** 5000)",
     "ConstructionError", f"t = {HUGE} must divide n = 4 and be >= 2"),
    ("ff.field_make(10 ** 5000)", "FieldError",
     f"p^r = {HUGE}^1 exceeds the supported range q <= 65536")],
    ids=["extraspecial_mp3-M61", "elementary_abelian-M61-0",
         "extraspecial_rds-M61", "thm12-M61-r2", "cyclic-10^5000",
         "elementary_abelian-3-10^5000", "dps-t-10^5000",
         "field_make-10^5000"])
def test_huge_arguments_are_refused_at_once(call, error, message):
    # each in a child, so that a hang is a timeout and not a stuck run
    code = ("from rdslink import constructions, ff, groups\n"
            f"M61 = {M61}\n"
            "try:\n"
            f"    {call}\n"
            "except Exception as exc:\n"
            "    print(f'{type(exc).__name__}: {exc}')\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env={"PYTHONPATH": ":".join(sys.path),
                              "OPENBLAS_NUM_THREADS": "1"})
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(f"{error}: {message}"), out.stdout


@pytest.mark.parametrize("build, order", [
    (lambda: q8_system_2r(9), 131072),  # the r = 7 step is 2 GiB
    (lambda: theorem_1_2_rds(5, 3), 78125)],
    ids=["q8-2r-r9", "thm12-p5-r3"])
def test_iterated_product_refuses_before_any_step(monkeypatch, build, order):
    calls = []
    monkeypatch.setattr(constructions, "central_product",
                        lambda *args, **kw: calls.append(args))
    with pytest.raises(GroupError, match=f"^order {order} needs a "
                                         f"{2 * order * order:,}-byte table"):
        build()
    assert calls == []


# ---------------------------------------------------------------------------
# Theorem-level assembly


def test_theorem_1_2_base():
    G, X, cert = theorem_1_2_rds(3, 1)
    assert cert.parameters == (9, 3, 9, 3)
    assert G.exponent() == 9


def test_theorem_1_2_r2():
    G, X, cert = theorem_1_2_rds(3, 2)
    assert cert.parameters == (81, 3, 81, 27)
    assert G.order == 243
    assert G.exponent() == 9
    assert cert.semiregular


def test_theorem_1_2_rejects_bad_p():
    with pytest.raises(ConstructionError):
        theorem_1_2_rds(2, 2)
