import itertools
import re

import numpy as np
import pytest

from rdslink import schur
from rdslink.ff import field_make
from rdslink.groups import cyclic, automorphism_from_images
from rdslink.schur import (SchurPartition, SRingError, affine_plane_group,
                           amorphic_latin, cyclotomic, default_labeling,
                           lines_through_origin, verify_sring)


def test_partition_axioms():
    G = cyclic(4)
    P = SchurPartition(G, [(0,), (2,), (1, 3)])
    assert P.rank == 3
    assert P.class_of[G.inv[P.classes[2][0]]] == 2  # {1, 3}^(-1) = {1, 3}
    with pytest.raises(SRingError):
        SchurPartition(G, [(0,), (1,), (2, 3)])  # {1}^(-1) = {3}: not a class
    with pytest.raises(SRingError):
        SchurPartition(G, [(0, 1), (2, 3)])  # {e} not its own class
    with pytest.raises(SRingError):
        SchurPartition(G, [(0,), (1, 3)])  # 2 not covered


def test_partition_rejects_an_empty_class():
    with pytest.raises(SRingError, match="class 2 is empty"):
        SchurPartition(cyclic(4), [(0,), (1, 2, 3), ()])


@pytest.mark.parametrize("classes, witness", [
    ([(0,), (2,), (1, 3, 4)], "class 2 member 4 at position 2 is not an "
     "index 0..3"),
    ([(0,), (2.0,), (1, 3)], "class 1 member 2.0 at position 0 is not an "
     "integer"),
    ([(0,), (2,), (-1, 1)], "class 2 member -1 at position 0 is not an "
     "index 0..3"),
    ([(0,), (2,), (True, 3)], "class 2 member True at position 0 is not "
     "an integer")],
    # each id names the case by the message's earlier wording
    ids=["classes0-class 2 has member 4,", "classes1-class 1 has member 2.0,",
         "classes2-class 2 has member -1,",
         "classes3-class 2 has member True,"])
def test_partition_rejects_non_element_members(classes, witness):
    SchurPartition(cyclic(4), [(np.int64(0),), (np.uint8(2),), (1, 3)])
    with pytest.raises(SRingError, match=re.escape(witness)):
        SchurPartition(cyclic(4), classes)


@pytest.mark.parametrize("build, witness", [
    (lambda: SchurPartition(cyclic(4), [(0,), (1, "a")]),
     "class 1 member 'a' at position 1 is not an integer"),
    (lambda: SchurPartition(cyclic(4), [(0,), (1, None), (2, 3)]),
     "class 1 member None at position 1 is not an integer"),
    (lambda: SchurPartition(cyclic(4), [(0,), 5]),
     "class 1 member is 5, not a sequence"),
    (lambda: amorphic_latin(field_make(2, 2), 2, [(0, 1, 2), 3]),
     "labeling cell 1 line is 3, not a sequence")],
    ids=["string-member", "none-member", "int-class", "int-cell"])
def test_entries_are_checked_before_they_are_sorted(build, witness):
    with pytest.raises(SRingError, match=f"^{re.escape(witness)}$"):
        build()


def test_verify_sring_cyclic():
    G = cyclic(5)
    P = SchurPartition(G, [(0,), (1, 4), (2, 3)])
    tensor = verify_sring(P)
    assert tensor.shape == (3, 3, 3) and tensor.dtype == np.int64
    # X = {1,4}: X*X = 2e + {2,3}
    assert tensor[1, 1, 0] == 2
    assert tensor[1, 1, 2] == 1
    assert tensor[1, 1, 1] == 0


def test_verify_sring_rejects_nonclosed():
    # over C7 the span of {{e},{1,6},{2,3,4,5}} is not product-closed:
    # {1,6}*{1,6} = 2e + {2,5} is not constant on {2,3,4,5}
    G7 = cyclic(7)
    P = SchurPartition(G7, [(0,), (1, 6), (2, 3, 4, 5)])
    with pytest.raises(SRingError):
        verify_sring(P)


def test_cyclotomic_inversion_orbits():
    G = cyclic(5)
    inv_map = automorphism_from_images(G, {1: 4})
    P = cyclotomic(G, [inv_map])
    assert P.rank == 3
    assert P.classes == [(0,), (1, 4), (2, 3)]


def test_structure_constant_counting_identity():
    # sum_Z c_XY^Z |Z| = |X| |Y|
    G = cyclic(5)
    P = cyclotomic(G, [automorphism_from_images(G, {1: 4})])
    tensor = verify_sring(P)
    sizes = P.class_sizes()
    for i in range(P.rank):
        for j in range(P.rank):
            total = sum(int(tensor[i, j, k]) * sizes[k]
                        for k in range(P.rank))
            assert total == sizes[i] * sizes[j]


def test_affine_plane_and_lines():
    F = field_make(3)
    G = affine_plane_group(F)
    assert G.order == 9
    lines = lines_through_origin(F)
    assert len(lines) == 4
    assert all(len(line) == 2 for line in lines)
    # the punctured lines partition G^#
    hit = sorted(g for line in lines for g in line)
    assert hit == list(range(1, 9))


def test_default_labeling():
    assert default_labeling(4, 2) == [(0, 1, 2), (3, 4)]
    assert default_labeling(3, 3) == [(0, 1), (2,), (3,)]


def test_amorphic_latin_sizes_and_relations():
    F = field_make(2, 2)
    G, sets = amorphic_latin(F, 2)
    assert len(sets[0]) == 3 * 3  # (n/t + 1)(n - 1)
    assert len(sets[1]) == 2 * 3
    # k = (3, 2): X_0^2 = 9e + 4X_0 + 6X_1, X_0 X_1 = 4X_0 + 3X_1 and
    # X_1^2 = 6e + 2X_0 + 2X_1, by the two-case relation
    tensor = verify_sring(_amorphic_partition(G, sets))
    assert tensor[1:, 1:].tolist() == [[[9, 4, 6], [0, 4, 3]],
                                       [[0, 4, 3], [6, 2, 2]]]


def test_amorphic_latin_rejects_a_tensor_off_the_relation(monkeypatch):
    # every labeling satisfies the relation, so a wrong structure
    # constant is planted where amorphic_latin reads them
    def planted(P):
        tensor = verify_sring(P)
        tensor[2, 1, 0] += 1
        return tensor

    monkeypatch.setattr(schur, "verify_sring", planted)
    with pytest.raises(SRingError, match=r"relation fails at pair \(1, 0\)"):
        amorphic_latin(field_make(2, 2), 2)


def test_amorphic_latin_trivial_fusion():
    F = field_make(3)
    G, sets = amorphic_latin(F, 1)
    assert sets[0] == tuple(range(1, 9))


def test_perturbed_labeling_rejected():
    F = field_make(2, 2)
    G, sets = amorphic_latin(F, 2)
    # move one element between cells: no S-ring, so no relation holds
    bad = {0: tuple(sorted(set(sets[0]) - {sets[0][0]} | {sets[1][0]})),
           1: tuple(sorted(set(sets[1]) - {sets[1][0]} | {sets[0][0]}))}
    with pytest.raises(SRingError, match="not constant"):
        verify_sring(_amorphic_partition(G, bad))


@pytest.mark.parametrize("entry", ["a", 2.0, None, True])
def test_amorphic_latin_rejects_a_labeling_entry_that_is_no_line(entry):
    with pytest.raises(SRingError, match=re.escape(
            f"labeling cell 0 line {entry!r} at position 2 is not an "
            f"integer")):
        amorphic_latin(field_make(2, 2), 2, [(0, 1, entry), (3, 4)])


def test_amorphic_latin_bad_t():
    with pytest.raises(SRingError):
        amorphic_latin(field_make(3), 2)


def _tensor_by_all_pairs(P):
    """c[i][j][k] from every product C_i C_j, each counted off the Cayley
    table and checked constant on every class."""
    G, r = P.group, P.rank
    tensor = np.zeros((r, r, r), dtype=np.int64)
    for i, j in itertools.product(range(r), repeat=2):
        prod = np.bincount(G.table[np.ix_(P.classes[i], P.classes[j])].ravel(),
                           minlength=G.order)
        for k, c in enumerate(P.classes):
            assert len(set(prod[list(c)].tolist())) == 1
            tensor[i, j, k] = prod[c[0]]
    return tensor


def _amorphic_partition(G, sets):
    return SchurPartition(G, [(0,)] + [sets[h] for h in range(len(sets))])


@pytest.mark.parametrize("name", ["heis3", "heis5", "es3", "dps3", "dps4",
                                  "GF(9) t=3", "GF(8) t=4", "C7 squares"])
def test_verify_sring_agrees_with_all_pairs(request, name):
    # verify_sring computes one product of each pair (i, j), (j*, i*)
    # and reads the other off it at inverse classes
    if name.startswith("GF"):
        F, t = {"GF(9) t=3": (field_make(3, 2), 3),
                "GF(8) t=4": (field_make(2, 3), 4)}[name]
        P = _amorphic_partition(*amorphic_latin(F, t))
    elif name.startswith("dps"):
        ds = request.getfixturevalue(name)
        P = _amorphic_partition(ds.plane, ds.amorphic_sets)
    elif name == "C7 squares":
        # the inverse of the class of squares is the class of non-squares
        P = SchurPartition(cyclic(7), [(0,), (1, 2, 4), (3, 5, 6)])
    else:
        P = request.getfixturevalue(name).partition
        star = P.class_of[P.group.inv[[c[0] for c in P.classes]]]
        assert (star != np.arange(P.rank)).any()
    assert np.array_equal(verify_sring(P), _tensor_by_all_pairs(P))
