"""The graph layer against networkx, an independent implementation of
distance-regularity: every graph is certified as a Cayley graph on its
group from the one base e, and networkx's distances between every pair
of vertices check what that base gives.  thas_somma against its
definition."""

import itertools

import networkx as nx
import numpy as np
import pytest

from rdslink.constructions import heisenberg_system
from rdslink.ff import field_make
from rdslink.groups import cyclic, elementary_abelian
from rdslink.rds import (NotDistanceRegular, NotTranslationInvariant,
                         RdsError, WrongDiameter, cayley_adjacency,
                         cayley_drg_check, certify_drg3, thas_somma)


def _cycle(v):
    adj = np.zeros((v, v), dtype=bool)
    for u in range(v):
        adj[u, (u + 1) % v] = adj[(u + 1) % v, u] = True
    return adj


def _cube3():
    return np.array([[bin(u ^ w).count("1") == 1 for w in range(8)]
                     for u in range(8)])


def _heis_cayley(hs):
    return hs.group, hs.orbit_sets[0]  # G, X_0^#


def _heis_graph(hs):
    return cayley_adjacency(*_heis_cayley(hs))


def _every_base(adj):
    """The intersection array, each number counted at every (base,
    vertex) pair, and the classes {u} + {w : d(u, w) = 3} by least
    member, from networkx's distances between every pair of vertices;
    None unless adj is a diameter-3 distance-regular graph whose
    distance-3 relation is an equivalence."""
    if adj.diagonal().any() or (adj != adj.T).any():
        return None
    v = len(adj)
    dist = np.full((v, v), -1)
    g = nx.from_numpy_array(adj.astype(int))
    for u, row in nx.all_pairs_shortest_path_length(g):
        dist[u, list(row)] = list(row.values())
    if (dist < 0).any() or dist.max() != 3:
        return None
    # near[d][u, w] = neighbours of w at distance d from u
    near = [(dist == d).astype(float) @ adj for d in range(4)]
    counts = [near[i + 1][dist == i] for i in range(3)] + \
        [near[i - 1][dist == i] for i in (1, 2, 3)]  # b_0..b_2, c_1..c_3
    rel = (dist == 0) | (dist == 3)
    if any((c != c[0]).any() for c in counts) or \
            not np.array_equal(rel.astype(float) @ rel > 0, rel):
        return None
    return (tuple(int(c[0]) for c in counts),
            [tuple(np.flatnonzero(rel[u]).tolist())
             for u in np.unique(rel.argmax(axis=1))])


GRAPHS = {  # name -> (adjacency, group), given pytest's fixture lookup
    "heis3": lambda fixture: (_heis_graph(fixture("heis3")),
                              fixture("heis3").group),
    "heis5": lambda fixture: (_heis_graph(fixture("heis5")),
                              fixture("heis5").group),
    "thas3": lambda _: thas_somma(field_make(3), 1),
    "thas5": lambda _: thas_somma(field_make(5), 1),
    "thas3r2": lambda _: thas_somma(field_make(3), 2),
    # even q, where the form's -1 is 1
    "thas2r2": lambda _: thas_somma(field_make(2), 2),
    "thas4": lambda _: thas_somma(field_make(2, 2), 1),
    "thas8": lambda _: thas_somma(field_make(2, 3), 1),
    "cube3": lambda _: (_cube3(), elementary_abelian(2, 3)),
    "c6": lambda _: (_cycle(6), cyclic(6)),
}


@pytest.mark.parametrize("name", list(GRAPHS))
def test_certify_drg3_against_networkx(name, request):
    adj, G = GRAPHS[name](request.getfixturevalue)
    arr, classes = certify_drg3(adj, G)
    g = nx.from_numpy_array(adj.astype(int))
    b, c = nx.intersection_array(g)
    assert arr.as_tuple() == tuple(b) + tuple(c)
    # each class is a vertex and everything at distance 3 from it
    dist = dict(nx.all_pairs_shortest_path_length(g))
    expect = {tuple(sorted({u} | {w for w, d in dist[u].items() if d == 3}))
              for u in g}
    assert sorted(classes) == sorted(expect)


CAYLEY = {  # name -> (group, connection set), given pytest's fixtures
    "heis3": lambda fixture: _heis_cayley(fixture("heis3")),
    "heis5": lambda fixture: _heis_cayley(fixture("heis5")),
    "heis7": lambda _: _heis_cayley(heisenberg_system(field_make(7))),
    "heis9": lambda _: _heis_cayley(heisenberg_system(field_make(3, 2))),
    "cube3": lambda _: (elementary_abelian(2, 3), (1, 2, 4)),
    "c6": lambda _: (cyclic(6), (1, 5)),
}


@pytest.mark.parametrize("name", list(CAYLEY))
def test_one_base_agrees_with_every_base(name, request):
    G, S = CAYLEY[name](request.getfixturevalue)
    adj = cayley_adjacency(G, S)
    arr, classes = cayley_drg_check(G, S)
    # the same array, and the same classes in the same order
    assert (arr.as_tuple(), classes) == _every_base(adj)


def _cayley_arcs(G, S):
    """adj[u, w] iff w u^-1 in S, for any S: the arcs of Cay(G, S),
    directed when S is not reversible and looped when e is in S."""
    adj = np.zeros((G.order, G.order), dtype=bool)
    adj[np.arange(G.order), G.table[list(S)]] = True
    return adj


@pytest.mark.parametrize("make, S, error", [
    (lambda: cyclic(8), (1, 7), WrongDiameter),  # octagon
    (lambda: elementary_abelian(2, 4), (1, 2, 4, 8), WrongDiameter),  # 4-cube
    # heptagon: d(0, 3) = d(0, 4) = 3 but d(3, 4) = 1
    (lambda: cyclic(7), (1, 6), RdsError),
    # Moebius ladder: c_2 is 1 at vertex 2 and 2 at vertex 4
    (lambda: cyclic(10), (1, 5, 9), NotDistanceRegular),
    # translation-invariant, but directed and looped
    (lambda: cyclic(5), (1,), RdsError),
    (lambda: cyclic(6), (0, 1, 5), RdsError)],
    ids=["octagon", "cube4", "heptagon", "ladder", "directed", "looped"])
def test_one_base_fails_as_every_base_does(make, S, error):
    G = make()
    adj = _cayley_arcs(G, S)
    with pytest.raises(RdsError) as one:
        certify_drg3(adj, G)
    assert type(one.value) is error
    assert _every_base(adj) is None
    if error is NotDistanceRegular:
        base, vertex = one.value.witness
        assert base == 0 and 0 <= vertex < G.order


def test_every_edge_flip_breaks_translation_invariance(heis3):
    # heis3 has odd order, so no involution: the flipped pair {u, w} is
    # carried by x -> x.g onto another pair for every generator g
    G, t = heis3.group, heis3.group.table
    adj = _heis_graph(heis3)
    pairs = list(itertools.combinations(range(G.order), 2))
    assert len(pairs) == 351
    for u, w in pairs:
        flipped = adj.copy()
        flipped[u, w] = flipped[w, u] = not adj[u, w]
        with pytest.raises(NotTranslationInvariant) as ei:
            certify_drg3(flipped, G)
        g, (x, y) = ei.value.generator, ei.value.pair
        assert g in G.gens
        assert flipped[x, y] != flipped[t[x, g], t[y, g]]


def _generated(G, gens):
    reached, frontier = {0}, {0}
    while frontier:
        frontier = {int(G.table[x, g]) for x in frontier for g in gens}
        frontier -= reached
        reached |= frontier
    return sorted(reached)


def test_every_generator_is_checked(heis3):
    # edges {x, s.x} for x in the proper subgroup H that the other
    # generators generate, s in H: only the translation by g moves them
    for G in (heis3.group, elementary_abelian(2, 3)):
        t = G.table
        for k, g in enumerate(G.gens):
            H = _generated(G, G.gens[:k] + G.gens[k + 1:])
            adj = np.zeros((G.order, G.order), dtype=bool)
            adj[H, t[H[1], H]] = True
            adj |= adj.T
            with pytest.raises(NotTranslationInvariant) as ei:
                certify_drg3(adj, G)
            assert ei.value.generator == g


def test_one_base_needs_a_group_of_the_graph_order(heis3):
    with pytest.raises(RdsError, match="27 vertices"):
        certify_drg3(_heis_graph(heis3), cyclic(26))
    with pytest.raises(RdsError, match=r"shape \(27, 26\)"):
        certify_drg3(_heis_graph(heis3)[:, 1:], heis3.group)


def test_thas_somma_matches_definition():
    # GF(3), r = 1: B(a, b) = a0 b1 - a1 b0 for the standard form
    adj, G = thas_somma(field_make(3), 1)
    verts = G.elements
    assert verts == [((a0, a1), al) for a0 in range(3) for a1 in range(3)
                     for al in range(3)]
    for (i, ((a0, a1), al)), (j, ((b0, b1), be)) in itertools.product(
            enumerate(verts), repeat=2):
        want = (a0, a1) != (b0, b1) and \
            (a0 * b1 - a1 * b0 - (al - be)) % 3 == 0
        assert adj[i, j] == want, (verts[i], verts[j])
    # r = 0: F^1 with no vector pair a != b, so no edges
    adj, G = thas_somma(field_make(3), 0)
    assert G.elements == [((), 0), ((), 1), ((), 2)]
    assert not adj.any()


def test_thas_somma_matches_the_standard_form_at_r2():
    # GF(5), r = 2: B(a, b) = a0 b2 + a1 b3 - a2 b0 - a3 b1
    B = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    adj, G = thas_somma(field_make(5), 2)
    verts = np.array([a + (alpha,) for a, alpha in G.elements])
    assert np.array_equal(verts, np.indices((5,) * 5).reshape(5, -1).T)
    a, alpha = verts[:, :4], verts[:, 4]
    index = np.arange(G.order) // 5  # the index of a, in grid order
    want = ((a @ B @ a.T - alpha[:, None] + alpha) % 5 == 0) & \
        (index[:, None] != index)
    assert np.array_equal(adj, want)
    arr, _ = certify_drg3(adj, G)
    assert arr.as_tuple() == (624, 500, 1, 1, 125, 624)
