"""The graph layer against networkx, an independent implementation of
distance-regularity, and thas_somma against its definition."""

import itertools

import networkx as nx
import numpy as np
import pytest

from rdslink.ff import field_make
from rdslink.rds import (NotDistanceRegular, cayley_adjacency, certify_drg3,
                         thas_somma)


def _cycle(v):
    adj = np.zeros((v, v), dtype=bool)
    for u in range(v):
        adj[u, (u + 1) % v] = adj[(u + 1) % v, u] = True
    return adj


def _cube3():
    return np.array([[bin(u ^ w).count("1") == 1 for w in range(8)]
                     for u in range(8)])


def _heis_graph(hs):
    return cayley_adjacency(hs.group, hs.orbit_sets[0])  # Cay(G, X_0^#)


GRAPHS = {  # name -> adjacency, given pytest's fixture lookup
    "heis3": lambda fixture: _heis_graph(fixture("heis3")),
    "heis5": lambda fixture: _heis_graph(fixture("heis5")),
    "thas3": lambda _: thas_somma(field_make(3), 1)[0],
    "thas5": lambda _: thas_somma(field_make(5), 1)[0],
    "thas3r2": lambda _: thas_somma(field_make(3), 2)[0],
    "cube3": lambda _: _cube3(),
    "c6": lambda _: _cycle(6),
}


@pytest.mark.parametrize("name", list(GRAPHS))
def test_certify_drg3_against_networkx(name, request):
    adj = GRAPHS[name](request.getfixturevalue)
    arr, classes = certify_drg3(adj)
    g = nx.from_numpy_array(adj.astype(int))
    b, c = nx.intersection_array(g)
    assert arr.as_tuple() == tuple(b) + tuple(c)
    # each class is a vertex and everything at distance 3 from it
    dist = dict(nx.all_pairs_shortest_path_length(g))
    expect = {tuple(sorted({u} | {w for w, d in dist[u].items() if d == 3}))
              for u in g}
    assert sorted(classes) == sorted(expect)


def test_every_edge_flip_is_rejected(heis3):
    adj = _heis_graph(heis3)
    v = adj.shape[0]
    for u, w in itertools.combinations(range(v), 2):
        flipped = adj.copy()
        flipped[u, w] = flipped[w, u] = not adj[u, w]
        with pytest.raises(NotDistanceRegular) as ei:
            certify_drg3(flipped)
        base, vertex = ei.value.witness
        assert 0 <= base < v and 0 <= vertex < v
        assert not nx.is_distance_regular(
            nx.from_numpy_array(flipped.astype(int)))


def test_thas_somma_matches_definition():
    # GF(3), r = 1: B(a, b) = a0 b1 - a1 b0 for the standard form
    adj, verts = thas_somma(field_make(3), 1)
    assert verts == [((a0, a1), al) for a0 in range(3) for a1 in range(3)
                     for al in range(3)]
    for (i, ((a0, a1), al)), (j, ((b0, b1), be)) in itertools.product(
            enumerate(verts), repeat=2):
        want = (a0, a1) != (b0, b1) and \
            (a0 * b1 - a1 * b0 - (al - be)) % 3 == 0
        assert adj[i, j] == want, (verts[i], verts[j])
    # r = 0: F^1 with no vector pair a != b, so no edges
    adj, verts = thas_somma(field_make(3), 0)
    assert verts == [((), 0), ((), 1), ((), 2)]
    assert not adj.any()
