"""Canonical keys against networkx's VF2 isomorphism test on larger graphs.

The all-bijections oracle in ``helpers`` is only practical up to about 7
vertices.  Here VF2 decides isomorphism on the graphs of (4,0) with at
least 5 vertices (the most (4,0) allows is 6) and on the graphs of (5,0)
with more than 7 vertices.  networkx is used by this test only.
"""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx
from networkx.algorithms.isomorphism import categorical_edge_match, categorical_node_match

from strata import DualGraph, GnSignature, canonical_key
from helpers import relabel

POOLS = [((4, 0), 5), ((5, 0), 8)]  # (signature, fewest vertices kept)
RELABELINGS = 3


def to_nx(G: DualGraph):
    """Simple graph with self-loops: nodes labelled (genus, marks), edges by multiplicity."""
    H = nx.Graph()
    for v, g in enumerate(G.genus):
        H.add_node(v, label=(g, tuple(m + 1 for m, w in enumerate(G.legs) if w == v)))
    for i, j in G.edges:
        if H.has_edge(i, j):
            H[i][j]["mult"] += 1
        else:
            H.add_edge(i, j, mult=1)
    return H


def vf2_isomorphic(G: DualGraph, H: DualGraph) -> bool:
    return nx.is_isomorphic(
        to_nx(G),
        to_nx(H),
        node_match=categorical_node_match("label", None),
        edge_match=categorical_edge_match("mult", 0),
    )


def pool_levels(store):
    for (g, n), fewest in POOLS:
        sig = GnSignature(g, n)
        for k in range(1, sig.dim + 1):
            graphs = [G for G in store.level(sig, k).values() if G.num_vertices >= fewest]
            if graphs:
                yield sig, k, graphs


def test_pool_reaches_eight_vertices(store):
    sizes = {G.num_vertices for _, _, graphs in pool_levels(store) for G in graphs}
    assert max(sizes) == 8


def test_relabelings_keep_key_and_vf2_agrees(store):
    rng = random.Random(2014)
    for _, _, graphs in pool_levels(store):
        for G in graphs:
            for _ in range(RELABELINGS):
                perm = list(range(G.num_vertices))
                rng.shuffle(perm)
                H = relabel(G, tuple(perm))
                assert canonical_key(H) == canonical_key(G)
                assert vf2_isomorphic(G, H)


def test_same_level_graphs_distinct_keys_and_not_vf2_isomorphic(store):
    for sig, k, graphs in pool_levels(store):
        assert len({canonical_key(G) for G in graphs}) == len(graphs)
        for G, H in combinations(graphs, 2):
            assert not vf2_isomorphic(G, H), (sig, k, G.describe(), H.describe())
