"""Randomized and exhaustive property suites over enumerated graph pools.

Each suite runs at least 1000 seeded cases; where a property's natural
domain is smaller the suite sweeps it exhaustively and tops up with seeded
resampling.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from strata import (
    DivisorSet,
    DualGraph,
    GnSignature,
    boundary_complex,
    canonical_key,
    chain,
    divisor_set,
    intersection_components,
    is_degeneration,
)
from helpers import is_tree_type, relabel, sigma, smooth, vertex_isomorphisms

POOL_SIGS = [
    (0, 5), (0, 6), (0, 7),
    (1, 1), (1, 2), (1, 3), (1, 4),
    (2, 0), (2, 1), (2, 2), (2, 3),
    (3, 2),
]
LEVEL_CAP = {(2, 3): 4, (3, 2): 3}
CASES = 1000


def build_pool(store) -> list[DualGraph]:
    graphs: list[DualGraph] = []
    for g, n in POOL_SIGS:
        sig = GnSignature(g, n)
        top = min(sig.dim, LEVEL_CAP.get((g, n), sig.dim))
        for k in range(1, top + 1):
            graphs.extend(store.level(sig, k).values())
    return graphs


@pytest.fixture(scope="module")
def pool(store) -> list[DualGraph]:
    return build_pool(store)


def smooth_in_order(G: DualGraph, original_ids: list[int]) -> DualGraph:
    """Smooth the given original edge ids one at a time, in list order."""
    remaining = list(range(G.num_edges))
    out = G
    for target in original_ids:
        pos = remaining.index(target)
        out = smooth(out, pos)
        remaining.pop(pos)
    return out


def test_smoothing_commutes(pool):
    rng = random.Random(101)
    candidates = [G for G in pool if G.num_edges >= 2]
    for _ in range(CASES):
        G = rng.choice(candidates)
        e, f = sorted(rng.sample(range(G.num_edges), 2))
        ef = smooth(smooth(G, e), f - 1)
        fe = smooth(smooth(G, f), e)
        assert canonical_key(ef) == canonical_key(fe)
        size = rng.randint(0, G.num_edges)
        F = rng.sample(range(G.num_edges), size)
        simultaneous = G.smooth_set(F)
        shuffled = F[:]
        rng.shuffle(shuffled)
        assert canonical_key(simultaneous) == canonical_key(smooth_in_order(G, shuffled))


def test_smoothing_preserves_genus_stability_legs(pool):
    rng = random.Random(202)
    candidates = [G for G in pool if G.num_edges >= 1]
    for _ in range(CASES):
        G = rng.choice(candidates)
        e = rng.randrange(G.num_edges)
        S = smooth(G, e)
        assert S.total_genus == G.total_genus
        assert S.num_edges == G.num_edges - 1
        assert S.n == G.n
        assert S.is_stable()
        for m1, m2 in combinations(range(G.n), 2):
            if G.legs[m1] == G.legs[m2]:
                assert S.legs[m1] == S.legs[m2]


def _handcrafted_large() -> list[DualGraph]:
    """Graphs on 6 and 7 vertices to exercise the oracle bound."""
    return [
        chain([(0, (1, 2)), (0, (3,)), (0, (4,)), (0, (5,)), (0, (6,)), (0, (7, 8))]),
        chain([(0, (1, 2)), (0, (3,)), (0, (4,)), (0, (5,)), (0, (6,)), (0, (7,)),
               (0, (8, 9))]),
        chain([(1, (1,)), (0, (2, 3)), (1, ()), (0, (4, 5)), (1, ()), (0, (6, 7))]),
        DualGraph((0,) * 6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)),
                  (1, 2)),
    ]


def test_canonical_key_matches_bijection_oracle(pool):
    rng = random.Random(303)
    candidates = [G for G in pool if G.num_vertices <= 7] + _handcrafted_large()
    by_class: dict[tuple, list[DualGraph]] = {}
    for G in candidates:
        by_class.setdefault((G.total_genus, G.n, G.num_edges), []).append(G)
    buckets = [v for v in by_class.values() if len(v) >= 2]
    for t in range(CASES):
        if t % 2 == 0:
            G = rng.choice(candidates)
            perm = list(range(G.num_vertices))
            rng.shuffle(perm)
            H = relabel(G, tuple(perm))
            assert canonical_key(G) == canonical_key(H)
            assert any(vertex_isomorphisms(G, H))
        else:
            G, H = rng.sample(rng.choice(buckets), 2)
            assert canonical_key(G) != canonical_key(H)
            assert not any(vertex_isomorphisms(G, H))


def test_degeneration_partial_order(pool):
    rng = random.Random(404)
    by_sig: dict[GnSignature, list[DualGraph]] = {}
    for G in pool:
        by_sig.setdefault(G.signature, []).append(G)
    families = [v for v in by_sig.values() if len(v) >= 2]
    for _ in range(400):
        G = rng.choice(pool)
        assert is_degeneration(G, G)
    for _ in range(300):
        G, H = rng.sample(rng.choice(families), 2)
        forward = is_degeneration(G, H)
        backward = is_degeneration(H, G)
        same = canonical_key(G) == canonical_key(H)
        assert not (forward and backward) or same
        if G.num_edges == H.num_edges and not same:
            assert not forward and not backward
    for _ in range(300):
        G = rng.choice(pool)
        F1 = rng.sample(range(G.num_edges), rng.randint(0, G.num_edges))
        H = G.smooth_set(F1)
        F2 = rng.sample(range(H.num_edges), rng.randint(0, H.num_edges))
        K = H.smooth_set(F2)
        assert is_degeneration(G, H)
        assert is_degeneration(H, K)
        assert is_degeneration(G, K)


def test_complex_downward_closure(store):
    rng = random.Random(505)
    complexes = [
        boundary_complex(GnSignature(g, n), store)
        for g, n in [(2, 2), (1, 3), (1, 4), (0, 5), (0, 6), (2, 3)]
    ]
    faced = [
        (C, face)
        for C in complexes
        for size, faces in C.faces.items()
        if size >= 2
        for face in faces
    ]
    assert len(faced) >= 300
    for _ in range(CASES):
        C, face = rng.choice(faced)
        subset_size = rng.randint(1, len(face) - 1)
        subset = tuple(sorted(rng.sample(face, subset_size)))
        assert subset in C.faces[subset_size]


def test_unique_realization_of_divisor_collections(store):
    """Every realized set of k distinct divisors has exactly one realizing
    stratum, and every stratum in scope realizes k distinct divisors
    (genus 0 everywhere; genus 1 on the tree-type part)."""
    checks = 0
    for g, top_n in [(0, 7), (1, 5)]:
        for n in range(3 if g == 0 else 1, top_n + 1):
            sig = GnSignature(g, n)
            for k in range(1, sig.dim + 1):
                groups: dict[frozenset, list[DualGraph]] = {}
                for G in store.level(sig, k).values():
                    scoped = g == 0 or is_tree_type(G)
                    if scoped:
                        support = G.delta_support()
                        assert len(support) == k
                        groups.setdefault(support, []).append(G)
                        checks += 1
                for support, members in groups.items():
                    assert len(members) == 1
    assert checks >= CASES


def _tree_strata(sig: GnSignature, store) -> list[DualGraph]:
    return [
        G
        for k in range(1, sig.dim + 1)
        for G in store.level(sig, k).values()
        if is_tree_type(G)
    ]


def test_genus_one_reduction_suite(store):
    """Round trip, image characterization, inclusion preservation, and
    compatibility with intersections for the genus-1 reduction."""
    from helpers import sigma_inverse

    cases = 0
    for n in (1, 2, 3):
        sig = GnSignature(1, n)
        trees = _tree_strata(sig, store)
        target = GnSignature(0, n + 2)
        image = set()
        for G in trees:
            H = sigma(G)
            assert canonical_key(sigma_inverse(H)) == canonical_key(G)
            assert H.total_genus == 0 and H.num_edges == G.num_edges
            image.add(canonical_key(H))
            cases += 1
        expected = {
            canonical_key(H)
            for k in range(1, target.dim + 1)
            for H in store.level(target, k).values()
            if H.legs[-1] == H.legs[-2]
        }
        assert image == expected
        assert len(image) == len(trees)

    for n in (3, 4):
        trees = _tree_strata(GnSignature(1, n), store)
        for G in trees:
            for H in trees:
                assert is_degeneration(G, H) == is_degeneration(sigma(G), sigma(H))
                cases += 1

    for n in (2, 3):
        sig = GnSignature(1, n)
        target_dim = GnSignature(0, n + 2).dim
        tree_divisors = [G for G in store.level(sig, 1).values() if is_tree_type(G)]
        for size in range(1, min(sig.dim, target_dim) + 1):
            for combo in combinations(tree_divisors, size):
                S = divisor_set(sig, list(combo), store)
                lhs = {
                    canonical_key(sigma(G))
                    for G in intersection_components(S, store).components
                }
                mapped = divisor_set(
                    GnSignature(0, n + 2), [sigma(D) for D in combo], store
                )
                rhs = {
                    canonical_key(G)
                    for G in intersection_components(mapped, store).components
                }
                assert lhs == rhs
                cases += 1
    assert cases >= CASES


def test_loop_divisor_meets_every_stratum(store):
    """In genus 1, the loop divisor extends any realized divisor collection."""
    from strata import one_vertex
    from helpers import intersect_nonempty

    cases = 0
    for n in (1, 2, 3, 4):
        sig = GnSignature(1, n)
        loop_key = canonical_key(one_vertex(0, n, loops=1))
        for k in range(1, sig.dim + 1):
            for G in store.level(sig, k).values():
                keys = G.delta_support() | {loop_key}
                S = DivisorSet(sig, tuple(keys))
                assert intersect_nonempty(S, store)
                cases += 1
    assert cases >= 150


def test_one_edge_degeneration_iff_delta_support(pool, store):
    """Degenerating to a one-edge graph is membership in the divisor support."""
    rng = random.Random(707)
    candidates = [G for G in pool if G.num_edges >= 1]
    for _ in range(CASES):
        G = rng.choice(candidates)
        H = rng.choice(list(store.level(G.signature, 1).values()))
        assert is_degeneration(G, H) == (canonical_key(H) in G.delta_support())


def test_exact_matches_superset_search(store):
    """Exact-codimension search and superset search agree on divisor sets."""
    from helpers import intersect_nonempty, intersect_nonempty_superset

    rng = random.Random(606)
    cases = 0
    for g, n in [(1, 2), (1, 3), (2, 2), (0, 5), (0, 6)]:
        sig = GnSignature(g, n)
        keys = list(store.level(sig, 1))
        for size in range(1, min(sig.dim, 3) + 1):
            combos = list(combinations(keys, size))
            rng.shuffle(combos)
            for combo in combos[:200]:
                S = DivisorSet(sig, combo)
                assert intersect_nonempty(S, store) == intersect_nonempty_superset(
                    S, store
                )
                cases += 1
    assert cases >= 300
