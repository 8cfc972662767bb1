from __future__ import annotations

import time
from itertools import combinations

import pytest

from strata import (
    DivisorSet,
    DualGraph,
    GnSignature,
    canonical_key,
    chain,
    divisor_set,
    intersection_components,
    is_degeneration,
    one_vertex,
    two_vertex_divisor,
)
from helpers import (
    delta_multiset,
    has_loop,
    intersect_nonempty,
    intersect_nonempty_superset,
    is_isomorphic,
    is_tree_type,
    level_supports,
    scan_components,
    sigma,
    sigma_inverse,
)


# -- tree type -----------------------------------------------------------------


def test_tree_type_examples():
    assert is_tree_type(two_vertex_divisor(1, (1, 2), 1, ()))
    assert not is_tree_type(one_vertex(1, 2, loops=1))
    assert not is_tree_type(DualGraph((0, 0), ((0, 1), (0, 1)), (0, 1)))


def test_tree_type_matches_bridge_oracle(store):
    """A graph is tree-type iff removing any single edge disconnects it."""
    for g, n in [(1, 3), (2, 2)]:
        sig = GnSignature(g, n)
        for k in range(1, sig.dim + 1):
            for G in store.level(sig, k).values():
                every_edge_bridges = all(
                    _disconnects(G, e) for e in range(G.num_edges)
                )
                assert is_tree_type(G) == (not has_loop(G) and every_edge_bridges)


def _disconnects(G: DualGraph, e: int) -> bool:
    V = G.num_vertices
    parent = list(range(V))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t, (i, j) in enumerate(G.edges):
        if t == e:
            continue
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(v) for v in range(V)}) > 1


# -- divisor sets ----------------------------------------------------------------


def test_divisor_set_rejects_empty(store):
    with pytest.raises(ValueError, match="empty"):
        DivisorSet(GnSignature(2, 2), ())


def test_divisor_set_rejects_duplicates(store):
    key = canonical_key(one_vertex(1, 2, loops=1))
    with pytest.raises(ValueError, match="distinct"):
        DivisorSet(GnSignature(2, 2), (key, key))


def test_divisor_set_rejects_non_divisors(store):
    with pytest.raises(ValueError, match="not a divisor"):
        divisor_set(GnSignature(2, 2), [one_vertex(2, 2)], store)


def star(leaves: int) -> DualGraph:
    """A genus-0 centre joined to ``leaves`` genus-1 vertices: (leaves, 0), leaves edges."""
    return DualGraph((0,) + (1,) * leaves, tuple((0, v) for v in range(1, leaves + 1)), ())


def test_divisor_set_rejects_multi_edge_graph_before_keying(store):
    """Keying the 9-leaf star searches its 9! leaf orders; its edge count rules it out first."""
    G = star(9)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^g=\[0,1,1,1,1,1,1,1,1,1\] .* is not a divisor of \(9,0\)$"):
        divisor_set(GnSignature(9, 0), [G], store)
    assert time.perf_counter() - start < 1.0


def test_divisor_set_rejects_mixed_signatures(store):
    with pytest.raises(ValueError, match="mixed"):
        divisor_set(
            GnSignature(2, 2),
            [one_vertex(1, 2, loops=1), one_vertex(1, 3, loops=1)],
            store,
        )


# -- intersections -----------------------------------------------------------------


def test_single_divisor_intersection_is_itself(store):
    sig = GnSignature(2, 2)
    D = two_vertex_divisor(1, (1, 2), 1, ())
    report = intersection_components(divisor_set(sig, [D], store), store)
    assert report.nonempty
    assert len(report.components) == 1
    assert is_isomorphic(report.components[0], D)


def test_union_of_two_codim2_strata(store):
    sig = GnSignature(2, 3)
    S = divisor_set(
        sig,
        [one_vertex(1, 3, loops=1), two_vertex_divisor(1, (1, 2), 1, (3,))],
        store,
    )
    report = intersection_components(S, store)
    displayed = {
        canonical_key(chain([(1, (3,)), (0, (1, 2))], loop_at_end=True)),
        canonical_key(chain([(1, (1, 2)), (0, (3,))], loop_at_end=True)),
    }
    assert {canonical_key(G) for G in report.components} == displayed
    assert len(report.components) == 2


def test_intersection_k_beyond_dimension_rejected(store):
    sig = GnSignature(0, 4)
    pair = list(store.level(sig, 1).values())[:2]
    S = divisor_set(sig, pair, store)
    with pytest.raises(ValueError, match="dimension"):
        intersection_components(S, store)


def test_superset_search_agrees(store):
    sig = GnSignature(2, 2)
    keys = list(store.level(sig, 1))
    import itertools

    for size in (1, 2, 3):
        for combo in itertools.combinations(keys, size):
            S = DivisorSet(sig, combo)
            assert intersect_nonempty(S, store) == intersect_nonempty_superset(S, store)


@pytest.mark.parametrize("g, n", [(2, 2), (2, 3), (1, 4), (0, 6), (3, 2), (2, 4)])
def test_components_match_level_scan(store, g, n):
    """Face-map lookups equal a full scan of the level, components in order."""
    sig = GnSignature(g, n)
    keys = tuple(store.level(sig, 1))
    for size in range(2, min(sig.dim, 3) + 1):
        supports = level_supports(sig, size, store)
        for combo in combinations(keys, size):
            S = DivisorSet(sig, combo)
            assert intersection_components(S, store).components == scan_components(S, supports)


def test_components_have_distinct_deltas_and_right_codim(store):
    sig = GnSignature(2, 3)
    S = divisor_set(
        sig,
        [one_vertex(1, 3, loops=1), two_vertex_divisor(1, (1, 2), 1, (3,))],
        store,
    )
    report = intersection_components(S, store)
    for G in report.components:
        assert G.num_edges == len(S)
        assert G.delta_support() == frozenset(S.keys)
        assert len(set(delta_multiset(G))) == len(S)


def test_report_json_schema(store):
    sig = GnSignature(2, 2)
    D = one_vertex(1, 2, loops=1)
    report = intersection_components(divisor_set(sig, [D], store), store)
    obj = report.to_json_obj()
    assert obj["schema"] == "ixreport/1"
    assert obj["nonempty"] is True
    assert obj["g"] == 2 and obj["n"] == 2
    assert len(obj["components"]) == 1


# -- the genus-1 reduction ------------------------------------------------------


def test_sigma_on_divisor():
    G = two_vertex_divisor(0, (1, 2), 1, ())
    image = sigma(G)
    assert image.total_genus == 0
    assert image.num_edges == G.num_edges
    assert is_isomorphic(image, two_vertex_divisor(0, (1, 2), 0, (3, 4)))


def test_sigma_requires_tree_type_and_genus_one():
    with pytest.raises(ValueError, match="tree-type"):
        sigma(one_vertex(0, 2, loops=1))
    with pytest.raises(ValueError, match="genus 1"):
        sigma(one_vertex(2, 2))


def test_sigma_inverse_requires_shared_vertex():
    H = two_vertex_divisor(0, (1, 4), 0, (2, 3, 5))
    with pytest.raises(ValueError, match="share"):
        sigma_inverse(H)
    with pytest.raises(ValueError, match="genus 0"):
        sigma_inverse(one_vertex(1, 3))


def _tree_strata(sig, store):
    out = []
    for k in range(1, sig.dim + 1):
        out.extend(G for G in store.level(sig, k).values() if is_tree_type(G))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sigma_roundtrip_and_image(n, store):
    sig = GnSignature(1, n) if n >= 1 else None
    trees = _tree_strata(sig, store)
    image_keys = set()
    for G in trees:
        H = sigma(G)
        assert is_isomorphic(sigma_inverse(H), G)
        image_keys.add(canonical_key(H))
    assert len(image_keys) == len({canonical_key(G) for G in trees})
    target = GnSignature(0, n + 2)
    expected = set()
    for k in range(1, target.dim + 1):
        for H in store.level(target, k).values():
            if H.legs[-1] == H.legs[-2]:
                expected.add(canonical_key(H))
    assert image_keys == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sigma_divisor_count_matches(n, store):
    sig = GnSignature(1, n)
    tree_divisors = [G for G in store.level(sig, 1).values()] if sig.dim >= 1 else []
    tree_divisors = [G for G in tree_divisors if is_tree_type(G)]
    target = GnSignature(0, n + 2)
    together = [
        H
        for H in (store.level(target, 1).values() if target.dim >= 1 else [])
        if H.legs[-1] == H.legs[-2]
    ]
    assert len(tree_divisors) == len(together)


def test_sigma_preserves_inclusions_exhaustively(store):
    trees = _tree_strata(GnSignature(1, 3), store)
    for G in trees:
        for H in trees:
            assert is_degeneration(G, H) == is_degeneration(sigma(G), sigma(H))
