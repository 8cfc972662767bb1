from __future__ import annotations

import json
import time
from hashlib import sha256
from math import comb, prod

import pytest

from strata import (
    BudgetExceededError,
    DualGraph,
    GnSignature,
    StratumStore,
    canonical_key,
    chain,
    one_vertex,
    two_vertex_divisor,
)
from strata.enumeration import _split_moves, _vertex_tables, children
from strata.graphs import (
    InvalidSignatureError,
    _divisor_count,
    _divisor_table,
    _edge_sides,
    divisor_graph,
)
from helpers import (
    least_is_last,
    least_label_level,
    oracle_divisor_count,
    oracle_divisors,
    oracle_level,
    oracle_loop_children,
    oracle_move_class,
    oracle_split_children,
    raw,
    smooth,
)
from test_acceptance import GRID

# Stratum counts frozen from the exhaustive filter over all multigraphs
# (see helpers.oracle_strata, exercised in full in test_completeness).
FROZEN_COUNTS = {
    (2, 2): (4, 13, 24),
    (0, 5): (10, 15),
    (0, 6): (25, 105, 105),
    (1, 3): (5, 10, 7),
    (2, 0): (2, 2, 2),
    (2, 1): (2, 5, 5),
}


def test_divisor_counts(store):
    assert len(store.divisors(GnSignature(2, 2))) == 4
    assert len(store.divisors(GnSignature(1, 1))) == 1
    assert len(store.divisors(GnSignature(0, 5))) == 10
    assert len(store.divisors(GnSignature(0, 4))) == 3


def test_divisors_of_dimension_zero_space_empty(store):
    assert len(store.divisors(GnSignature(0, 3))) == 0


def test_divisors_agree_with_level_one(store):
    for g, n in [(0, 4), (0, 5), (1, 1), (1, 2), (2, 0), (2, 2), (3, 2)]:
        sig = GnSignature(g, n)
        assert tuple(store.divisors(sig)) == tuple(store.level(sig, 1).graphs)


@pytest.mark.parametrize("sig,expected", sorted(FROZEN_COUNTS.items()))
def test_frozen_stratum_counts(store, sig, expected):
    sig = GnSignature(*sig)
    got = tuple(len(store.level(sig, k)) for k in range(1, len(expected) + 1))
    assert got == expected


def _schroeder(m: int) -> int:
    """A000311(m): total partitions of an m-set, from the set-partition recurrence.

    ``t(s)`` counts the total partitions of an s-set; ``p(s)`` sums, over
    every set partition of an s-set, the product of ``t`` over its blocks.
    Fixing the block of one element gives p(s) = sum C(s-1, b-1) t(b) p(s-b),
    and ``t(s)`` for s >= 2 is that sum without the one-block term.
    """
    t, p = [0, 1], [1, 1]
    for s in range(2, m + 1):
        split = sum(comb(s - 1, b - 1) * t[b] * p[s - b] for b in range(1, s))
        t.append(split)
        p.append(split + t[s])
    return t[m]


@pytest.mark.parametrize("n", range(3, 9))
def test_genus_zero_counts_match_closed_formulas(n):
    """(0,n) has A000311(n-1) strata in all, and (2n-5)!! trivalent trees on top."""
    assert [_schroeder(m) for m in range(2, 8)] == [1, 4, 26, 236, 2752, 39208]
    store, sig = StratumStore(), GnSignature(0, n)
    counts = [1] + [len(store.level(sig, k)) for k in range(1, sig.dim + 1)]
    assert sum(counts) == _schroeder(n - 1)
    assert counts[-1] == prod(range(1, 2 * n - 4, 2))


def test_displayed_codim2_strata_present(store):
    level = store.level(GnSignature(2, 3), 2)
    assert canonical_key(chain([(1, (3,)), (0, (1, 2))], loop_at_end=True)) in level.graphs
    assert canonical_key(chain([(1, (1, 2)), (0, (3,))], loop_at_end=True)) in level.graphs


@pytest.mark.parametrize("g,n", [(1, 2), (0, 5)])
def test_top_codimension_strata_are_trivalent(store, g, n):
    sig = GnSignature(g, n)
    for G in store.level(sig, sig.dim):
        assert set(G.genus) == {0}
        assert all(G.valence(v) == 3 for v in range(G.num_vertices))


# The top level k = 3g-3 of (g,0) consists of the connected trivalent
# multigraphs with loops on 2g-2 vertices, counted in the literature
# (OEIS A005967), not by this code.
TRIVALENT_COUNTS = {2: 2, 3: 5, 4: 17, 5: 71}


@pytest.mark.parametrize("g,expected", sorted(TRIVALENT_COUNTS.items()))
def test_top_level_of_g0_counts_trivalent_multigraphs(store, g, expected):
    sig = GnSignature(g, 0)
    assert len(store.level(sig, sig.dim)) == expected


def test_every_level_matches_signature(store):
    sig = GnSignature(2, 2)
    for k in range(1, sig.dim + 1):
        for G in store.level(sig, k):
            assert G.total_genus == 2
            assert G.n == 2
            assert G.num_edges == k
            assert G.is_stable()


def test_smoothing_closure(store):
    for g, n in [(2, 2), (1, 3), (0, 6)]:
        sig = GnSignature(g, n)
        for k in range(2, sig.dim + 1):
            below = store.level(sig, k - 1)
            for G in store.level(sig, k):
                for e in range(G.num_edges):
                    assert canonical_key(smooth(G, e)) in below.graphs


def test_level_requires_k_in_range(store):
    sig = GnSignature(1, 2)
    with pytest.raises(ValueError, match="out of range"):
        store.level(sig, 0)
    with pytest.raises(ValueError, match="out of range"):
        store.level(sig, sig.dim + 1)
    with pytest.raises(ValueError, match="out of range"):
        store.level(GnSignature(0, 3), 1)


def test_budget_overflow_is_an_error():
    tight = StratumStore(max_graphs=3)
    with pytest.raises(BudgetExceededError):
        tight.level(GnSignature(0, 5), 1)


def test_divisor_budget_is_checked_before_the_table_is_built():
    """(0,16) has 32,751 divisors; a small budget fails at once, not after building them."""
    message = r"^level \(0,16\) k=1 exceeds budget of 10 graphs$"
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=message):
        StratumStore(max_graphs=10).divisors(GnSignature(0, 16))
    with pytest.raises(BudgetExceededError, match=message):
        StratumStore(max_graphs=10).level(GnSignature(0, 16), 1)
    assert time.perf_counter() - start < 1.0


def test_divisor_budget_is_counted_without_a_loop_over_the_genus():
    """Nor over the marks: the count is a closed form, so a huge g or n fails at once."""
    start = time.perf_counter()
    for sig in (GnSignature(10**7, 0), GnSignature(0, 10**4)):
        message = rf"^level \({sig.g},{sig.n}\) k=1 exceeds budget"
        with pytest.raises(BudgetExceededError, match=message):
            StratumStore(max_graphs=10).divisors(sig)
    assert time.perf_counter() - start < 1.0


def test_divisor_count_matches_the_summation_oracle():
    for g in range(12):
        for n in range(30):
            assert _divisor_count(g, n) == oracle_divisor_count(g, n), (g, n)


@pytest.mark.parametrize("g,n", GRID)
def test_divisor_budget_is_the_divisor_count(g, n):
    sig = GnSignature(g, n)
    count = len(_divisor_table(g, n)[0])
    assert len(StratumStore(max_graphs=count).divisors(sig)) == count
    if count > 1:  # a budget must be positive
        with pytest.raises(BudgetExceededError, match=f"budget of {count - 1} graphs$"):
            StratumStore(max_graphs=count - 1).divisors(sig)


@pytest.mark.parametrize("g,n", [(2, 3), (1, 5), (0, 7), (3, 2)])
def test_children_equal_validated_construction(store, g, n):
    """Children are built unchecked; each must pass the validating constructor."""
    sig = GnSignature(g, n)
    parents = [one_vertex(sig.g, sig.n)]
    for k in range(1, sig.dim + 1):
        for G in parents:
            for child in children(G):
                assert child == DualGraph(child.genus, child.edges, child.legs)
        parents = store.level(sig, k)


def test_levels_equal_key_every_child_oracle_on_acceptance_grid(store):
    """Least-label rejection loses no class: keys and order match keying every child."""
    for g, n in GRID:
        sig = GnSignature(g, n)
        parents = [one_vertex(sig.g, sig.n)]
        for k in range(1, sig.dim + 1):
            level = store.level(sig, k)
            assert tuple(level.graphs) == tuple(oracle_level(parents)), (sig, k)
            parents = level


def test_new_edge_label_matches_edge_sides_on_acceptance_grid(store):
    """Splits keep the first move of each move class; every kept label equals the child's own.

    The dropped moves are exactly the oracle's later members of a class, each
    isomorphic to its class's kept child, and ``children`` keeps exactly the
    kept oracle children whose new edge (the last) has the least label, in
    the oracle's order, no two of them equal.
    """
    for g, n in GRID:
        sig = GnSignature(g, n)
        parents = [one_vertex(sig.g, sig.n)]
        for k in range(1, sig.dim + 1):
            for G in parents:
                tables, kept = _vertex_tables(G), []
                for v in range(G.num_vertices):
                    moves = list(_split_moves(G, v, (g + 1, 0), tables, g))
                    built = list(oracle_split_children(G, v))
                    # Validated oracle children carry no labels: _edge_sides recomputes them.
                    assert all(child._sides is None for _, _, child in built)
                    first = {}
                    for a1, mask, child in built:
                        cls = (a1, oracle_move_class(G, v, a1, mask))
                        first.setdefault(cls, (a1, mask, child))
                        assert canonical_key(child) == canonical_key(first[cls][2]), (sig, v, mask)
                    assert [m[:2] for m in moves] == [f[:2] for f in first.values()]
                    for (_, _, label), (_, _, child) in zip(moves, first.values()):
                        sides = _edge_sides(child)
                        assert label == sides[-1], (sig, G.describe(), v)
                        if least_is_last(sides):
                            kept.append(child)
                kept += [H for H in oracle_loop_children(G) if least_is_last(_edge_sides(H))]
                assert list(children(G)) == kept, (sig, G.describe())
                assert len({raw(H) for H in kept}) == len(kept), (sig, G.describe())
            parents = store.level(sig, k)


@pytest.mark.parametrize(
    "g,n,top", [(g, n, GnSignature(g, n).dim) for g, n in GRID] + [(4, 0, 6), (5, 0, 6)]
)
def test_levels_equal_least_label_oracle(store, g, n, top):
    """Move classes lose no class and change no representative, edge order or carried label."""
    sig = GnSignature(g, n)
    parents = [one_vertex(sig.g, sig.n)]
    for k in range(1, top + 1):
        level = store.level(sig, k)
        expected = least_label_level(parents)
        assert tuple(level.graphs) == tuple(expected), (sig, k)
        for G, H in zip(level, expected.values()):
            assert G == H and G._sides == _edge_sides(H), (sig, k, G.describe())
        parents = level


def test_isomorphic_splits_of_one_vertex_yield_once():
    """A loop end with the edge to 0, or with the edge to 1: one class through the mirror."""
    G = DualGraph((0, 0, 0), [(0, 2), (1, 2), (2, 2)], (1, 1, 1, 0, 0, 0))
    masks = [mask for a1, mask, _ in _split_moves(G, 2, (2, 0), _vertex_tables(G), 1) if a1 == 0]
    assert 0b101 in masks and 0b110 not in masks
    twins = {mask: child for _, mask, child in oracle_split_children(G, 2)}
    assert canonical_key(twins[0b101]) == canonical_key(twins[0b110])


def test_carried_labels_equal_recomputed_on_acceptance_grid(store):
    """Every generated representative carries its labels; a validated copy recomputes them."""
    for g, n in GRID:
        sig = GnSignature(g, n)
        for k in range(1, sig.dim + 1):
            for G in store.level(sig, k):
                fresh = DualGraph(G.genus, G.edges, G.legs)
                assert G._sides is not None and fresh._sides is None
                carried = _edge_sides(G)
                assert type(carried) is tuple and carried == _edge_sides(fresh), (sig, G.describe())


def _face_keys(store, sig):
    """Each level's faces, with the component graphs replaced by their keys."""
    return [
        {S: [canonical_key(H) for H in Hs] for S, Hs in store.faces(sig, k).items()}
        for k in range(1, sig.dim + 1)
    ]


def test_loaded_levels_give_cold_faces_on_acceptance_grid(tmp_path):
    """Loaded graphs carry no labels, so their supports are recomputed; the faces agree.

    The cold store's graphs carry the divisor table's own descriptions, one tuple per divisor.
    """
    for g, n in GRID:
        sig = GnSignature(g, n)
        cold = StratumStore(cache_dir=tmp_path)
        expected = _face_keys(cold, sig)
        labels = _divisor_table(g, n)[2]
        for k in range(1, sig.dim + 1):
            assert all(side is labels[side] for G in cold.level(sig, k) for side in _edge_sides(G))
        warm = StratumStore(cache_dir=tmp_path)
        assert _face_keys(warm, sig) == expected, sig
        assert all(G._sides is None for k in range(1, sig.dim + 1) for G in warm.level(sig, k))


def test_enumeration_deterministic():
    a = tuple(StratumStore().level(GnSignature(2, 2), 2).graphs)
    b = tuple(StratumStore().level(GnSignature(2, 2), 2).graphs)
    assert a == b


def test_keys_are_sorted(store):
    keys = tuple(store.level(GnSignature(2, 3), 2).graphs)
    assert list(keys) == sorted(keys)


# -- disk cache ---------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    sig = GnSignature(2, 2)
    writer = StratumStore(cache_dir=tmp_path)
    expected = tuple(writer.level(sig, 2).graphs)
    path = tmp_path / "g2n2" / "k2.json"
    assert path.is_file()
    payload = json.loads(path.read_text())
    assert payload["schema"] == "stratumset/1"
    assert payload["generator_version"] == "3"
    assert payload["k"] == 2
    reader = StratumStore(cache_dir=tmp_path)
    assert tuple(reader.level(sig, 2).graphs) == expected


def test_stale_cache_regenerated(tmp_path):
    sig = GnSignature(1, 2)
    writer = StratumStore(cache_dir=tmp_path)
    expected = tuple(writer.level(sig, 1).graphs)
    path = tmp_path / "g1n2" / "k1.json"
    payload = json.loads(path.read_text())
    payload["generator_version"] = "0"
    path.write_text(json.dumps(payload))
    reader = StratumStore(cache_dir=tmp_path)
    assert tuple(reader.level(sig, 1).graphs) == expected
    assert json.loads(path.read_text())["generator_version"] == "3"


def test_generator_2_level_file_regenerated(tmp_path):
    """A level file from generator 2, which kept the first of all children, is rebuilt.

    Its keys, count and digest are valid, but its representatives are not the
    ones this generator stores; a warm read must not return them.
    """
    sig, k = GnSignature(1, 4), 3
    expected = [G.to_json_obj() for G in StratumStore(cache_dir=tmp_path).level(sig, k)]
    old = {canonical_key(one_vertex(sig.g, sig.n)): one_vertex(sig.g, sig.n)}
    for _ in range(k):
        old = oracle_level(old.values())
    path = tmp_path / "g1n4" / "k3.json"
    payload = json.loads(path.read_text())
    payload["generator_version"] = "2"
    payload["graphs"] = [G.to_json_obj() for G in old.values()]
    assert payload["graphs"] != expected
    path.write_text(json.dumps(payload))
    level = StratumStore(cache_dir=tmp_path).level(sig, k)
    assert [G.to_json_obj() for G in level] == expected
    assert json.loads(path.read_text())["generator_version"] == "3"


def test_corrupt_cache_regenerated(tmp_path):
    sig = GnSignature(1, 1)
    writer = StratumStore(cache_dir=tmp_path)
    expected = tuple(writer.level(sig, 1).graphs)
    path = tmp_path / "g1n1" / "k1.json"
    path.write_text("{not json")
    reader = StratumStore(cache_dir=tmp_path)
    assert tuple(reader.level(sig, 1).graphs) == expected


@pytest.mark.parametrize("text", ["[]", "null", '"stratumset/1"', "3"])
def test_non_object_cache_regenerated(tmp_path, text):
    """A level file whose JSON is not an object is damaged, not a crash."""
    sig = GnSignature(1, 4)
    expected = tuple(StratumStore(cache_dir=tmp_path).level(sig, 3).graphs)
    path = tmp_path / "g1n4" / "k3.json"
    path.write_text(text)
    assert tuple(StratumStore(cache_dir=tmp_path).level(sig, 3).graphs) == expected
    assert json.loads(path.read_text())["count"] == len(expected)


def test_tampered_cache_regenerated(tmp_path):
    """A level file missing a graph fails its count and digest and is rebuilt."""
    sig = GnSignature(1, 4)
    expected = tuple(StratumStore(cache_dir=tmp_path).level(sig, 3).graphs)
    path = tmp_path / "g1n4" / "k3.json"
    payload = json.loads(path.read_text())
    del payload["graphs"][0]
    path.write_text(json.dumps(payload))
    reader = StratumStore(cache_dir=tmp_path)
    assert tuple(reader.level(sig, 3).graphs) == expected
    assert len(json.loads(path.read_text())["graphs"]) == len(expected)


def test_disconnected_cached_graph_regenerated(tmp_path):
    """Level files go through the validating constructor, not the trusted one."""
    sig = GnSignature(2, 2)
    expected = tuple(StratumStore(cache_dir=tmp_path).level(sig, 2).graphs)
    path = tmp_path / "g2n2" / "k2.json"
    payload = json.loads(path.read_text())
    # Two loops on a genus-0 vertex beside a genus-1 vertex with both legs:
    # genus 2, two marks, two edges and stable, but not connected.
    bad = {
        "schema": "dualgraph/1",
        "genus": [0, 1],
        "edges": [[0, 0], [0, 0]],
        "legs": {"1": 1, "2": 1},
    }
    payload["graphs"][0] = bad
    keys = [canonical_key(DualGraph.from_json_obj(G)) for G in payload["graphs"][1:]]
    keys.append(canonical_key(DualGraph._trusted((0, 1), ((0, 0), (0, 0)), (1, 1))))
    payload.update(count=len(set(keys)), sha256=sha256(b"\n".join(sorted(set(keys)))).hexdigest())
    path.write_text(json.dumps(payload))
    assert tuple(StratumStore(cache_dir=tmp_path).level(sig, 2).graphs) == expected
    assert bad not in json.loads(path.read_text())["graphs"]


@pytest.mark.parametrize("field", ["count", "sha256"])
def test_cache_without_integrity_field_regenerated(tmp_path, field):
    sig = GnSignature(2, 2)
    expected = tuple(StratumStore(cache_dir=tmp_path).level(sig, 2).graphs)
    path = tmp_path / "g2n2" / "k2.json"
    payload = json.loads(path.read_text())
    assert payload["count"] == len(expected)
    del payload[field]
    path.write_text(json.dumps(payload))
    assert tuple(StratumStore(cache_dir=tmp_path).level(sig, 2).graphs) == expected
    assert field in json.loads(path.read_text())


def test_budget_enforced_on_cached_levels(tmp_path):
    sig = GnSignature(0, 5)
    StratumStore(cache_dir=tmp_path).level(sig, 1)
    with pytest.raises(BudgetExceededError):
        StratumStore(cache_dir=tmp_path, max_graphs=3).level(sig, 1)


def test_faces_group_level_by_support(store):
    sig = GnSignature(2, 2)
    faces = store.faces(sig, 2)
    assert store.faces(sig, 2) is faces
    for support, graphs in faces.items():
        assert len(support) == 2
        assert all(G.delta_support() == support for G in graphs)
        assert [canonical_key(G) for G in graphs] == sorted(canonical_key(G) for G in graphs)
    grouped = sum(len(graphs) for graphs in faces.values())
    distinct = sum(len(G.delta_support()) == 2 for G in store.level(sig, 2))
    assert grouped == distinct


def test_divisor_construction_covers_both_shapes(store):
    table = store.divisors(GnSignature(2, 2))
    keys = set(table)
    assert canonical_key(one_vertex(1, 2, loops=1)) in keys
    assert canonical_key(two_vertex_divisor(0, (1, 2), 2, ())) in keys
    assert canonical_key(two_vertex_divisor(1, (1, 2), 1, ())) in keys
    assert canonical_key(two_vertex_divisor(1, (1,), 1, (2,))) in keys


def test_divisor_table_matches_candidate_oracle(store):
    """Keys, order and positional representatives equal the oracle's; descriptions key them one to one."""
    cells = set(GRID) | {(g, n) for g in range(5) for n in range(7)}
    checked = 0
    for g, n in sorted(cells):
        try:
            sig = GnSignature(g, n)
        except InvalidSignatureError:
            continue
        expected = oracle_divisors(g, n)
        assert list(store.divisors(sig).items()) == list(expected.items()), sig
        by_description = _divisor_table(g, n)[1]
        assert sorted(by_description.values()) == list(expected), sig
        for description, key in by_description.items():
            if description is not None:
                a, mask = description
                description = (a, [m + 1 for m in range(n) if mask >> m & 1])
            assert canonical_key(divisor_graph(g, n, description)) == key, (sig, description)
        checked += 1
    assert checked == 32


def test_divisor_table_is_shared_read_only(store):
    sig = GnSignature(2, 2)
    with pytest.raises(TypeError):
        store.divisors(sig)[b"x"] = one_vertex(2, 2)
    assert len(StratumStore().divisors(sig)) == 4
