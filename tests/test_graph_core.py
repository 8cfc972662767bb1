from __future__ import annotations

from hashlib import sha256

import pytest

from strata import (
    DualGraph,
    GnSignature,
    InvalidSignatureError,
    StratumStore,
    canonical_key,
    chain,
    is_degeneration,
    key_from_hex,
    key_to_hex,
    one_vertex,
    two_vertex_divisor,
)
from helpers import (
    delta,
    delta_multiset,
    is_isomorphic,
    relabel,
    smooth,
    to_json,
    vertex_isomorphisms,
)
from test_acceptance import GRID


def parallel_edge_graph() -> DualGraph:
    """Two genus-0 vertices, two parallel edges, marks on opposite sides."""
    return DualGraph((0, 0), ((0, 1), (0, 1)), (0, 1))


# -- construction and invariants ----------------------------------------------


def test_rejects_disconnected_graph():
    with pytest.raises(ValueError, match="connected"):
        DualGraph((1, 1), (), ())


def test_rejects_bad_endpoints_and_legs():
    with pytest.raises(ValueError):
        DualGraph((0,), ((0, 1),), ())
    with pytest.raises(ValueError):
        DualGraph((1,), (), (2,))
    with pytest.raises(ValueError):
        DualGraph((-1,), (), ())
    with pytest.raises(ValueError):
        DualGraph((), (), ())


@pytest.mark.parametrize(
    "build",
    [
        lambda: DualGraph((True,), (), (0,)),
        lambda: DualGraph((1.0,), (), (0,)),
        lambda: DualGraph((0, 0), ((0, True),), (0, 0, 1, 1)),
        lambda: DualGraph((1,), (), (False,)),
        lambda: GnSignature(1.5, 0),
        lambda: GnSignature(2, True),
    ],
    ids=["bool-genus", "float-genus", "bool-edge-end", "bool-leg", "float-g", "bool-n"],
)
def test_non_integers_rejected_before_any_graph_shares_them(build):
    """``(True,) == (1,)``: a bool or float let in would be the shared object of later graphs."""
    with pytest.raises(ValueError, match="must be integers"):
        build()
    assert canonical_key(one_vertex(1, 1)) == b"g1;e;l0"
    assert canonical_key(DualGraph((0, 0), ((1, 0),), (0, 0, 1, 1))) == b"g0,0;e0-1;l0,0,1,1"


@pytest.mark.parametrize(
    "g,n,top,digest",
    [
        (5, 0, 8, "873b932391cc5b3c433e2d5f2b91070ed2b24fb8ce1a3e269d3eb773f326463c"),
        (1, 6, 6, "879cf9cbac6e118c14cef2a8b781c9b4baf53caf513fe40c865926e100f2bede"),
        (0, 7, 4, "46b3a84132fbbb98d4cf7376fb218cd0bf35ba7d9a9e20dba298371f39cb7135"),
        (2, 3, 6, "d83e3bed9350dc16ae13935734812665569543a60b4979f11ef9038225886e19"),
    ],
)
def test_key_scheme_is_pinned(store: StratumStore, g, n, top, digest):
    """SHA-256 of the keys of levels 1..top, in store order, one per line.

    Any change of the key bytes, of a level's graphs or of their order moves
    the digest; a change of the key scheme must be declared and re-pinned.
    """
    sig = GnSignature(g, n)
    keys = [key for k in range(1, top + 1) for key in store.level(sig, k)]
    assert sha256(b"\n".join(keys)).hexdigest() == digest


def test_edge_pairs_are_normalized_but_order_is_kept():
    G = DualGraph((0, 1), ((1, 0), (1, 1), (0, 1)), (0, 0, 0))
    assert G.edges == ((0, 1), (1, 1), (0, 1))


def test_chain_rejects_mark_on_two_vertices():
    with pytest.raises(ValueError, match="more than once"):
        chain([(0, (1, 2)), (0, (1, 3))])


@pytest.mark.parametrize(
    "legs1,legs2,message",
    [((1, 2), (2, 3), "more than once"), ((1,), (3,), "1..n")],
    ids=["overlap", "gap"],
)
def test_two_vertex_divisor_rejects_bad_marks(legs1, legs2, message):
    with pytest.raises(ValueError, match=message):
        two_vertex_divisor(1, legs1, 1, legs2)


@pytest.mark.parametrize(
    "g1,legs1,g2,legs2,legs",
    [
        (1, (1, 2), 1, (), (0, 0)),
        (0, (1, 3), 2, (2,), (0, 1, 0)),
        (2, (), 0, {3, 1, 2}, (1, 1, 1)),
        (1, (), 1, (), ()),
    ],
)
def test_two_vertex_divisor_matches_hand_built_graph(g1, legs1, g2, legs2, legs):
    assert two_vertex_divisor(g1, legs1, g2, legs2) == DualGraph((g1, g2), ((0, 1),), legs)


@pytest.mark.parametrize(
    "g,n", [(0, 0), (0, 1), (0, 2), (1, 0)]
)
def test_invalid_signatures_rejected(g, n):
    with pytest.raises(InvalidSignatureError):
        GnSignature(g, n)


def test_negative_signature_rejected():
    with pytest.raises(InvalidSignatureError, match=r"^negative signature \(-1,3\)$"):
        GnSignature(-1, 3)


def test_signature_dim():
    assert GnSignature(0, 3).dim == 0
    assert GnSignature(2, 2).dim == 5
    assert GnSignature(1, 1).dim == 1


# -- total genus ----------------------------------------------------------------


def test_total_genus_smooth_curve():
    assert one_vertex(2, 2).total_genus == 2


def test_total_genus_parallel_edges():
    assert parallel_edge_graph().total_genus == 1


def test_total_genus_loop():
    assert one_vertex(0, 2, loops=1).total_genus == 1


# -- stability -------------------------------------------------------------------


def test_two_special_points_unstable():
    G = DualGraph((0,), (), (0, 0))
    assert not G.is_stable()


def test_pinwheel_shape_with_genus_zero_spoke_unstable():
    G = DualGraph((0, 1, 1, 0), ((0, 1), (0, 2), (0, 3)), (1, 2, 3))
    assert not G.is_stable()


def test_loop_chain_stable():
    G = chain([(1, (1, 2)), (0, ())], loop_at_end=True)
    assert G.is_stable()


# -- smoothing -------------------------------------------------------------------


def test_smooth_loop_raises_genus():
    G = one_vertex(0, 2, loops=1)
    assert smooth(G, 0) == one_vertex(1, 2)


def test_smooth_edge_adds_genera():
    G = two_vertex_divisor(1, (1, 2), 1, ())
    assert is_isomorphic(smooth(G, 0), one_vertex(2, 2))


def test_smooth_parallel_edge_leaves_loop():
    G = parallel_edge_graph()
    assert is_isomorphic(smooth(G, 0), one_vertex(0, 2, loops=1))
    assert is_isomorphic(smooth(G, 1), one_vertex(0, 2, loops=1))


def test_smooth_set_empty_is_identity():
    G = chain([(1, (3,)), (0, (1, 2))], loop_at_end=True)
    assert G.smooth_set(()) == G


def test_smooth_set_all_edges_gives_smooth_point():
    G = chain([(1, (3,)), (0, (1, 2))], loop_at_end=True)
    assert G.smooth_set(range(G.num_edges)) == one_vertex(G.total_genus, 3)


def test_smooth_set_middle_edge_merges_onto_loop_vertex():
    G = chain([(1, (3,)), (0, (1, 2))], loop_at_end=True)
    merged = G.smooth_set({0})
    assert is_isomorphic(merged, one_vertex(1, 3, loops=1))


def test_smooth_invalid_edge_id():
    G = one_vertex(1, 1, loops=1)
    with pytest.raises(ValueError, match="invalid edge id"):
        smooth(G, 5)
    with pytest.raises(ValueError, match="invalid edge id"):
        G.smooth_set({0, 3})
    with pytest.raises(ValueError, match="invalid edge id"):
        delta(G, -1)


# -- delta -----------------------------------------------------------------------


def test_delta_of_one_edge_graph_is_itself():
    G = two_vertex_divisor(1, (1, 2), 1, ())
    assert delta(G, 0) == G


def test_delta_parallel_edges_coincide():
    G = parallel_edge_graph()
    loop = one_vertex(0, 2, loops=1)
    assert is_isomorphic(delta(G, 0), loop)
    assert is_isomorphic(delta(G, 1), loop)


def test_delta_two_edge_stratum_recovers_both_divisors():
    G = chain([(1, (3,)), (0, (1, 2))], loop_at_end=True)
    expected = {
        canonical_key(two_vertex_divisor(1, (3,), 1, (1, 2))),
        canonical_key(one_vertex(1, 3, loops=1)),
    }
    assert {canonical_key(delta(G, 0)), canonical_key(delta(G, 1))} == expected


def test_delta_multiset_sizes():
    D = two_vertex_divisor(1, (1, 2), 1, ())
    assert len(delta_multiset(D)) == 1
    assert D.delta_support() == {canonical_key(D)}
    G = parallel_edge_graph()
    assert len(delta_multiset(G)) == 2
    assert len(G.delta_support()) == 1


def test_delta_multiset_common_degeneration():
    G = chain([(1, (1, 2)), (0, ())], loop_at_end=True)
    assert G.delta_support() == {
        canonical_key(two_vertex_divisor(1, (1, 2), 1, ())),
        canonical_key(one_vertex(1, 2, loops=1)),
    }


def test_delta_multiset_requires_edges():
    with pytest.raises(ValueError, match="edgeless"):
        one_vertex(2, 0).delta_support()
    with pytest.raises(ValueError, match="edgeless"):
        delta_multiset(one_vertex(2, 0))


def test_delta_support_of_unstable_graph_is_value_error():
    G = DualGraph((0, 0), ((0, 1),), (0, 0, 1))  # a genus-0 leaf with one mark
    assert not G.is_stable()
    with pytest.raises(ValueError, match="no stable divisor"):
        G.delta_support()


def test_delta_multiset_matches_oracle_on_acceptance_grid(store):
    """Divisors read off the edges equal the keyed one-edge smoothings."""
    for g, n in GRID:
        sig = GnSignature(g, n)
        table = store.divisors(sig)
        for k in range(1, sig.dim + 1):
            for G in store.level(sig, k).values():
                support = G.delta_support()
                assert support == frozenset(delta_multiset(G)), (sig, k, G.describe())
                assert all(key in table for key in support), (sig, k, G.describe())


# -- canonical keys ---------------------------------------------------------------


def test_canonical_key_invariant_under_relabeling():
    G = chain([(1, (3,)), (0, (1, 2))], loop_at_end=True)
    H = relabel(G, (1, 0))
    assert canonical_key(G) == canonical_key(H)


def test_canonical_key_respects_leg_symmetry():
    assert canonical_key(two_vertex_divisor(1, (1,), 1, (2,))) == canonical_key(
        two_vertex_divisor(1, (2,), 1, (1,))
    )


def test_canonical_key_distinguishes_decorations():
    a = two_vertex_divisor(1, (1, 2), 1, ())
    b = two_vertex_divisor(0, (1, 2), 2, ())
    assert canonical_key(a) != canonical_key(b)


def test_key_hex_roundtrip():
    key = canonical_key(one_vertex(1, 2, loops=1))
    assert key_from_hex(key_to_hex(key)) == key
    assert key_to_hex(key) == key_to_hex(key).lower()


# -- isomorphism -------------------------------------------------------------------


def test_isomorphic_to_itself():
    G = chain([(1, (1, 2)), (0, ())], loop_at_end=True)
    assert is_isomorphic(G, G)


def test_different_edge_counts_not_isomorphic():
    assert not is_isomorphic(one_vertex(1, 2, loops=1), one_vertex(0, 2, loops=2))


def test_displayed_codim2_strata_not_isomorphic():
    a = chain([(1, (3,)), (0, (1, 2))], loop_at_end=True)
    b = chain([(1, (1, 2)), (0, (3,))], loop_at_end=True)
    assert not is_isomorphic(a, b)
    assert not any(vertex_isomorphisms(a, b))


def test_isomorphism_oracle_agrees_on_relabeling():
    G = chain([(0, (1, 2)), (1, ()), (1, (3,))])
    H = relabel(G, (2, 0, 1))
    assert is_isomorphic(G, H)
    assert any(vertex_isomorphisms(G, H))


# -- degeneration -------------------------------------------------------------------


def test_degeneration_reflexive():
    G = chain([(1, (1, 2)), (0, ())], loop_at_end=True)
    assert is_degeneration(G, G)


def test_common_degeneration_of_two_divisors():
    G = chain([(1, (1, 2)), (0, ())], loop_at_end=True)
    assert is_degeneration(G, two_vertex_divisor(1, (1, 2), 1, ()))
    assert is_degeneration(G, one_vertex(1, 2, loops=1))


def test_fewer_edges_never_degenerate_more():
    one_edge = two_vertex_divisor(1, (1, 2), 1, ())
    two_edges = chain([(1, (1, 2)), (0, ())], loop_at_end=True)
    assert not is_degeneration(one_edge, two_edges)


def test_degenerations_keep_the_signature():
    G = chain([(1, (1, 2)), (0, ())], loop_at_end=True)
    assert not is_degeneration(G, one_vertex(2, 3))
    assert not is_degeneration(G, one_vertex(3, 2))


def test_degeneration_to_a_divisor_is_support_membership_exhaustively(store):
    """``is_degeneration`` to a divisor is membership in the divisor support, on every pair tried.

    The graphs are those of levels 2 and 3 of the acceptance grid cells with
    at most 12 divisors and of level 2 of (0,6), (1,5) and (2,4); each is
    tried against every divisor of its cell.
    """
    cells = [
        (GnSignature(g, n), k)
        for g, n in GRID
        if len(store.divisors(GnSignature(g, n))) <= 12
        for k in (2, 3)
        if k <= GnSignature(g, n).dim
    ]
    cells += [(GnSignature(g, n), 2) for g, n in [(0, 6), (1, 5), (2, 4)]]
    for sig, k in cells:
        for G in store.level(sig, k).values():
            support = G.delta_support()
            for key, D in store.divisors(sig).items():
                assert is_degeneration(G, D) == (key in support), (sig, G.describe(), key)


# -- serialization -----------------------------------------------------------------


def test_json_roundtrip_bit_exact():
    G = chain([(1, (3,)), (0, (1, 2))], loop_at_end=True)
    text = to_json(G)
    H = DualGraph.from_json(text)
    assert to_json(H) == text
    assert canonical_key(H) == canonical_key(G)


def test_json_schema_shape():
    obj = parallel_edge_graph().to_json_obj()
    assert obj["schema"] == "dualgraph/1"
    assert obj["genus"] == [0, 0]
    assert obj["edges"] == [[0, 1], [0, 1]]
    assert obj["legs"] == {"1": 0, "2": 1}


def test_json_rejects_bad_legs():
    obj = {
        "schema": "dualgraph/1",
        "genus": [1],
        "edges": [],
        "legs": {"1": 0, "3": 0},
    }
    with pytest.raises(ValueError, match="1..n"):
        DualGraph.from_json_obj(obj)


def test_json_rejects_wrong_schema():
    with pytest.raises(ValueError, match="schema"):
        DualGraph.from_json_obj({"schema": "nope", "genus": [1], "edges": [], "legs": {}})


@pytest.mark.parametrize(
    "fields",
    [
        {"genus": [1], "legs": {}},
        {"genus": 5, "edges": [], "legs": {}},
        {"edges": [], "legs": {}},
        {"genus": [1], "edges": []},
        {"genus": [0, 0], "edges": [[0, 1, 1]], "legs": {"1": 0, "2": 1, "3": 1}},
        {"genus": [0, 0], "edges": [5], "legs": {"1": 0, "2": 1, "3": 1}},
        {"genus": ["1"], "edges": [], "legs": {}},
        {"genus": [1.5], "edges": [], "legs": {}},
        {"genus": [0, 0], "edges": [[0, True]], "legs": {"1": 0, "2": 1, "3": 1}},
        {"genus": [1], "edges": [], "legs": {"1": None}},
        {"genus": [1], "edges": [], "legs": [0]},
    ],
)
def test_json_rejects_missing_fields_and_wrong_types(fields):
    with pytest.raises(ValueError):
        DualGraph.from_json_obj({"schema": "dualgraph/1", **fields})
