from __future__ import annotations

from itertools import combinations

import pytest

from strata import (
    BoundaryComplex,
    DivisorSet,
    GnSignature,
    boundary_complex,
    canonical_key,
    flag_verdict,
    high_genus,
    intersection_components,
    is_degeneration,
    one_vertex,
    pinwheel,
    predicted_flag,
    two_vertex_divisor,
    universal_degeneration,
)
from strata.complexes import _verify_downward_closed
from helpers import (
    flag_witness,
    intersect_nonempty,
    is_face,
    is_isomorphic,
    oracle_facets,
    witness_for,
)
from test_acceptance import GRID


# -- construction --------------------------------------------------------------


def test_m22_complex(store):
    C = boundary_complex(GnSignature(2, 2), store)
    assert C.f_vector() == (4, 5, 2)
    assert flag_witness(C) is None
    adj = C.adjacency()
    missing = [
        (i, j)
        for i, j in combinations(range(len(C.vertices)), 2)
        if j not in adj[i]
    ]
    assert len(missing) == 1
    i, j = missing[0]
    nonedge = {C.vertices[i], C.vertices[j]}
    assert nonedge == {
        canonical_key(two_vertex_divisor(0, (1, 2), 2, ())),
        canonical_key(two_vertex_divisor(1, (1,), 1, (2,))),
    }


def test_m22_triangles(store):
    C = boundary_complex(GnSignature(2, 2), store)
    key = {
        "irr": canonical_key(one_vertex(1, 2, loops=1)),
        "marked_genus0": canonical_key(two_vertex_divisor(0, (1, 2), 2, ())),
        "marked_genus1": canonical_key(two_vertex_divisor(1, (1, 2), 1, ())),
        "split_marks": canonical_key(two_vertex_divisor(1, (1,), 1, (2,))),
    }
    idx = {name: C.vertices.index(k) for name, k in key.items()}
    triangles = {frozenset(f) for f in C.faces[3]}
    assert triangles == {
        frozenset({idx["irr"], idx["marked_genus0"], idx["marked_genus1"]}),
        frozenset({idx["irr"], idx["marked_genus1"], idx["split_marks"]}),
    }


def test_dimension_one_space_has_isolated_vertices(store):
    C = boundary_complex(GnSignature(1, 1), store)
    assert C.f_vector() == (1,)
    assert flag_witness(C) is None


def test_dimension_zero_space_is_empty_complex(store):
    C = boundary_complex(GnSignature(0, 3), store)
    assert C.f_vector() == ()
    assert C.vertices == ()
    assert flag_witness(C) is None


def test_genus_zero_five_marks(store):
    C = boundary_complex(GnSignature(0, 5), store)
    assert C.f_vector() == (10, 15)
    assert flag_witness(C) is None
    facets = C.facets()
    assert len(facets) == 15
    assert all(len(f) == 2 for f in facets)


def test_faces_downward_closed_explicitly(store):
    for g, n in [(2, 2), (1, 3), (0, 6)]:
        C = boundary_complex(GnSignature(g, n), store)
        for size, faces in C.faces.items():
            if size < 2:
                continue
            for face in faces:
                for v in face:
                    assert is_face(C, face - {v})


def _closure_map(*faces):
    """A face map holding the given faces, keyed by size."""
    out: dict[int, frozenset] = {}
    for face in map(frozenset, faces):
        out[len(face)] = out.get(len(face), frozenset()) | {face}
    return out


@pytest.mark.parametrize(
    "faces",
    [
        _closure_map((0,), (1,), (2,), (0, 1), (0, 2), (0, 1, 2)),
        _closure_map((0,), (1,), (2,), (0, 1, 2)),
    ],
    ids=["missing_face", "missing_level"],
)
def test_verify_downward_closed_rejects_open_maps(faces):
    with pytest.raises(RuntimeError, match="downward closure"):
        _verify_downward_closed(faces)


def test_verify_downward_closed_accepts_closed_map():
    _verify_downward_closed(_closure_map((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)))


def test_facets_match_pairwise_scan_on_grid(store):
    checked = 0
    for g, n in GRID:
        sig = GnSignature(g, n)
        for max_dim in (None, *range(sig.dim + 1)):
            C = boundary_complex(sig, store, max_dim=max_dim)
            assert C.facets() == oracle_facets(C.faces), (g, n, max_dim)
            checked += 1
    assert checked == 105


def test_f_vector_invariant_under_vertex_reordering(store):
    C = boundary_complex(GnSignature(2, 2), store)
    order = list(range(len(C.vertices)))[::-1]
    faces = {
        size: frozenset(frozenset(order[i] for i in face) for face in fs)
        for size, fs in C.faces.items()
    }
    reordered = BoundaryComplex(
        C.signature,
        tuple(C.vertices[i] for i in order),
        tuple(C.divisor_graphs[i] for i in order),
        faces,
    )
    assert reordered.f_vector() == C.f_vector()


def test_max_dim_validation(store):
    with pytest.raises(ValueError, match="max_dim"):
        boundary_complex(GnSignature(2, 2), store, max_dim=99)


def test_truncated_complex_refuses_flag_check(store):
    C = boundary_complex(GnSignature(2, 3), store, max_dim=2)
    with pytest.raises(ValueError, match="truncated"):
        flag_witness(C)


@pytest.mark.parametrize("max_dim", [0, 1])
def test_complex_without_one_skeleton_refuses_flag_check(store, max_dim):
    C = boundary_complex(GnSignature(2, 3), store, max_dim=max_dim)
    with pytest.raises(ValueError, match="truncated"):
        flag_witness(C)


@pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (1, 1)])
def test_full_complex_below_dimension_two_keeps_its_verdict(store, g, n):
    sig = GnSignature(g, n)
    C = boundary_complex(sig, store)
    assert max(C.faces, default=0) < 2
    assert flag_witness(C) is flag_verdict(sig, store) is None


def test_exports(store):
    C = boundary_complex(GnSignature(2, 2), store)
    obj = C.to_json_obj()
    assert obj["schema"] == "bcomplex/1"
    assert len(obj["vertices"]) == 4
    assert sorted(map(len, obj["facets"])) == [3, 3]
    dot = C.to_dot()
    assert dot.startswith('graph "boundary_complex_g2n2"')
    assert dot.count(" -- ") == 5
    assert "tooltip" in dot


# -- flag checking ---------------------------------------------------------------


def test_flag_witness_at_2_3(store):
    witness = flag_verdict(GnSignature(2, 3), store)
    assert witness is not None
    assert len(witness) == 3
    expected = {canonical_key(D) for D in pinwheel(3).divisors.values()}
    assert set(witness) == expected


def test_witness_meets_pairwise_but_not_all_together(store):
    """On every non-flag cell of the acceptance grid the witness is a non-face clique."""
    cells = 0
    for g, n in GRID:
        sig = GnSignature(g, n)
        witness = flag_verdict(sig, store)
        if witness is None:
            continue
        cells += 1
        for a, b in combinations(witness, 2):
            assert intersect_nonempty(DivisorSet(sig, (a, b)), store)
        assert not intersect_nonempty(DivisorSet(sig, witness), store)
    assert cells == sum(not predicted_flag(GnSignature(g, n)) for g, n in GRID)


def test_eager_and_lazy_flag_checks_agree(store):
    for g, n in [(2, 2), (2, 3), (1, 3), (0, 5), (1, 4), (3, 2)]:
        sig = GnSignature(g, n)
        assert flag_witness(boundary_complex(sig, store)) == flag_verdict(sig, store)


def test_witness_is_lexicographically_minimal(store):
    """Among the smallest non-face cliques, the key-lex least one is reported."""
    sig = GnSignature(2, 4)
    witness = flag_verdict(sig, store)
    assert witness is not None
    C = boundary_complex(sig, store, max_dim=3)
    adj = C.adjacency()
    nonface_triples = sorted(
        (i, j, k)
        for i, j, k in combinations(range(len(C.vertices)), 3)
        if j in adj[i] and k in adj[i] and k in adj[j]
        and not is_face(C, {i, j, k})
    )
    assert nonface_triples
    expected = tuple(C.vertices[t] for t in nonface_triples[0])
    assert witness == expected


def test_witness_for_probe(store):
    sig = GnSignature(2, 3)
    divisors = list(pinwheel(3).divisors.values())
    probe = witness_for(sig, divisors, store)
    assert not probe.is_face
    assert probe.pairwise_ok
    assert probe.components == ()
    single = witness_for(sig, divisors[:1], store)
    assert single.is_face
    assert len(single.components) == 1


# -- counterexample families ------------------------------------------------------


FAMILIES = {
    "pinwheel(3)": pinwheel(3),
    "pinwheel(4)": pinwheel(4),
    "high_genus(3,2)": high_genus(3, 2),
    "high_genus(4,2)": high_genus(4, 2),
    "high_genus(3,3)": high_genus(3, 3),
}


@pytest.mark.parametrize("F", FAMILIES.values(), ids=FAMILIES.keys())
def test_family_pairs_meet_in_displayed_graph_but_all_do_not(store, F):
    sig = F.signature
    key = {i: canonical_key(D) for i, D in F.divisors.items()}
    assert set(F.pairs) == set(combinations(F.divisors, 2))
    for (i, j), shown in F.pairs.items():
        report = intersection_components(DivisorSet(sig, (key[i], key[j])), store)
        assert len(report.components) == 1
        assert is_isomorphic(report.components[0], shown)
        assert shown.delta_support() == {key[i], key[j]}
    assert not intersect_nonempty(DivisorSet(sig, tuple(key.values())), store)


def test_pinwheel_requires_three_marks():
    with pytest.raises(ValueError):
        pinwheel(2)


def test_high_genus_triple_bounds():
    with pytest.raises(ValueError):
        high_genus(2, 3)
    with pytest.raises(ValueError):
        high_genus(3, 1)


def test_universal_degeneration_instances(store):
    for g, n in [(2, 0), (3, 0), (1, 1), (2, 1), (3, 1)]:
        sig = GnSignature(g, n)
        U = universal_degeneration(sig)
        assert U.total_genus == g and U.n == n and U.is_stable()
        for D in store.divisors(sig).values():
            assert is_degeneration(U, D)


def test_universal_degeneration_shapes():
    three = universal_degeneration(GnSignature(3, 0))
    assert three.genus == (1, 1, 0)
    assert sorted(three.edges) == [(0, 1), (1, 2), (2, 2)]
    one_one = universal_degeneration(GnSignature(1, 1))
    assert one_one == one_vertex(0, 1, loops=1)


def test_universal_degeneration_bounds():
    with pytest.raises(ValueError):
        universal_degeneration(GnSignature(0, 4))
    with pytest.raises(ValueError):
        universal_degeneration(GnSignature(2, 2))


# -- classification ---------------------------------------------------------------


def test_predictions():
    assert predicted_flag(GnSignature(0, 9))
    assert predicted_flag(GnSignature(1, 6))
    assert predicted_flag(GnSignature(5, 1))
    assert predicted_flag(GnSignature(2, 2))
    assert not predicted_flag(GnSignature(2, 3))
    assert not predicted_flag(GnSignature(3, 2))


def test_check_theorem_cells(store):
    """The theorem is the prediction against the computed verdict, cell by cell."""
    for g, n, expected in [(2, 2, True), (2, 3, False), (1, 4, True)]:
        sig = GnSignature(g, n)
        witness = flag_verdict(sig, store)
        assert predicted_flag(sig) == expected
        assert (witness is None) == expected
        if not expected:
            assert len(witness) >= 3
